package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/simulate"
)

// A2ParameterAdvisor validates the parameter advisor — the "data for
// application designers to choose suitable and safe parameters" the
// paper's conclusion asks for. For each (target floor, adversary
// fraction) the advisor picks (k, d); we then run the composed protocol
// at those parameters and check the measured adversary success stays at
// or below the predicted floor while delivery stays complete.
func A2ParameterAdvisor(sc Scenario) *metrics.Table {
	n, deg := sc.size(400), sc.degree(8)
	nTrials := sc.trials(4, 25)
	t := metrics.NewTable(
		fmt.Sprintf("A2 — parameter advisor validation (N=%d)", n),
		"target floor", "adversary f", "chosen k", "chosen d", "predicted floor", "measured P(deanon)", "delivery",
	)
	cases := []struct {
		floor float64
		f     float64
	}{
		{0.25, 0.2},
		{0.10, 0.2},
		{0.10, 0.5},
		{0.05, 0.3},
	}
	for _, c := range cases {
		rec, err := model.RecommendParams(model.AdvisorInput{
			N: n, Degree: deg,
			AdversaryFraction: c.f,
			TargetFloor:       c.floor,
		})
		if err != nil {
			panic(err)
		}
		type sample struct {
			hit       float64
			delivered bool
		}
		samples := runner.MapWorker(nTrials, sc.Par, sc.trial, func(tr *simulate.Trial, trial int) sample {
			res, _ := sc.broadcast(tr, simulate.Config{
				N: n, Degree: deg,
				Protocol:          simulate.ProtocolFlexnet,
				K:                 rec.K,
				D:                 rec.D,
				Seed:              uint64(trial*13 + int(c.floor*100) + 1),
				AdversaryFraction: c.f,
				MaxDuration:       3 * time.Minute,
			})
			var s sample
			if res.GroupAttackHit && res.GroupSuspectSet > 0 {
				s.hit = 1 / float64(res.GroupSuspectSet)
			}
			s.delivered = res.Delivered == res.N
			return s
		})
		var hit float64
		delivered := 0
		for _, s := range samples {
			hit += s.hit
			if s.delivered {
				delivered++
			}
		}
		t.AddRow(c.floor, c.f, rec.K, rec.D, rec.PredictedFloor,
			hit/float64(nTrials), fmt.Sprintf("%d/%d", delivered, nTrials))
	}
	t.AddNote("measured P(deanon) is the worst-case group attack; it should not exceed the predicted floor (sampling noise aside)")
	return t
}
