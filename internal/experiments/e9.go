package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/simulate"
)

// E9Delivery quantifies the §III-A drawback that motivates Phase 3:
// "adaptive diffusion does not guarantee delivery of messages to all
// nodes … failures to deliver them to all nodes leads to unfairness".
// Adaptive diffusion alone covers only its final ball; the composed
// protocol, Dandelion and flooding always reach every node.
func E9Delivery(sc Scenario) *metrics.Table {
	n, deg := sc.size(1000), sc.degree(8)
	nTrials := sc.trials(3, 15)
	t := metrics.NewTable(
		fmt.Sprintf("E9 — delivery ratio (N=%d): adaptive-only vs delivery-guaranteed protocols", n),
		"protocol", "D", "mean delivery ratio", "min", "full-coverage runs",
	)

	type sample struct {
		ratio float64
		full  bool
	}
	row := func(p simulate.Protocol, d int) {
		samples := runner.MapWorker(nTrials, sc.Par, sc.trial, func(tr *simulate.Trial, trial int) sample {
			res, _ := sc.broadcast(tr, simulate.Config{
				N: n, Degree: deg, Protocol: p, K: 5, D: d,
				Seed:        uint64(trial*7 + d + 1),
				MaxDuration: 5 * time.Minute,
			})
			return sample{
				ratio: float64(res.Delivered) / float64(res.N),
				full:  res.Delivered == res.N,
			}
		})
		ratios := metrics.NewSummary()
		full := 0
		for _, s := range samples {
			ratios.Add(s.ratio)
			if s.full {
				full++
			}
		}
		t.AddRow(p.String(), d, ratios.Mean(), ratios.Min(), fmt.Sprintf("%d/%d", full, nTrials))
	}

	for _, d := range []int{2, 3, 4, 6} {
		row(simulate.ProtocolAdaptive, d)
	}
	row(simulate.ProtocolFlexnet, 4)
	row(simulate.ProtocolDandelion, 0)
	row(simulate.ProtocolFlood, 0)
	t.AddNote("adaptive-only coverage is the diffusion ball; flexnet's Phase 3 completes it")
	sc.toleranceNote(t, 4)
	return t
}
