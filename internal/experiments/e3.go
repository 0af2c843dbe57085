package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/simulate"
)

// E3Landscape regenerates Fig. 1 — the privacy–performance landscape —
// as measured points: plain flooding is cheap and fully deanonymizable
// (point 3 in the figure), a network-wide DC-net is private and
// unusably expensive (point 1), and the composed protocol sweeps the
// adjustable middle (point 2) as k and d grow.
func E3Landscape(sc Scenario) *metrics.Table {
	n, deg := sc.size(300), sc.degree(8)
	const f = 0.2
	nTrials := sc.trials(4, 25)
	t := metrics.NewTable(
		fmt.Sprintf("E3 — privacy–performance landscape (N=%d, adversary f=0.2)", n),
		"protocol", "params", "messages", "coverage time", "P(deanon)", "anonymity set",
	)

	type variant struct {
		name   string
		params string
		cfg    simulate.Config
	}
	variants := []variant{
		{"flood", "-", simulate.Config{Protocol: simulate.ProtocolFlood}},
		{"dandelion", "q=0.1", simulate.Config{Protocol: simulate.ProtocolDandelion, Q: 0.1}},
		{"flexnet", "k=4 d=3", simulate.Config{Protocol: simulate.ProtocolFlexnet, K: 4, D: 3}},
		{"flexnet", "k=7 d=4", simulate.Config{Protocol: simulate.ProtocolFlexnet, K: 7, D: 4}},
		{"flexnet", "k=10 d=5", simulate.Config{Protocol: simulate.ProtocolFlexnet, K: 10, D: 5}},
	}
	type sample struct {
		msgs, cover, hit, anon float64
	}
	for _, v := range variants {
		samples := runner.MapWorker(nTrials, sc.Par, sc.trial, func(tr *simulate.Trial, trial int) sample {
			cfg := v.cfg
			cfg.N, cfg.Degree, cfg.Seed = n, deg, uint64(trial+1)
			cfg.AdversaryFraction = f
			res, _ := sc.broadcast(tr, cfg)
			s := sample{msgs: float64(res.TotalMessages), cover: float64(res.TimeToCoverage)}
			if cfg.Protocol == simulate.ProtocolFlexnet {
				// Group attack: success probability 1/|honest set|.
				if res.GroupAttackHit && res.GroupSuspectSet > 0 {
					s.hit = 1 / float64(res.GroupSuspectSet)
				}
				s.anon = float64(res.GroupSuspectSet)
			} else {
				if res.FirstSpyCorrect {
					s.hit = 1
				}
				s.anon = 1
			}
			return s
		})
		msgs := metrics.NewSummary()
		cover := metrics.NewSummary()
		var hit float64
		anon := metrics.NewSummary()
		for _, s := range samples {
			msgs.Add(s.msgs)
			cover.Add(s.cover)
			hit += s.hit
			anon.Add(s.anon)
		}
		t.AddRow(v.name, v.params, msgs.Mean(),
			fmtDuration(time.Duration(cover.Mean())),
			hit/float64(nTrials), anon.Mean())
	}
	// Network-wide DC-net: analytic, the simulation would be a memory
	// hog with no extra information (3·N·(N−1) messages per round).
	t.AddRow("dc-net (whole network)", fmt.Sprintf("g=%d", n), model.DCNetRoundMsgs(n), "3 hops/round", 0.0, n-int(f*float64(n)))
	t.AddNote("dc-net row is analytic: 3·N·(N−1) msgs/round, anonymity = honest member count")
	t.AddNote("flexnet P(deanon) is the group attack's expected success 1/|honest group|; flood/dandelion use first-spy")
	sc.toleranceNote(t, 3, 4, 5)
	return t
}
