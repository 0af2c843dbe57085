package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/simulate"
)

// E5DandelionVsFlexnet reproduces the decay claim of §III-B —
// "topological privacy mechanisms work well for smaller fractions of
// adversaries, e.g., 0.15 to 0.35, but provide little privacy for large
// fractions" — and the composed protocol's answer: a cryptographic
// k-anonymity floor that holds at every adversary fraction (P(deanon)
// bounded by 1/ℓ over the ℓ honest group members).
func E5DandelionVsFlexnet(sc Scenario) *metrics.Table {
	n, deg := sc.size(500), sc.degree(8)
	const k = 5
	nTrials := sc.trials(4, 30)
	t := metrics.NewTable(
		fmt.Sprintf("E5 — adversary fraction sweep: Dandelion decay vs flexnet floor (N=%d, k=%d)", n, k),
		"adversary f", "dandelion P(deanon)", "flexnet P(deanon)", "flexnet anonymity set", "1/l floor",
	)
	fractions := []float64{0.05, 0.15, 0.25, 0.35, 0.5, 0.6}
	if sc.Quick {
		fractions = []float64{0.15, 0.5}
	}
	type sample struct {
		dHit, xHit float64
		anon       float64
		floor      float64
		hasFloor   bool
	}
	for _, f := range fractions {
		samples := runner.MapWorker(nTrials, sc.Par, sc.trial, func(tr *simulate.Trial, trial int) sample {
			seed := uint64(trial*31 + int(f*100) + 1)
			var s sample
			dres, _ := sc.broadcast(tr, simulate.Config{
				N: n, Degree: deg, Protocol: simulate.ProtocolDandelion,
				Seed: seed, AdversaryFraction: f,
			})
			if dres.FirstSpyCorrect {
				s.dHit = 1
			}
			xres, _ := sc.broadcast(tr, simulate.Config{
				N: n, Degree: deg, Protocol: simulate.ProtocolFlexnet,
				K: k, D: 4, Seed: seed, AdversaryFraction: f,
			})
			if xres.GroupAttackHit && xres.GroupSuspectSet > 0 {
				s.xHit = 1 / float64(xres.GroupSuspectSet)
			}
			s.anon = float64(xres.GroupSuspectSet)
			if xres.GroupSuspectSet > 0 {
				s.floor = 1 / float64(xres.GroupSuspectSet)
				s.hasFloor = true
			}
			return s
		})
		var dHit, xHit float64
		anon := metrics.NewSummary()
		floor := metrics.NewSummary()
		for _, s := range samples {
			dHit += s.dHit
			xHit += s.xHit
			anon.Add(s.anon)
			if s.hasFloor {
				floor.Add(s.floor)
			}
		}
		t.AddRow(f, dHit/float64(nTrials), xHit/float64(nTrials), anon.Mean(), floor.Mean())
	}
	t.AddNote("flexnet assumes the worst case: the adversary knows the group composition")
	t.AddNote("dandelion estimator: first-spy over stem+fluff observations")
	return t
}
