package experiments

import (
	"time"

	"repro/internal/adaptive"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/topology"
)

// A1AlphaAblation is an ablation of the virtual-source pass probability
// α(d, ρ, h) — the design choice DESIGN.md derives from the uniformity
// recurrence. Replacing it with naive constants (always pass, coin flip,
// rarely pass) concentrates the source distribution and the MAP
// adversary's success rises well above the 1/n ideal, which is exactly
// why adaptive diffusion computes α instead of guessing.
func A1AlphaAblation(sc Scenario) *metrics.Table {
	const d = 6 // diffusion rounds on the line
	nTrials := sc.trials(300, 2500)
	t := metrics.NewTable(
		"A1 (ablation) — pass-probability choice vs source obfuscation (line, D=6)",
		"policy", "MAP P(detect)", "ideal 1/n", "degradation",
	)
	g, err := topology.Line(201)
	if err != nil {
		panic(err)
	}
	const src = proto.NodeID(100)
	ballSize := adaptive.BallSize(2, d)
	ideal := 1 / float64(ballSize)

	run := func(override float64) float64 {
		distCounts := make([]int, d+2)
		hs := centreDistances(sc, g, src, nTrials, adaptive.Config{
			D:             d,
			RoundInterval: 100 * time.Millisecond,
			TreeDegree:    2,
			AlphaOverride: override,
		})
		for _, h := range hs {
			if h >= 0 && h < len(distCounts) {
				distCounts[h]++
			}
		}
		best := 0.0
		for h := 1; h < len(distCounts); h++ {
			p := float64(distCounts[h]) / float64(nTrials) / 2 // n_h = 2 on the line
			if p > best {
				best = p
			}
		}
		return best
	}

	policies := []struct {
		name     string
		override float64
	}{
		{"derived α(ρ,h) [paper]", 0},
		{"constant α=0.5", 0.5},
		{"always pass (α=1)", 1},
		{"rarely pass (α=0.1)", 0.1},
	}
	for _, p := range policies {
		detect := run(p.override)
		t.AddRow(p.name, detect, ideal, detect/ideal)
	}
	t.AddNote("always-pass pins the source at the trailing edge; rarely-pass pins it at the centre ring")
	return t
}
