package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/stack"
)

// E1Messages reproduces the paper's only hard numbers (§V-A): "we
// averaged 12,500 messages with adaptive diffusion to reach all 1,000
// peers. This compares to an average of 7,000 messages for a regular
// flood and prune broadcast." The substrate that makes flood cost
// exactly ~7,000 is a 1000-node random 8-regular overlay
// (2E − (N−1) = 8000 − 999 = 7001).
func E1Messages(sc Scenario) *metrics.Table {
	n, deg := sc.size(1000), sc.degree(8)
	t := metrics.NewTable(
		fmt.Sprintf("E1 — messages to reach all %d peers (paper: flood ≈ 7,000; adaptive diffusion ≈ 12,500)", n),
		"protocol", "trials", "mean msgs", "std", "paper", "ratio vs flood",
	)
	nTrials := sc.trials(3, 20)

	type sample struct{ flood, adaptive float64 }
	samples := runner.Map(nTrials, sc.Par, func(trial int) sample {
		g := regular(n, deg, uint64(trial+1))
		return sample{
			flood:    float64(sc.coverageTrial("e1 flood", g, deg, trial, stack.Flood, 0x01).msgs),
			adaptive: float64(sc.coverageTrial("e1 adaptive", g, deg, trial, stack.Adaptive, 0x02).msgs),
		}
	})

	floodStats := metrics.NewSummary()
	adStats := metrics.NewSummary()
	for _, s := range samples {
		floodStats.Add(s.flood)
		adStats.Add(s.adaptive)
	}

	t.AddRow("flood-and-prune", nTrials, floodStats.Mean(), floodStats.Std(), "7,000", 1.0)
	t.AddRow("adaptive diffusion", nTrials, adStats.Mean(), adStats.Std(), "12,500", adStats.Mean()/floodStats.Mean())
	t.AddNote("random %d-regular overlay, N=%d; flood formula 2E−(N−1) = %d", deg, n, 2*n*deg/2-(n-1))
	return t
}
