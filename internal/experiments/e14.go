package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/adaptive"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/stack"
	"repro/internal/topology"
)

// coverageSample is one broadcast run to full coverage — the unit E1
// measures at the paper's N and E14 across scales.
type coverageSample struct {
	msgs    int64
	events  uint64
	covered int
	shards  int
	wall    time.Duration // the run alone, construction excluded
}

// coverageTrial broadcasts from the trial's source over a WAN network on
// g. A flood runs a flat minute: it drains by itself and every duplicate
// counts. Adaptive diffusion (D effectively unbounded) runs in
// quarter-second steps and stops as soon as every peer is infected, so
// only the messages sent up to that point count. Under -v it reports the
// run's per-shard diagnostics.
func (sc Scenario) coverageTrial(label string, g *topology.Graph, deg, trial int, kind stack.Kind, tag byte) coverageSample {
	n, seed := g.N(), uint64(trial+1)
	net := sc.network(g, seed, netem.WAN)
	stack.Mount(net, stack.Spec{
		Kind:     kind,
		Adaptive: adaptive.Config{D: 64, RoundInterval: 500 * time.Millisecond, TreeDegree: deg},
	})
	net.Start()
	start := time.Now()
	id, err := net.Originate(proto.NodeID(int(seed)%n), []byte{byte(trial), tag})
	if err != nil {
		panic(err)
	}
	if kind == stack.Flood {
		net.RunUntil(time.Minute)
	} else {
		maxSteps := 256
		if n >= 1000000 {
			maxSteps = 1024 // the 1M ball needs more rounds
		}
		for step := 0; step < maxSteps && net.Delivered(id) < n; step++ {
			net.RunUntil(net.Now() + 250*time.Millisecond)
		}
	}
	if sc.Verbose && net.ShardCount() > 1 {
		for _, st := range net.ShardStats() {
			fmt.Fprintf(os.Stderr,
				"%s trial %d shard %d: nodes=%d events=%d stalls=%d/%d windows handoffs=%d queue: %d refills, %.2f moves/event, max run %d\n",
				label, trial, st.Shard, st.Nodes, st.Events, st.Stalls, st.Windows, st.Handoffs,
				st.QueueRefills, float64(st.QueueMoves)/float64(max(st.Events, 1)), st.QueueMaxRun)
		}
	}
	return coverageSample{
		msgs: net.TotalMessages(), events: net.Steps(), shards: net.ShardCount(),
		covered: net.Delivered(id), wall: time.Since(start),
	}
}

// E14ScaleSweep pushes the evaluation past the paper's N=1000 setting —
// the practical ceiling ethp2psim cites for p2p privacy simulation —
// running flood-and-prune and adaptive diffusion to full coverage at
// N=1k/10k/100k/1M on the 8-regular overlay (1M in full mode only).
// Columns report message counts (flood must follow the 2E−(N−1)
// formula; adaptive sends 1.1–1.4× flood's messages at 1k–100k, 9.9 /
// 8.0 / 8.6 msgs/node in full mode, but 20.3 at 1M, where a long
// coverage tail costs ≈ 6 Extends per node a round: ROADMAP item 16)
// and simulator throughput two ways: per worker goroutine (trials run
// concurrently, so this is not aggregate machine throughput; run with
// -par 1 for single-core engine rate) and per core, which additionally
// divides by the shard count each trial's network ran on (-shards), so
// the column stays comparable between single-loop and sharded runs.
//
// The wall-time columns are real time, so they are outside the
// bit-identical determinism guarantee (the tests mask them); all
// message/coverage columns remain deterministic.
func E14ScaleSweep(sc Scenario) *metrics.Table {
	deg := sc.degree(8)
	sizes := []int{1000, 10000, 100000, 1000000}
	if sc.Quick {
		sizes = []int{1000, 10000}
	}
	if sc.N > 0 {
		sizes = []int{sc.N}
	}
	nTrials := sc.trials(1, 3)
	t := metrics.NewTable(
		fmt.Sprintf("E14 — scale sweep, %d-regular overlay (flood formula 2E−(N−1); throughput is wall-clock)", deg),
		"protocol", "N", "trials", "mean msgs", "msgs/node", "coverage", "events", "Mevents/s/worker", "Mevents/s/core",
	)

	row := func(name string, n int, samples []coverageSample) {
		msgs := metrics.NewSummary()
		var events uint64
		var wall, coreWall time.Duration
		covered := 0
		for _, s := range samples {
			msgs.Add(float64(s.msgs))
			events += s.events
			wall += s.wall
			coreWall += s.wall * time.Duration(s.shards)
			if s.covered == n {
				covered++
			}
		}
		// Σevents/Σwall over per-trial wall times: with trials running
		// concurrently this is the trial-weighted mean per-worker rate,
		// not aggregate machine throughput — hence the column label. The
		// per-core rate further weights each trial's wall time by the
		// shard count its network resolved to.
		evPerSec, evPerCore := 0.0, 0.0
		if wall > 0 {
			evPerSec = float64(events) / wall.Seconds() / 1e6
			evPerCore = float64(events) / coreWall.Seconds() / 1e6
		}
		t.AddRow(name, n, nTrials, msgs.Mean(), msgs.Mean()/float64(n),
			fmt.Sprintf("%d/%d", covered, len(samples)), events, evPerSec, evPerCore)
	}

	for _, n := range sizes {
		// One topology per size, shared read-only across the parallel
		// trials; the per-trial network seed still varies.
		g := regular(n, deg, uint64(n)+99)

		row("flood-and-prune", n, runner.Map(nTrials, sc.Par, func(trial int) coverageSample {
			return sc.coverageTrial("e14 flood", g, deg, trial, stack.Flood, 0x0e)
		}))
		row("adaptive diffusion", n, runner.Map(nTrials, sc.Par, func(trial int) coverageSample {
			return sc.coverageTrial("e14 adaptive", g, deg, trial, stack.Adaptive, 0x0f)
		}))
	}
	t.AddNote("ethp2psim (Béres et al.) cites N≈1000 as the practical simulation ceiling; the allocation-free runtime clears 100k")
	t.AddNote("-shards splits each trial across per-shard event loops; per-core throughput divides by the resolved shard count")
	return t
}
