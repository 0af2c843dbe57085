// Package repro's top-level benchmarks regenerate every evaluation
// artifact of the paper (experiments E1–E12, see DESIGN.md §3): each
// benchmark runs the corresponding experiment in quick mode and reports
// its headline quantity through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's table/figure shapes alongside runtime cost.
// Full-trial numbers (the ones README.md and DESIGN.md §3 quote) come
// from `go run ./cmd/flexsim all`.
package repro

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/experiments"
	"repro/internal/flood"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// cell parses a numeric table cell; non-numeric cells yield NaN-safe 0.
func cell(t *metrics.Table, row, col int) float64 {
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return 0
	}
	s := strings.ReplaceAll(t.Rows[row][col], ",", "")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

// runExperiment executes one experiment per benchmark iteration and
// reports the named cells as metrics.
func runExperiment(b *testing.B, id string, report func(b *testing.B, t *metrics.Table)) {
	b.Helper()
	e := experiments.Find(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *metrics.Table
	for i := 0; i < b.N; i++ {
		last = e.Run(experiments.Quick())
	}
	if last != nil {
		report(b, last)
	}
}

// BenchmarkE1MessageCounts reproduces §V-A: adaptive diffusion vs
// flood-and-prune message counts at N=1000 (paper: 12,500 vs 7,000).
func BenchmarkE1MessageCounts(b *testing.B) {
	runExperiment(b, "e1", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 2), "flood-msgs")
		b.ReportMetric(cell(t, 1, 2), "adaptive-msgs")
		b.ReportMetric(cell(t, 1, 5), "ratio")
	})
}

// BenchmarkE2DCNetComplexity reproduces the O(k²) Phase-1 message cost.
func BenchmarkE2DCNetComplexity(b *testing.B) {
	runExperiment(b, "e2", func(b *testing.B, t *metrics.Table) {
		last := len(t.Rows) - 1
		b.ReportMetric(cell(t, last, 2), "msgs/round@gmax")
		b.ReportMetric(cell(t, 0, 2), "msgs/round@gmin")
	})
}

// BenchmarkE3Landscape reproduces Fig. 1's privacy–performance points.
func BenchmarkE3Landscape(b *testing.B) {
	runExperiment(b, "e3", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 4), "flood-P(deanon)")
		b.ReportMetric(cell(t, 2, 4), "flexnet-P(deanon)")
		b.ReportMetric(cell(t, 2, 2), "flexnet-msgs")
	})
}

// BenchmarkE4FloodDeanonymization reproduces the Fig. 2 / Biryukov
// attack precision against plain flooding.
func BenchmarkE4FloodDeanonymization(b *testing.B) {
	runExperiment(b, "e4", func(b *testing.B, t *metrics.Table) {
		last := len(t.Rows) - 1
		b.ReportMetric(cell(t, last, 1), "firstspy-precision")
		b.ReportMetric(cell(t, last, 2), "timing-precision")
	})
}

// BenchmarkE5DandelionVsFlexnet reproduces the §III-B decay claim and
// the k-anonymity floor.
func BenchmarkE5DandelionVsFlexnet(b *testing.B) {
	runExperiment(b, "e5", func(b *testing.B, t *metrics.Table) {
		last := len(t.Rows) - 1
		b.ReportMetric(cell(t, last, 1), "dandelion-P@fmax")
		b.ReportMetric(cell(t, last, 2), "flexnet-P@fmax")
	})
}

// BenchmarkE6Obfuscation reproduces the perfect-obfuscation target of
// adaptive diffusion (P(detect) ≈ 1/n).
func BenchmarkE6Obfuscation(b *testing.B) {
	runExperiment(b, "e6", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 4), "line-P(detect)")
		b.ReportMetric(cell(t, 0, 3), "line-ideal")
	})
}

// BenchmarkE7AnnounceOptimization reproduces the §V-A announcement-round
// byte savings.
func BenchmarkE7AnnounceOptimization(b *testing.B) {
	runExperiment(b, "e7", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 2), "fixed-bytes/round")
		b.ReportMetric(cell(t, 1, 2), "announce-bytes/round")
	})
}

// BenchmarkE8OverlapGroups reproduces the §IV-C origin-probability skew
// (P(A)=1/2 naive vs 1/3 enforced).
func BenchmarkE8OverlapGroups(b *testing.B) {
	runExperiment(b, "e8", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 2), "naive-P(A)")
		b.ReportMetric(cell(t, 3, 2), "enforced-P(A)")
	})
}

// BenchmarkE9Delivery reproduces the delivery-guarantee comparison.
func BenchmarkE9Delivery(b *testing.B) {
	runExperiment(b, "e9", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 2), "adaptive-coverage")
		b.ReportMetric(cell(t, len(t.Rows)-3, 2), "flexnet-coverage")
	})
}

// BenchmarkE10MinerFairness reproduces the §II fairness motivation.
func BenchmarkE10MinerFairness(b *testing.B) {
	runExperiment(b, "e10", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 3), "flood-TV@2s")
		b.ReportMetric(cell(t, 2, 3), "flexnet-TV@2s")
	})
}

// BenchmarkE11Blame reproduces the §V-C disruptor handling.
func BenchmarkE11Blame(b *testing.B) {
	runExperiment(b, "e11", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 2), "blame-rounds")
		b.ReportMetric(cell(t, 1, 2), "dissolve-rounds")
	})
}

// BenchmarkE12PhaseTrace reproduces the Fig. 5 phase shape.
func BenchmarkE12PhaseTrace(b *testing.B) {
	runExperiment(b, "e12", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 1, 3), "phase2-msgs")
		b.ReportMetric(cell(t, 2, 3), "phase3-msgs")
	})
}

// BenchmarkE13DissentStartup reproduces §III-B's linear announcement
// startup of Dissent-style shuffles.
func BenchmarkE13DissentStartup(b *testing.B) {
	runExperiment(b, "e13", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, len(t.Rows)-1, 4), "scaling@gmax")
		b.ReportMetric(cell(t, len(t.Rows)-1, 2), "messages@gmax")
	})
}

// BenchmarkE14ScaleSweep runs the past-the-paper scale sweep (quick
// mode: N=1k and 10k, flood + adaptive to full coverage).
func BenchmarkE14ScaleSweep(b *testing.B) {
	runExperiment(b, "e14", func(b *testing.B, t *metrics.Table) {
		last := len(t.Rows) - 1
		b.ReportMetric(cell(t, last, 3), "adaptive-msgs@nmax")
		b.ReportMetric(cell(t, last-1, 3), "flood-msgs@nmax")
	})
}

// BenchmarkE14Flood1M runs E14's largest cell in isolation — one
// N=1,000,000 flood broadcast to full coverage on the 8-regular WAN
// overlay, event loop split across 8 shards — and reports the
// events/s-per-core headline the E14 table carries. On a single-core
// host the 8 shards time-slice one CPU, so events/s/core here is the
// honest per-core throughput; the graph is built once outside the timer.
func BenchmarkE14Flood1M(b *testing.B) {
	g, err := topology.RandomRegular(1_000_000, 8, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		b.Fatal(err)
	}
	const shards = 8
	net := sim.NewNetwork(g, sim.Options{Seed: 1, Latency: sim.ConstLatency(50 * time.Millisecond), Shards: shards})
	shared := flood.NewShared(g.N())
	shared.Partition(shards)
	b.ReportAllocs()
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		net.Reset(uint64(i + 1))
		shared.Reset()
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
		net.Start()
		if _, err := net.Originate(0, []byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
		net.Run(0)
		steps += net.Steps()
	}
	b.StopTimer()
	perCore := float64(steps) / b.Elapsed().Seconds() / float64(net.ShardCount()) / 1e6
	b.ReportMetric(perCore, "Mevents/s/core")
	b.ReportMetric(float64(net.ShardCount()), "shards")
}

// benchShardedTappedFlood measures a full N=100k flood broadcast with a
// spy Observer (1% corrupted nodes) tapped in and the event loop split
// across k shards (k=1 is the single-loop baseline, where taps fire
// inline). The delta against the untapped ShardedFlood numbers is the
// cost of the per-shard observation logs plus the barrier merge-replay
// (sim/obs.go) — the hot path the tap de-clamp added, gated like every
// other one.
func benchShardedTappedFlood(b *testing.B, k int) {
	g, err := topology.RandomRegular(100_000, 8, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		b.Fatal(err)
	}
	net := sim.NewNetwork(g, sim.Options{Seed: 1, Latency: sim.ConstLatency(50 * time.Millisecond), Shards: k})
	corrupted := adversary.SampleCorrupted(g.N(), 0.01, rand.New(rand.NewPCG(3, 4)))
	obs := adversary.NewObserver(corrupted)
	net.AddTap(obs)
	shared := flood.NewShared(g.N())
	shared.Partition(k)
	payload := []byte{0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	var sightings int
	for i := 0; i < b.N; i++ {
		net.Reset(uint64(i + 1))
		shared.Reset()
		obs.Reset(corrupted)
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
		net.Start()
		payload[0], payload[1] = byte(i), byte(i>>8)
		id, err := net.Originate(0, payload)
		if err != nil {
			b.Fatal(err)
		}
		net.Run(0)
		sightings = len(obs.Observations(id))
	}
	b.StopTimer()
	if k > 1 && net.ShardCount() != k {
		b.Fatalf("resolved to %d shards, want %d (taps must not clamp)", net.ShardCount(), k)
	}
	if sightings == 0 {
		b.Fatal("observer recorded no sightings; tap stream lost")
	}
	b.ReportMetric(float64(sightings), "sightings")
}

func BenchmarkShardedTappedFlood1(b *testing.B) { benchShardedTappedFlood(b, 1) }
func BenchmarkShardedTappedFlood4(b *testing.B) { benchShardedTappedFlood(b, 4) }

// BenchmarkE15Robustness runs the netem sweep (quick mode: 2 trials per
// protocol × condition) and reports headline robustness numbers:
// msgs/node for flood under 5% loss, and drops/node there.
func BenchmarkE15Robustness(b *testing.B) {
	runExperiment(b, "e15", func(b *testing.B, t *metrics.Table) {
		// Row 2 is flood/loss5 (rows are protocol-major in sweep order).
		b.ReportMetric(cell(t, 2, 6), "flood-msgs/node@loss5")
		b.ReportMetric(cell(t, 2, 7), "flood-drops/node@loss5")
	})
}

// BenchmarkA1AlphaAblation validates the derived pass probability
// against naive constants.
func BenchmarkA1AlphaAblation(b *testing.B) {
	runExperiment(b, "a1", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 3), "derived-degradation")
		b.ReportMetric(cell(t, 1, 3), "const0.5-degradation")
	})
}

// BenchmarkA2ParameterAdvisor validates RecommendParams floors.
func BenchmarkA2ParameterAdvisor(b *testing.B) {
	runExperiment(b, "a2", func(b *testing.B, t *metrics.Table) {
		b.ReportMetric(cell(t, 0, 4), "predicted-floor")
		b.ReportMetric(cell(t, 0, 5), "measured-P")
	})
}
