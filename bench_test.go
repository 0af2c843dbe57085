// Package repro's top-level benchmarks are profiling tools for the
// simulator's largest runs, outside the repository benchmark in bench/:
// one N=1M flood across 8 shards, and an N=100k flood with a spy
// Observer tapped in at 1 and 4 shards. Run one with
//
//	go test -run '^$' -bench E14Flood1M -benchmem -cpuprofile cpu.pprof
//
// Measurements that back a performance claim come from `go run -C bench .`
// (bench/README.md); an experiment's table is pinned by TestGoldenTables in
// internal/experiments, and `flexsim -quick -cpuprofile f <id>` profiles
// one experiment.
package repro

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

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
// (sim/obs.go), the hot path the tap de-clamp added.
func benchShardedTappedFlood(b *testing.B, k int) {
	g, err := topology.RandomRegular(100_000, 8, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		b.Fatal(err)
	}
	net := sim.NewNetwork(g, sim.Options{Seed: 1, Latency: sim.ConstLatency(50 * time.Millisecond), Shards: k})
	corrupted := adversary.SampleCorrupted(g.N(), 0.01, rand.New(rand.NewPCG(3, 4)))
	obs := adversary.NewObserver(corrupted)
	shared := flood.NewShared(g.N())
	shared.Partition(k)
	payload := []byte{0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	var sightings int
	for i := 0; i < b.N; i++ {
		net.Reset(uint64(i + 1))
		shared.Reset()
		net.ClearTaps()
		obs.Reset(corrupted)
		net.AddTap(obs)
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
