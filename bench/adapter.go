package main

// adapter.go is the only file of the benchmark that imports product
// packages. Every product entry point the benchmark depends on is named
// here once, so a refactor of the product knows which signatures are
// load-bearing: change one and only this file has to follow.

import (
	"encoding/binary"
	"log/slog"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/flexnet"
	"repro/internal/adversary"
	"repro/internal/flood"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The product types the rest of the benchmark handles, by alias so no
// other file needs a product import.
type (
	nodeID      = proto.NodeID
	msgID       = proto.MsgID
	message     = proto.Message
	timerID     = proto.TimerID
	handler     = proto.Handler
	broadcaster = proto.Broadcaster
	nodeCtx     = proto.Context

	graph       = topology.Graph
	network     = sim.Network
	simTap      = sim.Tap
	shardStats  = sim.ShardStats
	floodShared = flood.Shared
	observer    = adversary.Observer
	soakNet     = workload.SoakNet
	soakResult  = workload.SoakResult
	simResult   = flexnet.SimResult
	liveNode    = transport.Node
	codec       = wire.Codec
)

// hopLatency is the paper's 50 ms wide-area hop.
const hopLatency = 50 * time.Millisecond

// shapedProfile is the impaired link of spy100k and soak2k: hash-mode
// jitter gives every delivery its own instant, loss makes the shaper
// decide.
var shapedProfile = netem.Profile{
	Name:    "bench",
	Latency: netem.Const(hopLatency),
	Jitter:  netem.Uniform{Hi: 20 * time.Millisecond},
	Loss:    0.02,
}

func randomRegular(n, d int, seed uint64) (*graph, error) {
	return topology.RandomRegular(n, d, rand.New(rand.NewPCG(seed, 2)))
}

// newNetwork builds the simulated network of the flood workloads:
// constant hop latency, or shapedProfile when shaped.
func newNetwork(g *graph, seed uint64, shards int, shaped bool) *network {
	opts := sim.Options{Seed: seed, Shards: shards, Latency: sim.ConstLatency(hopLatency)}
	if shaped {
		p := shapedProfile
		opts.Netem = &p
	}
	return sim.NewNetwork(g, opts)
}

func newFloodShared(n, parts int) *floodShared {
	s := flood.NewShared(n)
	s.Partition(max(parts, 1))
	return s
}

// floodAt is the dense simulation handler, floodLive the map-backed one
// live nodes run.
func floodAt(s *floodShared, id nodeID) broadcaster { return flood.NewAt(s, id) }
func floodLive() broadcaster                        { return flood.New() }

func sampleCorrupted(n int, share float64, rng *rand.Rand) []nodeID {
	return adversary.SampleCorrupted(n, share, rng)
}

func newObserver(corrupted []nodeID) *observer { return adversary.NewObserver(corrupted) }

// firstSpy returns the first-spy estimate for one broadcast and how many
// sightings it rests on.
func firstSpy(o *observer, id msgID) (suspect nodeID, sightings int) {
	obs := o.Observations(id)
	return adversary.FirstSpy(obs), len(obs)
}

// soakSizes are the knobs of soak2k the smoke test scales down.
type soakSizes struct {
	n               int
	rate            float64
	duration, drain time.Duration
}

func soakSpec(rate float64) workload.Spec {
	spec, err := workload.Spec{Rate: rate, Resubmit: 0.1}.Normalize()
	if err != nil {
		panic(err) // constant input
	}
	return spec
}

// newSoakNet builds the single-loop soak fixture; stack builds each
// node's inner broadcast protocol.
func newSoakNet(sz soakSizes, seed uint64, stack func(nodeID) handler) *soakNet {
	p := shapedProfile
	return workload.NewSoakNet(workload.SoakConfig{
		Spec:      soakSpec(sz.rate),
		Duration:  sz.duration,
		Drain:     sz.drain,
		N:         sz.n,
		Degree:    8,
		Seed:      seed,
		Stack:     stack,
		Netem:     &p,
		Admission: workload.AdmissionConfig{QueueCap: 256, Policy: workload.DropOldest},
		Service:   2 * time.Millisecond,
	})
}

// soakSchedule expands the arrival schedule SoakNet.Run builds
// internally, so its cost can be timed on its own.
func soakSchedule(sz soakSizes, seed uint64) int {
	all := make([]nodeID, sz.n)
	for i := range all {
		all[i] = nodeID(i)
	}
	return len(workload.Schedule(soakSpec(sz.rate), seed, sz.duration, all))
}

// simulate is one call of the public facade. k = 0 selects plain flood
// on the same overlay, the cell that isolates construction cost.
func simulate(n, k, d int, seed uint64) (*simResult, error) {
	cfg := flexnet.SimConfig{N: n, Protocol: flexnet.ProtocolFlood, AdversaryFraction: 0.1, Seed: seed}
	if k > 0 {
		cfg.Protocol, cfg.K, cfg.D = flexnet.ProtocolFlexnet, k, d
	}
	return flexnet.Simulate(cfg)
}

func floodCodec() *codec {
	c := wire.NewCodec()
	flood.RegisterMessages(c)
	return c
}

// listenLive starts one node on real loopback TCP. Its log is discarded:
// the one condition it would report, a full send queue, is counted in
// liveStats.txDropped.
func listenLive(self nodeID, neighbors []nodeID, c *codec, h handler, seed uint64, onDeliver func(msgID, []byte)) (*liveNode, error) {
	return transport.Listen(transport.Config{
		Self:      self,
		Listen:    "127.0.0.1:0",
		Neighbors: neighbors,
		Codec:     c,
		Handler:   h,
		OnDeliver: onDeliver,
		Seed:      seed,
		Logger:    slog.New(slog.DiscardHandler),
	})
}

// liveStats is the part of transport.WireStats the benchmark reads.
type liveStats struct {
	txFrames, txFrameBytes, txDropped int64
}

func liveStatsOf(n *liveNode) liveStats {
	s := n.Stats()
	return liveStats{s.TxFrames, s.TxFrameBytes, s.TxDropped}
}

// Stand-alone drivers: one exported function each, in a loop, away from
// any workload. They give the floor under the per-layer numbers the
// wrappers measure inside a run. Each returns nanoseconds per call.

// microEngine runs `events` closures through a bare event engine with
// at most `pending` scheduled at once.
func microEngine(events, pending int, seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, 11))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Int64N(int64(hopLatency)))
	}
	e := sim.NewEngine()
	scheduled := 0
	var fn func()
	fn = func() {
		if scheduled < events {
			e.Schedule(delays[scheduled&4095], fn)
			scheduled++
		}
	}
	start := time.Now()
	for ; scheduled < min(pending, events); scheduled++ {
		e.Schedule(delays[scheduled&4095], fn)
	}
	ran := e.Run(0)
	return float64(time.Since(start)) / float64(ran)
}

// microMarkSeen marks one message at every node of a dense Shared in a
// scattered order, then again: a first sight and a duplicate per node.
func microMarkSeen(n int) float64 {
	s := flood.NewShared(n)
	engines := make([]*flood.Engine, n)
	for i := range engines {
		engines[i] = flood.NewEngineAt(s, nodeID(i))
	}
	id := proto.NewMsgID([]byte("markseen"))
	const stride = 7919 // prime, so coprime with any n it does not divide
	start := time.Now()
	for pass := 0; pass < 2; pass++ {
		for i, at := 0, 0; i < n; i++ {
			sink += b2i(engines[at].MarkSeen(id))
			at = (at + stride) % n
		}
	}
	return float64(time.Since(start)) / float64(2*n)
}

func microDecide(calls int, seed uint64) float64 {
	sh := shapedProfile.Shaper(seed)
	start := time.Now()
	for i := 0; i < calls; i++ {
		d, drop := sh.Decide(nodeID(i&1023), nodeID(i>>10&1023), flood.TypeData, uint64(i))
		sink += int(d) + b2i(drop)
	}
	return float64(time.Since(start)) / float64(calls)
}

// microOffer offers distinct submissions to one node's admission layer,
// popping each so the queue stays below its cap.
func microOffer(calls int) float64 {
	adm := workload.NewAdmission(workload.AdmissionConfig{QueueCap: 256, Policy: workload.DropOldest}, 0, nil)
	var p workload.Pending
	start := time.Now()
	for i := 0; i < calls; i++ {
		binary.LittleEndian.PutUint64(p.ID[:], uint64(i)+1)
		sink += int(adm.Offer(p))
		adm.Pop()
	}
	return float64(time.Since(start)) / float64(calls)
}

func microSketchAdd(calls int, seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, 12))
	vals := make([]time.Duration, 4096)
	for i := range vals {
		vals[i] = time.Duration(rng.Int64N(int64(2 * time.Second)))
	}
	var s metrics.LatencySketch
	start := time.Now()
	for i := 0; i < calls; i++ {
		s.Add(vals[i&4095])
	}
	sink += int(s.Count())
	return float64(time.Since(start)) / float64(calls)
}

// microWire marshals and unmarshals one flood.DataMsg of the given
// payload size; allocs is heap allocations per round trip.
func microWire(size, calls int) (marshalNs, unmarshalNs, allocs float64) {
	c := floodCodec()
	m := &flood.DataMsg{ID: proto.NewMsgID([]byte{byte(size)}), Hops: 3, Payload: make([]byte, size)}
	frame, err := c.Marshal(m)
	if err != nil {
		panic(err) // registered type
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < calls; i++ {
		b, _ := c.Marshal(m)
		sink += len(b)
	}
	mid := time.Now()
	for i := 0; i < calls; i++ {
		d, _ := c.Unmarshal(frame)
		sink += int(d.Type())
	}
	end := time.Now()
	runtime.ReadMemStats(&after)
	return float64(mid.Sub(start)) / float64(calls), float64(end.Sub(mid)) / float64(calls),
		float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// sink keeps the compiler from discarding the micro loops' results.
var sink int

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
