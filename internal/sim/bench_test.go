package sim

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
)

// BenchmarkEngineScheduleRun measures raw event throughput.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i), func() {})
	}
	e.Run(0)
}

// BenchmarkEngineChurn1M measures steady-state schedule/run churn: 1024
// self-rescheduling events processed one million at a time — the
// allocation-free steady state a long simulation settles into, where the
// arena recycles slots and the queue recycles chunks instead of growing.
func BenchmarkEngineChurn1M(b *testing.B) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(time.Millisecond, tick) }
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(1_000_000)
	}
}

// queueBenchHandler keeps a fixed event population alive: every delivery
// schedules one more, straight into the engine's queue (no link model,
// no counters), to a destination and after a delay drawn from a cheap
// xorshift stream — so what a run measures is queue plus dispatch. With
// a fan-out f, every f-th delivery instead schedules f at once, with
// consecutive sequence numbers: the per-sender groups of a flood wave.
type queueBenchHandler struct {
	rng    uint64
	jitter time.Duration // 0: every delay is exactly benchHop
	fanout int           // ≤ 1: one delivery per delivery
	count  int
}

const benchHop = 50 * time.Millisecond

func (*queueBenchHandler) Init(proto.Context)             {}
func (*queueBenchHandler) HandleTimer(proto.Context, any) {}

func (h *queueBenchHandler) HandleMessage(ctx proto.Context, _ proto.NodeID, msg proto.Message) {
	sends := 1
	if h.fanout > 1 {
		if h.count++; h.count%h.fanout != 0 {
			return
		}
		sends = h.fanout
	}
	n := ctx.(*simNode)
	for range sends {
		h.rng ^= h.rng << 13
		h.rng ^= h.rng >> 7
		h.rng ^= h.rng << 17
		delay := benchHop
		if h.jitter > 0 {
			delay += time.Duration(h.rng>>20) % h.jitter
		}
		n.schedSeq++
		n.eng.scheduleDeliver(n.eng.now+delay, evKey{src: n.id, seq: n.schedSeq}, proto.NodeID(h.rng%uint64(len(n.net.nodes))), msg)
	}
}

// benchEngineQueue runs one million events per op against a standing
// population of `pending` deliveries.
func benchEngineQueue(b *testing.B, pending int, jitter time.Duration, fanout int) {
	g, err := topology.Ring(1024)
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(g, Options{Seed: 1})
	h := &queueBenchHandler{rng: 0x9e3779b97f4a7c15, jitter: jitter, fanout: fanout}
	net.SetHandlers(func(proto.NodeID) proto.Handler { return h })
	net.Start()
	msg := &flood.DataMsg{}
	for i := 0; i < pending; i++ {
		h.HandleMessage(&net.nodes[i%len(net.nodes)], 0, msg)
	}
	e := net.engine
	e.Run(uint64(2 * pending)) // past the cold first waves: chunks and run buffer at size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(1_000_000)
	}
	b.ReportMetric(float64(e.moves)/float64(e.steps), "moves/event")
}

// BenchmarkEngineWave is the constant-latency regime: the whole
// population lands on one instant, so the queue does one sort per wave
// and no bucket-to-bucket moves. pending=1k is the small-network case
// that used to fit the old heap in cache; fanout=7 gives the wave a
// flood's per-sender groups, which the run sort's gather reads nearly in
// sequence.
func BenchmarkEngineWave(b *testing.B) {
	for _, c := range []struct {
		name            string
		pending, fanout int
	}{
		{"pending=1k", 1_000, 1}, {"pending=100k", 100_000, 1}, {"pending=1M", 1_000_000, 1},
		{"pending=1M/fanout=7", 1_000_000, 7},
	} {
		b.Run(c.name, func(b *testing.B) { benchEngineQueue(b, c.pending, 0, c.fanout) })
	}
}

// BenchmarkEngineJitter is the no-ties regime: arrivals spread over
// 20 ms of jitter, so entries trickle down the radix buckets and each
// tick sorts a short run.
func BenchmarkEngineJitter(b *testing.B) {
	for _, c := range []struct {
		name    string
		pending int
	}{{"pending=1k", 1_000}, {"pending=100k", 100_000}} {
		b.Run(c.name, func(b *testing.B) { benchEngineQueue(b, c.pending, 20*time.Millisecond, 1) })
	}
}

// BenchmarkNetworkFlood measures a full 1000-node flood broadcast
// through the runtime in trial-loop steady state: one long-lived
// Network and one flood.Shared reused across iterations, exactly as a
// runner worker reuses them across trials. Handler state lives in
// presence-bit dense vectors and each partition cell sends one relay
// DataMsg per hop, so per-iteration allocations are those few messages
// and the single DeliverySet the run records.
func BenchmarkNetworkFlood(b *testing.B) {
	g, err := topology.RandomRegular(1000, 8, testBenchRNG())
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(g, Options{Seed: 1})
	shared := flood.NewShared(g.N())
	payload := []byte{0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Reset(uint64(i + 1))
		shared.Reset()
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
		net.Start()
		payload[0], payload[1] = byte(i), byte(i>>8)
		if _, err := net.Originate(0, payload); err != nil {
			b.Fatal(err)
		}
		net.Run(0)
	}
}

// BenchmarkNetworkFloodCold measures the same broadcast including
// network construction and per-node map-backed handlers — the cost of a
// trial without any cross-trial reuse (the pre-runner E1 inner loop).
func BenchmarkNetworkFloodCold(b *testing.B) {
	g, err := topology.RandomRegular(1000, 8, testBenchRNG())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := NewNetwork(g, Options{Seed: uint64(i + 1)})
		net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
		net.Start()
		if _, err := net.Originate(0, []byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
		net.Run(0)
	}
}

// BenchmarkNetworkFloodShaped is BenchmarkNetworkFlood under a netem
// profile with jitter and loss active — the cost of the shaper's
// decision path (per-link sequence lookup + three splitmix words per
// message) on top of the plain delivery path.
func BenchmarkNetworkFloodShaped(b *testing.B) {
	g, err := topology.RandomRegular(1000, 8, testBenchRNG())
	if err != nil {
		b.Fatal(err)
	}
	profile := netem.Profile{
		Latency: netem.Const(20 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 15 * time.Millisecond},
		Loss:    0.02,
	}
	net := NewNetwork(g, Options{Seed: 1, Netem: &profile})
	shared := flood.NewShared(g.N())
	payload := []byte{0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Reset(uint64(i + 1))
		shared.Reset()
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
		net.Start()
		payload[0], payload[1] = byte(i), byte(i>>8)
		if _, err := net.Originate(0, payload); err != nil {
			b.Fatal(err)
		}
		net.Run(0)
	}
}

// bench100k lazily builds the shared 100k-node overlay for the sharded
// flood benchmarks (one build serves all three shard counts).
var bench100k *topology.Graph

func bench100kGraph(b *testing.B) *topology.Graph {
	b.Helper()
	if bench100k == nil {
		g, err := topology.RandomRegular(100_000, 8, testBenchRNG())
		if err != nil {
			b.Fatal(err)
		}
		bench100k = g
	}
	return bench100k
}

// benchShardedFlood measures a full N=100k flood broadcast with the
// event loop split across k conservatively synchronized shards (k=1 is
// the plain single-loop baseline). The WAN-const latency keeps the run
// shard-eligible with a 50ms lookahead, so windows are deep and barrier
// overhead is amortized; the ratio of the Sharded1 to Sharded4/8 numbers
// is the single-run speedup (on a multi-core host; on one core the
// extra goroutines can only add overhead).
func benchShardedFlood(b *testing.B, k int) {
	g := bench100kGraph(b)
	net := NewNetwork(g, Options{Seed: 1, Latency: ConstLatency(50 * time.Millisecond), Shards: k})
	shared := flood.NewShared(g.N())
	shared.Partition(k)
	payload := []byte{0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Reset(uint64(i + 1))
		shared.Reset()
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
		net.Start()
		payload[0], payload[1] = byte(i), byte(i>>8)
		if _, err := net.Originate(0, payload); err != nil {
			b.Fatal(err)
		}
		net.Run(0)
	}
	b.StopTimer()
	if k > 1 && net.ShardCount() != k {
		b.Fatalf("resolved to %d shards, want %d", net.ShardCount(), k)
	}
}

func BenchmarkShardedFlood1(b *testing.B) { benchShardedFlood(b, 1) }
func BenchmarkShardedFlood4(b *testing.B) { benchShardedFlood(b, 4) }
func BenchmarkShardedFlood8(b *testing.B) { benchShardedFlood(b, 8) }

func testBenchRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }
