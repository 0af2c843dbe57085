package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
)

// sinkHandler takes every message and sends nothing.
type sinkHandler struct{}

func (sinkHandler) Init(proto.Context)                                       {}
func (sinkHandler) HandleMessage(proto.Context, proto.NodeID, proto.Message) {}
func (sinkHandler) HandleTimer(proto.Context, any)                           {}

// engineChunks counts the queue chunks an engine holds: its spares, the
// chunk its run lives in, and every page slot's and bucket's list.
func engineChunks(e *Engine) int {
	count := func(c *chunk) (n int) {
		for ; c != nil; c = c.next {
			n++
		}
		return n
	}
	n := count(e.freeChunks)
	if e.runHeld != nil {
		n++
	}
	for i := range e.page {
		n += count(e.page[i].top)
	}
	for i := range e.buckets {
		n += count(e.buckets[i].top)
	}
	return n
}

// TestHandoffChunkConservation floods from shard 0 where only shard 0's
// nodes relay, so every handoff goes from shard 0 to the others and none
// comes back. Each handed-over chunk must still come home to the engine
// that filled it: over 20 reset runs of the same flood, every engine's
// chunk count after a run stays where the first run left it. A chunk
// kept by its receiver would grow the receiver's count by one handoff's
// worth per run and leave the sender to allocate new ones. The flood
// runs whole, or in RunUntil steps between its waves, so that every
// step ends with arrivals handed over past its deadline; after each run
// a second broadcast is originated and never run, so the next Reset
// finds deliveries parked in the outboxes.
func TestHandoffChunkConservation(t *testing.T) {
	const n = 1200
	g, err := topology.RandomRegular(n, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	drives := []struct {
		name string
		run  func(*Network)
	}{
		{"run", func(net *Network) { net.Run(0) }},
		{"steps", func(net *Network) {
			for at := 25 * time.Millisecond; at < time.Second; at += 50 * time.Millisecond {
				net.RunUntil(at)
			}
			net.Run(0)
		}},
	}
	for _, d := range drives {
		for _, k := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/k=%d", d.name, k), func(t *testing.T) { conserveChunks(t, g, k, d.run) })
		}
	}
}

// conserveChunks runs the asymmetric flood of TestHandoffChunkConservation
// 20 times on one network of k shards, driven by drive.
func conserveChunks(t *testing.T, g *topology.Graph, k int, drive func(*Network)) {
	n := g.N()
	net := NewNetwork(g, Options{Seed: 7, Latency: ConstLatency(50 * time.Millisecond), Shards: k})
	if got := net.ShardCount(); got != k {
		t.Fatalf("resolved %d shards", got)
	}
	relays := topology.ShardBounds(n, k)[1]
	shared := flood.NewShared(n)
	shared.Partition(k)
	var first []int
	for run := range 20 {
		net.Reset(7)
		shared.Reset()
		net.SetHandlers(func(id proto.NodeID) proto.Handler {
			if int32(id) < relays {
				return flood.NewAt(shared, id)
			}
			return sinkHandler{}
		})
		net.Start()
		if _, err := net.Originate(1, []byte("asymmetric")); err != nil {
			t.Fatal(err)
		}
		drive(net)
		var counts []int
		var handoffs []uint64
		for _, st := range net.ShardStats() {
			handoffs = append(handoffs, st.Handoffs)
		}
		for _, sh := range net.shards {
			counts = append(counts, engineChunks(sh.eng))
		}
		if _, err := net.Originate(1, []byte("abandoned")); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			if handoffs[0] < 10*chunkLen || slices.Max(handoffs[1:]) != 0 {
				t.Fatalf("handoffs per shard %v: want thousands from shard 0 and none back", handoffs)
			}
			first = counts
			continue
		}
		if !slices.Equal(counts, first) {
			t.Fatalf("run %d: chunks per engine %v, first run %v", run, counts, first)
		}
	}
}

// TestShardedSteppedRunUntil holds a run cut into RunUntil steps to one
// Run, at k = 2, 3 and 4 under jitter, and both to the single loop: the
// deadlines cut through waves, so every step ends with arrivals handed
// over past its deadline, which must sit in their engines before the
// next step starts.
func TestShardedSteppedRunUntil(t *testing.T) {
	g := shardTestGraph(t)
	jitter := netem.Profile{Latency: netem.Const(20 * time.Millisecond), Jitter: netem.Uniform{Hi: 15 * time.Millisecond}}
	// A flood over 203 nodes settles well inside a second.
	const end = time.Second
	drives := []struct {
		name string
		run  func(*Network)
	}{
		{"run", func(net *Network) { net.Run(0) }},
		{"steps", func(net *Network) {
			for at := 7 * time.Millisecond; at <= end; at += 7 * time.Millisecond {
				net.RunUntil(at)
			}
		}},
		{"cut-then-run", func(net *Network) {
			net.RunUntil(47 * time.Millisecond)
			net.Run(0)
		}},
	}
	var base runFingerprint
	for _, k := range []int{1, 2, 3, 4} {
		for _, d := range drives {
			fp, got := shardFingerprint(t, g, Options{Seed: 42, Netem: &jitter, Shards: k}, false, nil, d.run)
			if got != k {
				t.Fatalf("requested %d shards, resolved %d", k, got)
			}
			if k == 1 && d.name == "run" {
				if fp.delivered != g.N() {
					t.Fatalf("baseline covers %d of %d nodes", fp.delivered, g.N())
				}
				base = fp
				continue
			}
			compareFingerprints(t, fmt.Sprintf("k=%d/%s", k, d.name), base, fp)
		}
	}
}

// TestHandoffWarmAllocs: once a 2-shard network has flooded, a Reset and
// the same flood again allocate nothing in the handoff — every outbox
// chunk comes from, and goes back to, the sending engine's free list,
// and the drain pushes into a queue already grown to the flood's peak.
// Counted, as engineRunAllocs counts, from a memory profile: only the
// allocations whose stack passes through the outbox append in
// Network.send or through the drain. The cold flood must show some, or
// the count would pass by matching nothing.
func TestHandoffWarmAllocs(t *testing.T) {
	f := newQueueFlood(t, 4000, Options{Latency: ConstLatency(50 * time.Millisecond), Shards: 2})
	flood := func() {
		f.start(t, 1)
		f.net.Run(0)
	}
	if cold := profiledAllocs(flood, inHandoff); cold == 0 {
		t.Fatal("the cold flood allocates nothing in the handoff; the count matches nothing")
	}
	flood()
	if got := profiledAllocs(flood, inHandoff); got != 0 {
		t.Errorf("a warm flood allocates %d times in the handoff, want 0", got)
	}
	if h := f.net.ShardStats()[0].Handoffs; h < 10*chunkLen {
		t.Fatalf("only %d handoffs from shard 0", h)
	}
}

// inHandoff reports whether a stack, innermost frame first, is the
// outbox append — a chunk taken by bucketPush called from Network.send
// itself — or passes through a shard's drain.
func inHandoff(stack []string) bool {
	for i, f := range stack {
		switch f {
		case "repro/internal/sim.(*shardState).drainInboxes":
			return true
		case "repro/internal/sim.(*Engine).bucketPush":
			if i+1 < len(stack) && stack[i+1] == "repro/internal/sim.(*Network).send" {
				return true
			}
		}
	}
	return false
}

// TestLinkStreamMatchesOracle holds the 16-byte per-link sequence cell
// and its shard's spill table to a map from (link, type) to the next
// sequence, over random streams of up to six types per link, across
// shard resets that rewind the table.
func TestLinkStreamMatchesOracle(t *testing.T) {
	if got := unsafe.Sizeof(linkStream{}); got != 16 {
		t.Fatalf("linkStream is %d bytes, want 16", got)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	sh := &shardState{eng: NewEngine()}
	links := make([]linkStream, 40)
	types := []proto.MsgType{0x0100, 0x0101, 0x0200, 0x0300, 0x0301, 0x7f10}
	type key struct {
		link int
		tp   proto.MsgType
	}
	oracle := map[key]uint64{}
	for round := range 6 {
		// Later rounds draw from fewer links and more types, so chains
		// grow long; the first keeps most links on one type.
		width := 1 + round
		for op := range 4000 {
			l := rng.IntN(len(links) >> (round % 3))
			tp := types[rng.IntN(min(width, len(types)))]
			k := key{l, tp}
			if got, want := sh.nextSeq(&links[l], tp), oracle[k]; got != want {
				t.Fatalf("round %d op %d: link %d type %#x: seq %d, want %d", round, op, l, tp, got, want)
			}
			oracle[k]++
		}
		spilled := 0
		for k := range oracle {
			if links[k.link].tp0 != k.tp {
				spilled++
			}
		}
		if len(sh.spill) != spilled {
			t.Fatalf("round %d: spill table holds %d counters, %d links' types past their first", round, len(sh.spill), spilled)
		}
		clear(links)
		sh.reset()
		clear(oracle)
		if len(sh.spill) != 0 {
			t.Fatalf("reset left %d spilled counters", len(sh.spill))
		}
	}
}
