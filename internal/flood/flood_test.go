package flood

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

func floodNetwork(t *testing.T, g *topology.Graph, seed uint64) *sim.Network {
	t.Helper()
	net := sim.NewNetwork(g, sim.Options{Seed: seed})
	net.SetHandlers(func(proto.NodeID) proto.Handler { return New() })
	net.Start()
	return net
}

func TestFloodReachesAllNodes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g, err := topology.RandomRegular(100, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := floodNetwork(t, g, 1)
	id, err := net.Originate(0, []byte("tx"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if got := net.Delivered(id); got != 100 {
		t.Errorf("Delivered = %d, want 100", got)
	}
}

func TestFloodMessageCountMatchesFormula(t *testing.T) {
	// Flood-and-prune on any connected graph sends exactly
	// 2E − (N − 1) messages: the origin sends deg(origin), every other
	// node sends deg(v) − 1. This is the paper's 7,000-message baseline
	// at N=1000, d=8.
	rng := rand.New(rand.NewPCG(42, 43))
	for _, tc := range []struct{ n, d int }{{50, 4}, {200, 6}, {100, 8}} {
		g, err := topology.RandomRegular(tc.n, tc.d, rng)
		if err != nil {
			t.Fatal(err)
		}
		net := floodNetwork(t, g, 9)
		if _, err := net.Originate(proto.NodeID(tc.n/2), []byte("tx")); err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		want := int64(2*g.M() - (tc.n - 1))
		if got := net.TotalMessages(); got != want {
			t.Errorf("n=%d d=%d: messages = %d, want %d", tc.n, tc.d, got, want)
		}
	}
}

func TestFloodDeliversPayloadIntact(t *testing.T) {
	g, err := topology.Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(g, sim.Options{Seed: 3})
	var delivered [][]byte
	net.SetHandlers(func(proto.NodeID) proto.Handler { return New() })
	net.AddTap(tapFunc(func(node proto.NodeID, id proto.MsgID, payload []byte) {
		delivered = append(delivered, payload)
	}))
	net.Start()
	payload := []byte("the payload")
	if _, err := net.Originate(4, payload); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if len(delivered) != 10 {
		t.Fatalf("delivered %d times, want 10", len(delivered))
	}
	for _, p := range delivered {
		if !bytes.Equal(p, payload) {
			t.Errorf("payload corrupted: %q", p)
		}
	}
}

// tapFunc adapts a function to sim.Tap for delivery observations.
type tapFunc func(node proto.NodeID, id proto.MsgID, payload []byte)

func (tapFunc) OnSend(time.Duration, proto.NodeID, proto.NodeID, proto.Message)    {}
func (tapFunc) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}

func (f tapFunc) OnDeliverLocal(_ time.Duration, node proto.NodeID, id proto.MsgID, payload []byte) {
	f(node, id, payload)
}

func TestBroadcastTwiceIsNoOp(t *testing.T) {
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	net := floodNetwork(t, g, 4)
	id1, err := net.Originate(0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	before := net.TotalMessages()
	id2, err := net.Originate(0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if id1 != id2 {
		t.Error("same payload produced different IDs")
	}
	if net.TotalMessages() != before {
		t.Error("re-broadcast generated traffic")
	}
}

func TestEngineMarkSeenPrunes(t *testing.T) {
	e := NewEngine()
	id := proto.NewMsgID([]byte("a"))
	if !e.MarkSeen(id) {
		t.Error("first MarkSeen = false")
	}
	if e.MarkSeen(id) {
		t.Error("second MarkSeen = true")
	}
	if !e.Seen(id) {
		t.Error("Seen = false after MarkSeen")
	}
}

func TestFloodOnLineHopCount(t *testing.T) {
	g, err := topology.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	net := floodNetwork(t, g, 5)
	id, err := net.Originate(0, []byte("hop"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if net.Delivered(id) != 6 {
		t.Errorf("Delivered = %d, want 6", net.Delivered(id))
	}
	// Exactly N−1 = 5 messages on a line from an endpoint.
	if net.TotalMessages() != 5 {
		t.Errorf("messages = %d, want 5", net.TotalMessages())
	}
}

// TestSharedEngineMatchesStandalone floods the same seeded network with
// map-backed and dense shared-state engines and requires identical
// message counts and coverage — the two representations must be
// behaviorally indistinguishable.
func TestSharedEngineMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	g, err := topology.RandomRegular(150, 6, rng)
	if err != nil {
		t.Fatal(err)
	}

	run := func(factory func(id proto.NodeID) proto.Handler) (int64, int) {
		net := sim.NewNetwork(g, sim.Options{Seed: 77})
		net.SetHandlers(factory)
		net.Start()
		id, err := net.Originate(3, []byte("compare"))
		if err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		return net.TotalMessages(), net.Delivered(id)
	}

	mapMsgs, mapCov := run(func(proto.NodeID) proto.Handler { return New() })
	shared := NewShared(g.N())
	denseMsgs, denseCov := run(func(id proto.NodeID) proto.Handler { return NewAt(shared, id) })
	if mapMsgs != denseMsgs || mapCov != denseCov {
		t.Errorf("dense (%d msgs, %d delivered) != standalone (%d msgs, %d delivered)",
			denseMsgs, denseCov, mapMsgs, mapCov)
	}
}

// TestSharedReuseAcrossTrials reuses one Shared over several sequential
// networks: every trial must behave like the first (stale marks from the
// previous trial must miss), Reset must empty the relay set, and no
// relay message is ever recycled — each trial sends only messages no
// earlier trial sent, all of which the test keeps reachable.
func TestSharedReuseAcrossTrials(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	g, err := topology.RandomRegular(80, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewShared(g.N())
	relay := shared.parts[0].engine.drelay
	want := int64(2*g.M() - (g.N() - 1))
	sentBefore := map[*DataMsg]int{}
	for trial := 0; trial < 4; trial++ {
		shared.Reset()
		if len(relay.byKey) != 0 || relay.last != nil {
			t.Fatalf("trial %d: Reset left %d relay messages", trial, len(relay.byKey))
		}
		net := sim.NewNetwork(g, sim.Options{Seed: uint64(trial + 1)})
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return NewAt(shared, id) })
		sent := &relayTap{}
		net.AddTap(sent)
		net.Start()
		// Same payload every trial: the MsgID repeats, so trial 2+ only
		// completes if the re-bound vector forgot trial 1's marks.
		id, err := net.Originate(proto.NodeID(trial), []byte("reuse"))
		if err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		if got := net.Delivered(id); got != g.N() {
			t.Fatalf("trial %d: delivered %d, want %d", trial, got, g.N())
		}
		if got := net.TotalMessages(); got != want {
			t.Fatalf("trial %d: messages %d, want %d", trial, got, want)
		}
		if len(relay.byKey) == 0 {
			t.Fatalf("trial %d: no relay messages in the set", trial)
		}
		for m := range sent.cells {
			if was, ok := sentBefore[m]; ok {
				t.Fatalf("trial %d resent a relay message of trial %d", trial, was)
			}
			sentBefore[m] = trial
		}
	}
}

// relayTap records, for each DataMsg sent, the first sender's node, and
// with dist set counts the sends whose Hops is not the sender's distance
// from the origin plus one — what a constant-latency flood must send.
type relayTap struct {
	cells   map[*DataMsg]proto.NodeID
	hops    int
	dist    []int
	badHops int
}

func (r *relayTap) OnSend(_ time.Duration, from, _ proto.NodeID, msg proto.Message) {
	m := msg.(*DataMsg)
	if r.cells == nil {
		r.cells = map[*DataMsg]proto.NodeID{}
	}
	if _, ok := r.cells[m]; !ok {
		r.cells[m] = from
	}
	r.hops = max(r.hops, int(m.Hops))
	if r.dist != nil && int(m.Hops) != r.dist[from]+1 {
		r.badHops++
	}
}
func (*relayTap) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (*relayTap) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte)    {}

// TestRelaySharedPerHop holds dense mode to one relay message per
// (message, hop) of each partition cell: every node of a cell relaying
// at one hop sends the same DataMsg, so a flood sends at most max hops
// + 1 distinct messages per cell, each sender's carries its own hop
// count, and the flood itself is unchanged — every node delivers and the
// count is still 2E − (N − 1).
func TestRelaySharedPerHop(t *testing.T) {
	const n = 4096
	g, err := topology.RandomRegular(n, 8, rand.New(rand.NewPCG(31, 32)))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2*g.M() - (n - 1))
	for _, k := range []int{1, 2} {
		net := sim.NewNetwork(g, sim.Options{Seed: 5, Shards: k})
		shared := NewShared(n)
		shared.Partition(net.ShardCount())
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return NewAt(shared, id) })
		sent := &relayTap{dist: g.BFS(7)}
		net.AddTap(sent)
		net.Start()
		id, err := net.Originate(7, []byte("share"))
		if err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		if got := net.Delivered(id); got != n {
			t.Errorf("k=%d: delivered %d, want %d", k, got, n)
		}
		if got := net.TotalMessages(); got != want {
			t.Errorf("k=%d: messages %d, want %d", k, got, want)
		}
		if sent.badHops != 0 {
			t.Errorf("k=%d: %d sends carry a hop count other than the sender's distance + 1", k, sent.badHops)
		}
		perCell := make([]map[uint16]int, net.ShardCount())
		for m, from := range sent.cells {
			c := topology.ShardOf(from, n, net.ShardCount())
			if perCell[c] == nil {
				perCell[c] = map[uint16]int{}
			}
			perCell[c][m.Hops]++
		}
		for c, byHops := range perCell {
			distinct := 0
			for hops, msgs := range byHops {
				distinct += msgs
				if msgs != 1 {
					t.Errorf("k=%d cell %d: %d distinct messages at hop %d, want 1", k, c, msgs, hops)
				}
			}
			if distinct > sent.hops+1 {
				t.Errorf("k=%d cell %d: %d distinct relay messages, want at most %d (max hops + 1)", k, c, distinct, sent.hops+1)
			}
		}
	}
}

// TestWarmTrialAllocs holds a warm dense trial to a fixed number of
// allocations plus one relay message per (message, hop) of each cell:
// going from N = 1k to 16k adds only the deeper flood's extra hops, and
// nothing per node. (Nothing is recycled, so each trial mints its relay
// messages afresh; the sharded network's own per-window cost is
// TestQueueWarmFloodAllocs' concern.)
func TestWarmTrialAllocs(t *testing.T) {
	var allocs, relays [2]float64
	for i, n := range []int{1 << 10, 1 << 14} {
		g, err := topology.RandomRegular(n, 8, rand.New(rand.NewPCG(5, 6)))
		if err != nil {
			t.Fatal(err)
		}
		net := sim.NewNetwork(g, sim.Options{Seed: 1})
		shared := NewShared(n)
		payload := []byte("warm")
		trial := func() {
			net.Reset(1)
			shared.Reset()
			net.SetHandlers(func(id proto.NodeID) proto.Handler { return NewAt(shared, id) })
			net.Start()
			if _, err := net.Originate(0, payload); err != nil {
				t.Fatal(err)
			}
			net.Run(0)
		}
		trial()
		trial()
		allocs[i] = testing.AllocsPerRun(5, trial)
		relays[i] = float64(len(shared.parts[0].engine.drelay.byKey))
	}
	t.Logf("allocs per warm trial: N=1k %.0f (%.0f relay messages), N=16k %.0f (%.0f)", allocs[0], relays[0], allocs[1], relays[1])
	if base := allocs[0] - relays[0]; base > 4 || allocs[1]-relays[1] > base {
		t.Errorf("warm trial allocates %.0f at N=1k and %.0f at N=16k beyond its %.0f and %.0f relay messages; want a small count that does not grow with N",
			allocs[0]-relays[0], allocs[1]-relays[1], relays[0], relays[1])
	}
}

// TestNewAtIsOneHandlerPerCell pins what "dense handlers hold no per-node
// state" means: NewAt returns the same Protocol for every node of a
// partition cell and a different one, over a table covering exactly the
// cell's range, for the next cell — so installing a network's handlers
// allocates nothing.
func TestNewAtIsOneHandlerPerCell(t *testing.T) {
	const n, k = 4096, 4
	shared := NewShared(n)
	shared.Partition(k)
	bounds := topology.ShardBounds(n, k)
	for cell := 0; cell < k; cell++ {
		lo, hi := proto.NodeID(bounds[cell]), proto.NodeID(bounds[cell+1])
		h := NewAt(shared, lo)
		if NewAt(shared, hi-1) != h {
			t.Errorf("cell %d: nodes %d and %d got different handlers", cell, lo, hi-1)
		}
		if cell > 0 && NewAt(shared, lo-1) == h {
			t.Errorf("cells %d and %d share a handler", cell-1, cell)
		}
		if tab := h.engine.dseen; tab.Lo() != int(lo) || tab.N() != int(hi-lo) {
			t.Errorf("cell %d: table covers [%d,%d), want [%d,%d)", cell, tab.Lo(), tab.Lo()+tab.N(), lo, hi)
		}
	}

	net := sim.NewNetwork(topology.NewGraph(n), sim.Options{})
	factory := func(id proto.NodeID) proto.Handler { return NewAt(shared, id) }
	if allocs := testing.AllocsPerRun(10, func() { net.SetHandlers(factory) }); allocs != 0 {
		t.Errorf("SetHandlers(NewAt) over %d nodes allocates %.0f times, want 0", n, allocs)
	}
}

func TestNewSharedRejectsEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "flood: NewShared") {
					t.Errorf("NewShared(%d) panicked with %q, want flood's own message", n, msg)
				}
			}()
			NewShared(n)
		}()
	}
}
