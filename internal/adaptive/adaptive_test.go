package adaptive

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// tokenTap records virtual-source token movements.
type tokenTap struct {
	lastHolder proto.NodeID
	passes     int
}

func (t *tokenTap) OnSend(_ time.Duration, _, to proto.NodeID, msg proto.Message) {
	if _, ok := msg.(*TokenMsg); ok {
		t.lastHolder = to
		t.passes++
	}
}

func (*tokenTap) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (*tokenTap) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte)    {}

func adaptiveNetwork(t *testing.T, g *topology.Graph, cfg Config, seed uint64) (*sim.Network, *tokenTap) {
	t.Helper()
	net := sim.NewNetwork(g, sim.Options{Seed: seed, Latency: sim.ConstLatency(time.Millisecond)})
	tap := &tokenTap{lastHolder: proto.NoNode}
	net.AddTap(tap)
	net.SetHandlers(func(proto.NodeID) proto.Handler { return New(cfg) })
	net.Start()
	return net, tap
}

func TestLineBallInvariant(t *testing.T) {
	// On a line with source in the middle and D rounds, the infected set
	// must be a contiguous interval of exactly 2D+1 nodes centred at the
	// final token holder.
	const n, d = 201, 8
	g, err := topology.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	net, tap := adaptiveNetwork(t, g, Config{D: d, RoundInterval: 100 * time.Millisecond}, 5)
	id, err := net.Originate(n/2, []byte("tx"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)

	times := net.Deliveries(id)
	if times.Count() != 2*d+1 {
		t.Fatalf("infected %d nodes, want %d", times.Count(), 2*d+1)
	}
	lo, hi := proto.NodeID(n), proto.NodeID(-1)
	for v := range times.All() {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if int(hi-lo)+1 != times.Count() {
		t.Errorf("infected set not contiguous: [%d,%d] with %d nodes", lo, hi, times.Count())
	}
	center := tap.lastHolder
	if center == proto.NoNode {
		t.Fatal("no token pass observed")
	}
	if center-lo != hi-center {
		t.Errorf("final holder %d not centred in [%d,%d]", center, lo, hi)
	}
	if tap.passes < 1 {
		t.Error("first pass is forced; expected at least one token transfer")
	}
}

func TestTreeBallInvariant(t *testing.T) {
	// On a 3-regular tree the infected set must be exactly the ball of
	// radius D around the final token holder.
	g, err := topology.RegularTree(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	const d = 4
	net, tap := adaptiveNetwork(t, g, Config{D: d, RoundInterval: 100 * time.Millisecond, TreeDegree: 3}, 7)
	id, err := net.Originate(0, []byte("tx"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)

	center := tap.lastHolder
	if center == proto.NoNode {
		t.Fatal("no token pass observed")
	}
	dist := g.BFS(center)
	times := net.Deliveries(id)
	for v := range times.All() {
		if dist[v] > d {
			t.Errorf("node %d infected at distance %d > %d from centre %d", v, dist[v], d, center)
		}
	}
	// Every node within the ball must be infected (unless the ball was
	// clipped by the tree boundary, which depth 8 avoids for D=4 from
	// the root region; verify only nodes whose distance ≤ D).
	missing := 0
	for v := 0; v < g.N(); v++ {
		if dist[v] <= d {
			if _, ok := times.Time(proto.NodeID(v)); !ok {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d nodes inside the radius-%d ball not infected", missing, d)
	}
}

func TestSourceObfuscationUniformOnLine(t *testing.T) {
	// The paper's §V-B claim via [17]: the true origin should be
	// (near-)uniform over the infected set, excluding the centre. On a
	// line, the source offset from the final centre must be uniform over
	// ±1..±D.
	const n, d, trials = 101, 6, 1500
	g, err := topology.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for trial := 0; trial < trials; trial++ {
		net, tap := adaptiveNetwork(t, g, Config{D: d, RoundInterval: 100 * time.Millisecond}, uint64(trial+1))
		src := proto.NodeID(n / 2)
		if _, err := net.Originate(src, []byte{byte(trial), byte(trial >> 8)}); err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		offset := int(src) - int(tap.lastHolder)
		counts[offset]++
	}
	if counts[0] != 0 {
		t.Errorf("source coincided with centre %d times; the first pass forbids that", counts[0])
	}
	// 2d buckets, expected trials/(2d) each. Allow ±45% slack: crude but
	// catches systematic bias (a wrong alpha skews the tails severely).
	want := float64(trials) / float64(2*d)
	for off := -d; off <= d; off++ {
		if off == 0 {
			continue
		}
		got := float64(counts[off])
		if got < want*0.55 || got > want*1.45 {
			t.Errorf("offset %+d: %v trials, want ~%v (counts: %v)", off, got, want, counts)
		}
	}
}

func TestNoDeliveryGuarantee(t *testing.T) {
	// §III-A: adaptive diffusion alone does not deliver to all nodes —
	// the motivation for Phase 3 (experiment E9).
	g, err := topology.RegularTree(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := adaptiveNetwork(t, g, Config{D: 3, RoundInterval: 100 * time.Millisecond, TreeDegree: 3}, 3)
	id, err := net.Originate(0, []byte("tx"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if got := net.Delivered(id); got >= g.N() {
		t.Errorf("adaptive-only delivered to all %d nodes; expected partial coverage", got)
	} else if got == 0 {
		t.Error("nothing delivered")
	}
}

// finishRecorder counts Finisher invocations and boundary leaves.
type finishRecorder struct {
	calls  int
	leaves int
}

func (f *finishRecorder) OnFinal(_ proto.Context, _ proto.MsgID, st *State) {
	f.calls++
	if st.IsLeaf() {
		f.leaves++
	}
}

func TestFinisherRunsAtEveryInfectedNode(t *testing.T) {
	g, err := topology.RegularTree(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	rec := &finishRecorder{}
	net := sim.NewNetwork(g, sim.Options{Seed: 9, Latency: sim.ConstLatency(time.Millisecond)})
	net.SetHandlers(func(proto.NodeID) proto.Handler {
		return New(Config{D: 3, RoundInterval: 100 * time.Millisecond, TreeDegree: 3, Finisher: rec})
	})
	net.Start()
	id, err := net.Originate(0, []byte("tx"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	infected := net.Delivered(id)
	if rec.calls != infected {
		t.Errorf("Finisher ran %d times, want %d (once per infected node)", rec.calls, infected)
	}
	if rec.leaves == 0 {
		t.Error("no boundary leaves saw the final spread")
	}
}

func TestDuplicateBroadcastIsNoOp(t *testing.T) {
	g, err := topology.Line(10)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := adaptiveNetwork(t, g, Config{D: 2, RoundInterval: 50 * time.Millisecond}, 1)
	if _, err := net.Originate(5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	before := net.TotalMessages()
	if _, err := net.Originate(5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if net.TotalMessages() != before {
		t.Error("second Broadcast of same payload generated traffic")
	}
}

func TestIsVirtualSourceLifecycle(t *testing.T) {
	g, err := topology.Line(30)
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(g, sim.Options{Seed: 2, Latency: sim.ConstLatency(time.Millisecond)})
	protocols := make([]*Protocol, g.N())
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		protocols[id] = New(Config{D: 3, RoundInterval: 50 * time.Millisecond})
		return protocols[id]
	})
	net.Start()
	id, err := net.Originate(15, []byte("tx"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	// After the final spread nobody holds the token.
	for i, p := range protocols {
		if p.Engine().IsVirtualSource(id) {
			t.Errorf("node %d still virtual source after completion", i)
		}
	}
	// The source's state records no parent.
	if st := protocols[15].Engine().State(id); st == nil || st.Parent != proto.NoNode {
		t.Error("source state missing or has a parent")
	}
}

// TestSharedEngineMatchesStandalone runs the same seeded diffusion with
// map-backed and dense shared-state engines; the executed event
// sequences must be indistinguishable.
func TestSharedEngineMatchesStandalone(t *testing.T) {
	g, err := topology.RegularTree(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{D: 4, RoundInterval: 50 * time.Millisecond, TreeDegree: 3}
	run := func(factory func(id proto.NodeID) proto.Handler) (int64, int, uint64) {
		net := sim.NewNetwork(g, sim.Options{Seed: 31, Latency: sim.ConstLatency(time.Millisecond)})
		net.SetHandlers(factory)
		net.Start()
		id, err := net.Originate(0, []byte("dense-vs-map"))
		if err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		return net.TotalMessages(), net.Delivered(id), net.Steps()
	}
	mapMsgs, mapCov, mapSteps := run(func(proto.NodeID) proto.Handler { return New(cfg) })
	shared := NewShared(g.N())
	dMsgs, dCov, dSteps := run(func(id proto.NodeID) proto.Handler { return NewAt(cfg, shared, id) })
	if mapMsgs != dMsgs || mapCov != dCov || mapSteps != dSteps {
		t.Errorf("dense (%d msgs, %d delivered, %d steps) != standalone (%d, %d, %d)",
			dMsgs, dCov, dSteps, mapMsgs, mapCov, mapSteps)
	}
}

// TestSharedReuseAcrossTrials reuses one Shared, split into two
// partition cells, over sequential diffusion trials with the same
// payload: recycled State vectors must start empty each trial or the
// second run would prune immediately. Each cell sends one InfectMsg per
// (message, TTL, round) and one FinalMsg per (message, round), however
// many of its nodes send that key — the ball around node 10 stays in
// the first cell, so both its ends send each round's Infect from there;
// Reset forgets them, so no trial sends a message an earlier trial sent.
func TestSharedReuseAcrossTrials(t *testing.T) {
	g, err := topology.Line(41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{D: 3, RoundInterval: 50 * time.Millisecond, TreeDegree: 2}
	shared := NewShared(g.N())
	shared.Partition(2)
	var firstMsgs int64
	sentBefore := map[proto.Message]int{}
	for trial := 0; trial < 3; trial++ {
		shared.Reset()
		for c := range shared.parts {
			if p := &shared.parts[c]; len(p.infects) != 0 || len(p.finals) != 0 {
				t.Fatalf("trial %d cell %d: Reset left %d Infects and %d Finals", trial, c, len(p.infects), len(p.finals))
			}
		}
		net := sim.NewNetwork(g, sim.Options{Seed: 9, Latency: sim.ConstLatency(time.Millisecond)})
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return NewAt(cfg, shared, id) })
		sent := &relayTap{n: g.N(), k: len(shared.parts)}
		net.AddTap(sent)
		net.Start()
		id, err := net.Originate(10, []byte("again"))
		if err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		if net.Delivered(id) < BallSize(2, 3) {
			t.Fatalf("trial %d: delivered %d < ball size %d", trial, net.Delivered(id), BallSize(2, 3))
		}
		if trial == 0 {
			firstMsgs = net.TotalMessages()
		} else if net.TotalMessages() != firstMsgs {
			// Same seed, same topology, same payload: replays must match.
			t.Fatalf("trial %d: %d messages, want %d", trial, net.TotalMessages(), firstMsgs)
		}
		var finals, reused int
		for k, msgs := range sent.byKey {
			if len(msgs) != 1 {
				t.Errorf("trial %d: %d distinct messages for %+v, want 1", trial, len(msgs), k)
			}
			if k.kind == TypeFinal {
				finals++
			}
			for m, sends := range msgs {
				if sends > 1 {
					reused++
				}
				if was, ok := sentBefore[m]; ok {
					t.Fatalf("trial %d resent a message of trial %d", trial, was)
				}
				sentBefore[m] = trial
			}
		}
		if finals == 0 || reused == 0 {
			t.Fatalf("trial %d: %d Final keys, %d messages sent more than once; the test shares nothing", trial, finals, reused)
		}
	}
	pool := shared.parts[0].pool
	if pool.Free() != 0 || pool.Issued() == 0 {
		t.Fatalf("pool state off: %d free, %d issued before final reset",
			pool.Free(), pool.Issued())
	}
	shared.Reset()
	if pool.Free() == 0 {
		t.Fatal("Reset reclaimed no States")
	}
}

// relayTap counts the sends of each InfectMsg and FinalMsg by the
// sender's partition cell (of k over n nodes) and the fields the message
// is shared by.
type relayTap struct {
	n, k  int
	byKey map[relayCellKey]map[proto.Message]int
}

type relayCellKey struct {
	cell       int
	kind       proto.MsgType
	id         proto.MsgID
	ttl, round uint16
}

func (r *relayTap) OnSend(_ time.Duration, from, _ proto.NodeID, msg proto.Message) {
	var k relayCellKey
	switch m := msg.(type) {
	case *InfectMsg:
		k = relayCellKey{kind: TypeInfect, id: m.ID, ttl: m.TTL, round: m.Round}
	case *FinalMsg:
		k = relayCellKey{kind: TypeFinal, id: m.ID, round: m.Round}
	default:
		return
	}
	k.cell = topology.ShardOf(from, r.n, r.k)
	if r.byKey == nil {
		r.byKey = map[relayCellKey]map[proto.Message]int{}
	}
	if r.byKey[k] == nil {
		r.byKey[k] = map[proto.Message]int{}
	}
	r.byKey[k][msg]++
}
func (*relayTap) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (*relayTap) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte)    {}

// TestEngineReuseDropsStaleTokenState pins the Shared-generation sync:
// reusing the *same* dense engines across trials after a trial was cut
// off mid-diffusion (live virtual source, as the run-until-coverage
// loops do) must not let the stale vsState swallow the next trial's
// token for the repeated payload.
func TestEngineReuseDropsStaleTokenState(t *testing.T) {
	g, err := topology.Line(60)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{D: 8, RoundInterval: 50 * time.Millisecond, TreeDegree: 2}
	shared := NewShared(g.N())
	net := sim.NewNetwork(g, sim.Options{Seed: 5, Latency: sim.ConstLatency(time.Millisecond)})
	handlers := make([]proto.Handler, g.N())
	for i := range handlers {
		handlers[i] = NewAt(cfg, shared, proto.NodeID(i))
	}
	payload := []byte("truncated")

	// Same seed every trial so the virtual-source walk replays exactly:
	// the truncated middle trial strands a vsState at the node the final
	// trial's token must pass through.
	run := func(until time.Duration) int {
		net.Reset(5)
		shared.Reset()
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return handlers[id] })
		net.Start()
		id, err := net.Originate(30, payload)
		if err != nil {
			t.Fatal(err)
		}
		net.RunUntil(until)
		return net.Delivered(id)
	}

	full := run(time.Minute) // reference: complete diffusion
	if full < BallSize(2, cfg.D) {
		t.Fatalf("reference run delivered %d, want ≥ %d", full, BallSize(2, cfg.D))
	}
	truncated := run(120 * time.Millisecond) // leaves a live virtual source
	if truncated >= full {
		t.Fatalf("truncation did not truncate: %d >= %d", truncated, full)
	}
	if again := run(time.Minute); again != full {
		t.Fatalf("rerun after truncated trial delivered %d, want %d (stale token state leaked across Reset)",
			again, full)
	}
}

// TestNewAtAllocatesNothing holds mounting to the Shared's slab:
// installing adaptive handlers on a 1,000-node network allocates nothing
// per node.
func TestNewAtAllocatesNothing(t *testing.T) {
	const n = 1000
	shared := NewShared(n)
	net := sim.NewNetwork(topology.NewGraph(n), sim.Options{})
	factory := func(id proto.NodeID) proto.Handler { return NewAt(Config{}, shared, id) }
	if allocs := testing.AllocsPerRun(10, func() { net.SetHandlers(factory) }); allocs != 0 {
		t.Errorf("SetHandlers(NewAt) over %d nodes allocates %.0f times, want 0", n, allocs)
	}
}
