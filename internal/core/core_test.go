package core

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"
	"unsafe"

	"repro/internal/adaptive"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// world is a full network running the composed protocol with one group.
type world struct {
	net    *sim.Network
	protos []*Protocol
	group  []proto.NodeID
}

func newWorld(t *testing.T, g *topology.Graph, group []proto.NodeID, seed uint64, mutate func(*Config)) *world {
	t.Helper()
	hashes := SimHashes(g.N())
	w := &world{
		net:    sim.NewNetwork(g, sim.Options{Seed: seed, Latency: sim.ConstLatency(2 * time.Millisecond)}),
		protos: make([]*Protocol, g.N()),
		group:  group,
	}
	w.net.SetHandlers(func(id proto.NodeID) proto.Handler {
		cfg := testConfig(group, hashes)
		if mutate != nil {
			mutate(&cfg)
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%d): %v", id, err)
		}
		w.protos[id] = p
		return p
	})
	w.net.Start()
	return w
}

func (w *world) run(d time.Duration) { w.net.RunUntil(w.net.Now() + d) }

// testConfig is the composed configuration the tests run: fixed 128-byte
// Phase-1 slots every 100 ms, three 50 ms diffusion rounds.
func testConfig(group []proto.NodeID, hashes map[proto.NodeID][32]byte) Config {
	return Config{
		Group:  group,
		Hashes: hashes,
		DCNet: dcnet.Config{
			Mode: dcnet.ModeFixed, SlotSize: 128,
			Interval: 100 * time.Millisecond, Policy: dcnet.PolicyNone,
		},
		Adaptive: adaptive.Config{D: 3, RoundInterval: 50 * time.Millisecond},
	}
}

func testGraph(t *testing.T, n, d int, seed uint64) *topology.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed*7+1))
	g, err := topology.RandomRegular(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// phaseTap records the first virtual time each message family was seen.
type phaseTap struct {
	firstDC, firstAD, firstFlood time.Duration
}

func (p *phaseTap) OnSend(at time.Duration, _, _ proto.NodeID, msg proto.Message) {
	mark := func(t *time.Duration) {
		if *t == 0 {
			*t = at
		}
	}
	switch msg.Type() & 0xff00 {
	case proto.RangeDCNet:
		mark(&p.firstDC)
	case proto.RangeAdaptive:
		mark(&p.firstAD)
	case proto.RangeFlood:
		mark(&p.firstFlood)
	}
}
func (*phaseTap) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (*phaseTap) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte)    {}

func TestEndToEndDelivery(t *testing.T) {
	g := testGraph(t, 100, 8, 1)
	group := []proto.NodeID{3, 17, 42, 77, 99}
	w := newWorld(t, g, group, 10, nil)

	tap := &phaseTap{}
	// Taps must be added before Start; rebuild with tap installed.
	w = newWorldWithTap(t, g, group, 10, tap)

	payload := []byte("the anonymous transaction")
	id, err := w.net.Originate(17, payload)
	if err != nil {
		t.Fatal(err)
	}
	w.run(20 * time.Second)

	if got := w.net.Delivered(id); got != 100 {
		t.Fatalf("delivered to %d/100 nodes", got)
	}
	// All three phases produced traffic, in order (Fig. 5's shape).
	if tap.firstDC == 0 || tap.firstAD == 0 || tap.firstFlood == 0 {
		t.Fatalf("missing phase traffic: dc=%v ad=%v flood=%v", tap.firstDC, tap.firstAD, tap.firstFlood)
	}
	if !(tap.firstDC < tap.firstAD && tap.firstAD < tap.firstFlood) {
		t.Errorf("phases out of order: dc=%v ad=%v flood=%v", tap.firstDC, tap.firstAD, tap.firstFlood)
	}
}

func newWorldWithTap(t *testing.T, g *topology.Graph, group []proto.NodeID, seed uint64, tap sim.Tap) *world {
	t.Helper()
	hashes := SimHashes(g.N())
	w := &world{
		net:    sim.NewNetwork(g, sim.Options{Seed: seed, Latency: sim.ConstLatency(2 * time.Millisecond)}),
		protos: make([]*Protocol, g.N()),
		group:  group,
	}
	w.net.AddTap(tap)
	w.net.SetHandlers(func(id proto.NodeID) proto.Handler {
		cfg := testConfig(group, hashes)
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%d): %v", id, err)
		}
		w.protos[id] = p
		return p
	})
	w.net.Start()
	return w
}

func TestVirtualSourceAgreementAndVerifiability(t *testing.T) {
	g := testGraph(t, 50, 6, 2)
	group := []proto.NodeID{1, 5, 9, 13, 21}
	w := newWorld(t, g, group, 3, nil)
	payload := []byte("some tx")
	want := w.protos[1].virtualSource(payload)
	for _, m := range group {
		if got := w.protos[m].virtualSource(payload); got != want {
			t.Errorf("member %d derives vs0=%d, member 1 derives %d", m, got, want)
		}
	}
	// The winner must be a group member.
	found := false
	for _, m := range group {
		if m == want {
			found = true
		}
	}
	if !found {
		t.Errorf("vs0 %d not in group", want)
	}
}

func TestDeliveryAcrossSeedsAndTopologies(t *testing.T) {
	// The composed protocol must reach every node on every connected
	// topology — the paper's delivery guarantee via Phase 3.
	type tc struct {
		name string
		g    *topology.Graph
	}
	ring, err := topology.Ring(60)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := topology.WattsStrogatz(80, 6, 0.2, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if !ws.Connected() {
		t.Skip("WS instance disconnected; rerun with different seed")
	}
	cases := []tc{
		{"regular", testGraph(t, 80, 6, 3)},
		{"ring", ring},
		{"smallworld", ws},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				group := []proto.NodeID{0, 7, 14, 21, 28}
				w := newWorld(t, c.g, group, seed, nil)
				id, err := w.net.Originate(7, []byte{byte(seed), 0xab})
				if err != nil {
					t.Fatal(err)
				}
				w.run(30 * time.Second)
				if got := w.net.Delivered(id); got != c.g.N() {
					t.Errorf("seed %d: delivered %d/%d", seed, got, c.g.N())
				}
			}
		})
	}
}

func TestGrouplessNodeCannotBroadcast(t *testing.T) {
	g := testGraph(t, 20, 4, 4)
	group := []proto.NodeID{0, 1, 2, 3}
	w := newWorld(t, g, group, 5, nil)
	if _, err := w.net.Originate(10, []byte("x")); !errors.Is(err, ErrNoGroup) {
		t.Errorf("groupless broadcast error = %v, want ErrNoGroup", err)
	}
}

func TestDuplicateBroadcastNoOp(t *testing.T) {
	g := testGraph(t, 30, 4, 6)
	group := []proto.NodeID{2, 4, 6, 8}
	w := newWorld(t, g, group, 7, nil)
	id1, err := w.net.Originate(2, []byte("dup"))
	if err != nil {
		t.Fatal(err)
	}
	w.run(20 * time.Second)
	if got := w.net.Delivered(id1); got != 30 {
		t.Fatalf("delivered %d/30", got)
	}
	id2, err := w.net.Originate(2, []byte("dup"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Error("ids differ")
	}
	// The DC-net keeps running idle rounds, so total traffic grows; what
	// must not happen is a second diffusion or flood for the same id.
	floodMsgs := w.net.MessagesOfType(flood.TypeData)
	adMsgs := w.net.MessagesOfType(adaptive.TypeInfect)
	w.run(10 * time.Second)
	if w.net.MessagesOfType(flood.TypeData) != floodMsgs {
		t.Error("duplicate broadcast re-flooded the network")
	}
	if w.net.MessagesOfType(adaptive.TypeInfect) != adMsgs {
		t.Error("duplicate broadcast re-infected the network")
	}
}

func TestNonVSGroupMembersStaySilent(t *testing.T) {
	// Group members other than the initial virtual source must not
	// spread the payload before the flood reaches them — spreading would
	// reveal the group (§IV-B). We check that no adaptive Infect message
	// originates from a group member other than vs0.
	g := testGraph(t, 60, 6, 8)
	group := []proto.NodeID{10, 20, 30, 40, 50}
	hashes := SimHashes(g.N())

	// Determine vs0 for the payload using any member's logic.
	payload := []byte("silent-members")
	cfgProbe, err := New(Config{Group: group, Hashes: hashes})
	if err != nil {
		t.Fatal(err)
	}
	vs0 := cfgProbe.virtualSource(payload)

	infectSenders := make(map[proto.NodeID]bool)
	tap := sendTapFunc(func(_ time.Duration, from, _ proto.NodeID, msg proto.Message) {
		if _, ok := msg.(*adaptive.InfectMsg); ok {
			infectSenders[from] = true
		}
	})
	firstInfector := proto.NoNode
	tapFirst := sendTapFunc(func(_ time.Duration, from, _ proto.NodeID, msg proto.Message) {
		if _, ok := msg.(*adaptive.InfectMsg); ok && firstInfector == proto.NoNode {
			firstInfector = from
		}
	})
	w := newWorldWithTap(t, g, group, 9, multiTap{tap, tapFirst})
	if _, err := w.net.Originate(20, payload); err != nil {
		t.Fatal(err)
	}
	w.run(20 * time.Second)

	if !infectSenders[vs0] {
		t.Errorf("vs0 %d never sent an Infect message", vs0)
	}
	if firstInfector != vs0 {
		t.Errorf("first Infect came from %d, want vs0 %d — a group member leaked early", firstInfector, vs0)
	}
}

// multiTap fans observations out to several taps.
type multiTap []sim.Tap

func (m multiTap) OnSend(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	for _, t := range m {
		t.OnSend(at, from, to, msg)
	}
}
func (m multiTap) OnReceive(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	for _, t := range m {
		t.OnReceive(at, from, to, msg)
	}
}
func (m multiTap) OnDeliverLocal(at time.Duration, node proto.NodeID, id proto.MsgID, payload []byte) {
	for _, t := range m {
		t.OnDeliverLocal(at, node, id, payload)
	}
}

// sendTapFunc adapts a function to sim.Tap's OnSend.
type sendTapFunc func(at time.Duration, from, to proto.NodeID, msg proto.Message)

func (f sendTapFunc) OnSend(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	f(at, from, to, msg)
}
func (sendTapFunc) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (sendTapFunc) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte)    {}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Group: []proto.NodeID{1, 2}, Hashes: nil}); !errors.Is(err, ErrMissingHash) {
		t.Errorf("missing hashes: %v", err)
	}
	if _, err := New(Config{Adaptive: adaptive.Config{RetransmitTimeout: time.Second}}); err == nil {
		t.Error("Phase-2 reliable channel accepted")
	}
	if _, err := New(Config{DCNet: dcnet.Config{Mode: dcnet.ModeFixed, SlotSize: 1}}); err == nil {
		t.Error("unusable slot size accepted")
	}
	p, err := New(Config{})
	if err != nil {
		t.Fatalf("groupless config rejected: %v", err)
	}
	if p.Member() != nil {
		t.Error("groupless protocol has a member")
	}
}

// TestComposedDefaults pins what a zero Config resolves to: the three
// defaults where the composed stack departs from its phases, then the
// phases' own.
func TestComposedDefaults(t *testing.T) {
	r, err := resolve(Config{})
	if err != nil {
		t.Fatal(err)
	}
	dc, ad := r.DCNet, r.Adaptive
	if dc.Policy != dcnet.PolicyBlame || ad.D != 4 || ad.RoundInterval != 500*time.Millisecond ||
		dc.Mode != dcnet.ModeAnnounce || dc.SlotSize != 256 || dc.Interval != 2*time.Second {
		t.Errorf("zero Config resolved to policy %d, D %d, rounds %v, mode %d, slots %d, interval %v; "+
			"want Blame, 4, 500ms, announce, 256, 2s", dc.Policy, ad.D, ad.RoundInterval, dc.Mode, dc.SlotSize, dc.Interval)
	}
	for _, c := range []struct {
		rto          time.Duration
		budget, want int
	}{{0, 0, 0}, {time.Second, 0, 3}, {time.Second, 1, 1}} {
		r, err := resolve(Config{DCNet: dcnet.Config{RetransmitTimeout: c.rto, RetryBudget: c.budget}})
		if err != nil {
			t.Fatal(err)
		}
		if r.DCNet.RetryBudget != c.want {
			t.Errorf("RTO %v, budget %d resolved to budget %d, want %d", c.rto, c.budget, r.DCNet.RetryBudget, c.want)
		}
	}
}

// TestProtocolLayout keeps the per-node handler small: every node of a
// mounted stack points at its Shared's one resolved Config instead of
// holding a copy.
func TestProtocolLayout(t *testing.T) {
	if size := unsafe.Sizeof(Protocol{}); size > 64 {
		t.Errorf("Protocol is %d bytes; want ≤ 64", size)
	}
	sh, err := NewShared(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := NewAt(sh, 0), NewAt(sh, 3); a.cfg != sh.cfg || b.cfg != sh.cfg {
		t.Error("mounted protocols do not share their Shared's config")
	}
}

// TestNewAtAllocatesNothing holds mounting to the slabs: installing the
// composed stack's handlers on a 1,000-node network hands out slots of
// its Shared, with no allocation per node.
func TestNewAtAllocatesNothing(t *testing.T) {
	const n = 1000
	sh, err := NewShared(n, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sh.Partition(2)
	net := sim.NewNetwork(topology.NewGraph(n), sim.Options{})
	factory := func(id proto.NodeID) proto.Handler { return NewAt(sh, id) }
	if allocs := testing.AllocsPerRun(10, func() { net.SetHandlers(factory) }); allocs != 0 {
		t.Errorf("SetHandlers(NewAt) over %d nodes allocates %.0f times, want 0", n, allocs)
	}
}

// initCtx is just enough of a Context for Init: a group member's Init
// reads its ID and the time and arms its first round timer.
type initCtx struct{ self proto.NodeID }

func (c *initCtx) Self() proto.NodeID                      { return c.self }
func (*initCtx) Now() time.Duration                        { return 0 }
func (*initCtx) Rand() *rand.Rand                          { return nil }
func (*initCtx) Neighbors() []proto.NodeID                 { return nil }
func (*initCtx) Send(proto.NodeID, proto.Message)          {}
func (*initCtx) SetTimer(time.Duration, any) proto.TimerID { return 0 }
func (*initCtx) CancelTimer(proto.TimerID)                 {}
func (*initCtx) DeliverLocal(proto.MsgID, []byte)          {}

// TestWarmInitAllocatesNothing holds a trial's Phase-1 start to the
// Shared's slabs and pools: after Reset, rebuilding each group member's
// protocol and running its Init builds the member its partition pool
// kept, with the callbacks its node slot bound when first mounted, so a
// warm trial's Inits allocate nothing.
func TestWarmInitAllocatesNothing(t *testing.T) {
	const n = 100
	group := []proto.NodeID{3, 17, 42, 64, 99}
	sh, err := NewShared(n, testConfig(group, SimHashes(n)))
	if err != nil {
		t.Fatal(err)
	}
	sh.Partition(2)
	ctxs := make([]initCtx, len(group))
	trial := func() {
		sh.Reset()
		for i, v := range group {
			ctxs[i].self = v
			p := NewAt(sh, v)
			p.Init(&ctxs[i])
			if p.Member() == nil {
				t.Fatalf("node %d has no member after Init", v)
			}
		}
	}
	trial()
	if allocs := testing.AllocsPerRun(10, trial); allocs != 0 {
		t.Errorf("a warm trial's Init of %d group members allocates %.0f times, want 0", len(group), allocs)
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph(t, 50, 6, 11)
	group := []proto.NodeID{5, 15, 25, 35, 45}
	run := func() (int64, int) {
		w := newWorld(t, g, group, 99, nil)
		id, err := w.net.Originate(15, []byte("det"))
		if err != nil {
			t.Fatal(err)
		}
		w.run(20 * time.Second)
		return w.net.TotalMessages(), w.net.Delivered(id)
	}
	m1, d1 := run()
	m2, d2 := run()
	if m1 != m2 || d1 != d2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", m1, d1, m2, d2)
	}
	if d1 != 50 {
		t.Errorf("delivered %d/50", d1)
	}
}
