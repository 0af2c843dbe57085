package group

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/dcnet"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// bootClient is a Client that joins automatically shortly after Init and
// can be told to leave via a timer, so all protocol traffic flows through
// the simulated network.
type bootClient struct {
	*Client
	joinAt time.Duration
}

func (b *bootClient) Init(ctx proto.Context) {
	ctx.SetTimer(b.joinAt, "join")
}

func (b *bootClient) HandleTimer(ctx proto.Context, payload any) {
	switch payload {
	case "join":
		b.Join(ctx)
	case "leave":
		b.Leave(ctx)
	default:
		b.Client.HandleTimer(ctx, payload)
	}
}

// managerWorld wires one Manager (node 0) and n−1 bootClients.
type managerWorld struct {
	net     *sim.Network
	dir     *Directory
	manager *Manager
	clients []*bootClient
	commits []int
}

func newManagerWorld(t *testing.T, n, k int, seed uint64) *managerWorld {
	t.Helper()
	g, err := topology.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := NewDirectory(k)
	if err != nil {
		t.Fatal(err)
	}
	w := &managerWorld{
		net:     sim.NewNetwork(g, sim.Options{Seed: seed, Latency: sim.ConstLatency(2 * time.Millisecond)}),
		dir:     dir,
		manager: NewManager(dir),
		clients: make([]*bootClient, n),
		commits: make([]int, n),
	}
	w.net.SetHandlers(func(id proto.NodeID) proto.Handler {
		if id == 0 {
			return w.manager
		}
		c := &bootClient{Client: NewClient(0), joinAt: time.Duration(id) * 10 * time.Millisecond}
		i := int(id)
		c.OnView = func(proto.Context, View) { w.commits[i]++ }
		w.clients[id] = c
		return c
	})
	w.net.Start()
	return w
}

func TestManagerJoinFormsConsistentViews(t *testing.T) {
	const n, k = 10, 4
	w := newManagerWorld(t, n, k, 33)
	w.net.Run(0)

	if err := w.dir.Validate(); err != nil {
		t.Fatal(err)
	}
	placed := 0
	for _, grp := range w.dir.Groups() {
		placed += grp.Size()
		if grp.Size() < k || grp.Size() > 2*k-1 {
			t.Errorf("group size %d outside [%d,%d]", grp.Size(), k, 2*k-1)
		}
	}
	if placed+len(w.dir.Pending()) != n-1 {
		t.Errorf("placed %d + pending %d != %d", placed, len(w.dir.Pending()), n-1)
	}

	// Every placed client's committed view matches the directory.
	for id := 1; id < n; id++ {
		gids := w.dir.GroupsOf(proto.NodeID(id))
		if len(gids) == 0 {
			continue
		}
		v := w.clients[id].CurrentView()
		if v == nil {
			t.Errorf("client %d placed but has no committed view", id)
			continue
		}
		grp := w.dir.Group(v.Group)
		if grp == nil {
			t.Errorf("client %d view references dead group %d", id, v.Group)
			continue
		}
		if !grp.Contains(proto.NodeID(id)) {
			t.Errorf("client %d not a member of its view group", id)
		}
		if w.commits[id] == 0 {
			t.Errorf("client %d saw no commits", id)
		}
	}
}

func TestManagerLeaveTriggersNewViews(t *testing.T) {
	const n, k = 10, 4
	w := newManagerWorld(t, n, k, 35)
	w.net.Run(0)
	if err := w.dir.Validate(); err != nil {
		t.Fatal(err)
	}
	groups := w.dir.Groups()
	if len(groups) == 0 {
		t.Fatal("no groups formed")
	}
	victim := groups[0].Members[0]
	w.net.InjectTimerAt(w.net.Now(), victim, "leave")
	w.net.Run(0)

	if w.dir.Known(victim) {
		t.Errorf("victim %d still known after leave", victim)
	}
	if err := w.dir.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerToleratesCrashedMinority(t *testing.T) {
	// Group of up to 7 (k=4): f = ⌊(g−1)/3⌋; commits need 2f+1 acks.
	// Crash two members after placement; later joins still commit views
	// at live members.
	const n, k = 12, 4
	w := newManagerWorld(t, n, k, 41)
	// Let the first 7 clients join (ids 1..7 join by 70ms).
	w.net.RunUntil(80 * time.Millisecond)

	groups := w.dir.Groups()
	if len(groups) == 0 {
		t.Fatal("no group formed")
	}
	crashed := 0
	for _, m := range groups[0].Members {
		if crashed < 2 {
			w.net.Crash(m)
			crashed++
		}
	}
	for i := range w.commits {
		w.commits[i] = 0
	}
	w.net.Run(0) // remaining joins trigger new views

	for id := 1; id < n; id++ {
		nid := proto.NodeID(id)
		if w.net.Crashed(nid) {
			continue
		}
		if len(w.dir.GroupsOf(nid)) > 0 && w.clients[id].CurrentView() == nil {
			t.Errorf("live placed client %d has no view", id)
		}
	}
	if err := w.dir.Validate(); err != nil {
		t.Fatal(err)
	}
}

// failoverNode is one group member of the failover battery: a membership
// Client plus a DC-net member built from the first committed view. Its
// dcnet OnEvict hook reports evictions to the manager — the full
// member → manager → directory → new-view loop under test.
type failoverNode struct {
	c          *Client
	m          *dcnet.Member
	w          *failoverWorld
	minMembers int
}

// failoverWorld wires a manager and four explicit group members over a
// clique; the manager proposes the seeded group's first view at Init.
type failoverWorld struct {
	net       *sim.Network
	dir       *Directory
	manager   *Manager
	nodes     map[proto.NodeID]*failoverNode
	views     map[proto.NodeID][]View
	evicts    map[proto.NodeID][]proto.NodeID
	dissolved map[proto.NodeID]string
	received  map[proto.NodeID]map[string]int
}

const foManager = proto.NodeID(0)

var foGroup = []proto.NodeID{1, 2, 3, 4}

func (n *failoverNode) Init(ctx proto.Context) {}

func (n *failoverNode) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	if n.m != nil && n.m.HandleMessage(ctx, from, msg) {
		return
	}
	n.c.HandleMessage(ctx, from, msg)
}

func (n *failoverNode) HandleTimer(ctx proto.Context, payload any) {
	if n.m != nil && n.m.HandleTimer(ctx, payload) {
		return
	}
	n.c.HandleTimer(ctx, payload)
}

// onView builds the DC-net member from the first committed view; later
// views are only recorded (the dcnet layer already self-evicted).
func (n *failoverNode) onView(ctx proto.Context, v View) {
	self := ctx.Self()
	n.w.views[self] = append(n.w.views[self], v)
	if n.m != nil {
		return
	}
	m, err := dcnet.NewMember(dcnet.Config{
		Self:              self,
		Members:           v.Members,
		Mode:              dcnet.ModeFixed,
		SlotSize:          64,
		Interval:          100 * time.Millisecond,
		MaxRounds:         30,
		Timeout:           150 * time.Millisecond,
		RetransmitTimeout: 30 * time.Millisecond,
		RetryBudget:       2,
		EvictAfter:        2,
		MinMembers:        n.minMembers,
		Policy:            dcnet.PolicyNone,
		OnDeliver: func(_ proto.Context, _ uint32, payload []byte) {
			n.w.received[self][string(payload)]++
		},
		OnEvict: func(ctx proto.Context, evicted proto.NodeID, _ []proto.NodeID) {
			n.w.evicts[self] = append(n.w.evicts[self], evicted)
			n.c.ReportEvict(ctx, evicted)
		},
		OnDissolve: func(_ proto.Context, reason string) {
			n.w.dissolved[self] = reason
		},
	})
	if err != nil {
		panic(err)
	}
	n.m = m
	m.Start(ctx)
}

func newFailoverWorld(t *testing.T, dirK, minMembers int, seed uint64) *failoverWorld {
	t.Helper()
	g, err := topology.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := NewDirectory(dirK)
	if err != nil {
		t.Fatal(err)
	}
	dir.AddExplicitGroup(foGroup)
	w := &failoverWorld{
		net:       sim.NewNetwork(g, sim.Options{Seed: seed, Latency: sim.ConstLatency(2 * time.Millisecond)}),
		dir:       dir,
		manager:   NewManager(dir),
		nodes:     make(map[proto.NodeID]*failoverNode),
		views:     make(map[proto.NodeID][]View),
		evicts:    make(map[proto.NodeID][]proto.NodeID),
		dissolved: make(map[proto.NodeID]string),
		received:  make(map[proto.NodeID]map[string]int),
	}
	w.net.SetHandlers(func(id proto.NodeID) proto.Handler {
		switch id {
		case foManager:
			return w.manager
		default:
			w.received[id] = make(map[string]int)
			n := &failoverNode{c: NewClient(foManager), w: w, minMembers: minMembers}
			n.c.OnView = n.onView
			w.nodes[id] = n
			return n
		}
	})
	w.net.Start()
	return w
}

// TestFailoverEvictionUpdatesDirectory crashes one group member at each
// protocol phase and checks the whole loop: survivors evict after K
// missed rounds, re-key onto the shrunk membership, report to the
// manager, the directory drops the evictee, and a new quorum view
// commits that matches the survivors' live DC-net membership — which
// still delivers traffic.
func TestFailoverEvictionUpdatesDirectory(t *testing.T) {
	const victim = proto.NodeID(4)
	phases := []struct {
		name    string
		crashAt time.Duration
	}{
		{"before-first-round", 60 * time.Millisecond},
		{"mid-exchange", 155 * time.Millisecond},
		{"between-rounds", 290 * time.Millisecond},
	}
	for _, ph := range phases {
		ph := ph
		t.Run(ph.name, func(t *testing.T) {
			w := newFailoverWorld(t, 3, 3, 101)
			w.net.At(ph.crashAt, victim, func() { w.net.Crash(victim) })
			// Queue a payload well after the eviction settles; the shrunk
			// group must still carry it.
			payload := []byte("post-failover-tx")
			w.net.At(1500*time.Millisecond, 1, func() {
				if m := w.nodes[1].m; m != nil {
					if err := m.Queue(payload); err != nil {
						t.Errorf("queue on survivor: %v", err)
					}
				}
			})
			w.net.Run(0)

			want := []proto.NodeID{1, 2, 3}
			for _, id := range want {
				n := w.nodes[id]
				if n.m == nil {
					t.Fatalf("member %d never built from a committed view", id)
				}
				if len(w.evicts[id]) != 1 || w.evicts[id][0] != victim {
					t.Errorf("member %d evictions = %v, want [%d]", id, w.evicts[id], victim)
				}
				if n.m.Epoch() != 1 {
					t.Errorf("member %d epoch = %d, want 1 (re-key)", id, n.m.Epoch())
				}
				if got := n.m.Members(); !slices.Equal(got, want) {
					t.Errorf("member %d live membership %v, want %v", id, got, want)
				}
				// The last committed view must match the live membership.
				vs := w.views[id]
				if len(vs) < 2 {
					t.Fatalf("member %d saw %d views, want the post-eviction view too", id, len(vs))
				}
				if got := vs[len(vs)-1].Members; !slices.Equal(got, want) {
					t.Errorf("member %d final view %v, want %v", id, got, want)
				}
				if w.dissolved[id] != "" {
					t.Errorf("member %d dissolved: %q", id, w.dissolved[id])
				}
			}
			// Directory side: evictee gone, group shrunk, invariants hold.
			if w.dir.Evictions != 1 {
				t.Errorf("directory evictions = %d, want 1", w.dir.Evictions)
			}
			if w.dir.Known(victim) {
				t.Error("directory still knows the evictee")
			}
			if err := w.dir.Validate(); err != nil {
				t.Fatal(err)
			}
			gids := w.dir.GroupsOf(1)
			if len(gids) != 1 || !slices.Equal(w.dir.Group(gids[0]).Members, want) {
				t.Errorf("directory group of survivor = %v", gids)
			}
			// Traffic check: both survivors other than the sender deliver.
			for _, id := range []proto.NodeID{2, 3} {
				if got := w.received[id][string(payload)]; got != 1 {
					t.Errorf("member %d delivered %d copies post-failover, want 1", id, got)
				}
			}
		})
	}
}

// TestFailoverFloorDissolvesGroup pins the floor path end to end: with
// the floor at the full group size, the eviction dissolves the DC-net
// group and the directory sends the survivors back to placement.
func TestFailoverFloorDissolvesGroup(t *testing.T) {
	const victim = proto.NodeID(4)
	w := newFailoverWorld(t, 4, 4, 102)
	w.net.At(60*time.Millisecond, victim, func() { w.net.Crash(victim) })
	w.net.Run(0)

	for _, id := range []proto.NodeID{1, 2, 3} {
		n := w.nodes[id]
		if n.m == nil {
			t.Fatalf("member %d never built", id)
		}
		if len(w.evicts[id]) != 1 {
			t.Errorf("member %d evictions = %v, want one", id, w.evicts[id])
		}
		if w.dissolved[id] == "" {
			t.Errorf("member %d did not dissolve below the floor", id)
		}
		if !n.m.Stopped() {
			t.Errorf("member %d still running below the floor", id)
		}
		if len(w.dir.GroupsOf(id)) != 0 {
			t.Errorf("directory still places dissolved member %d", id)
		}
	}
	if w.dir.Dissolves != 1 {
		t.Errorf("directory dissolves = %d, want 1", w.dir.Dissolves)
	}
	if w.dir.Known(victim) {
		t.Error("directory still knows the evictee")
	}
	// Survivors re-enter the pending pool awaiting re-formation.
	pending := w.dir.Pending()
	for _, id := range []proto.NodeID{1, 2, 3} {
		if !slices.Contains(pending, id) {
			t.Errorf("survivor %d not pending after dissolve (pending %v)", id, pending)
		}
	}
}

// stubCtx is a minimal proto.Context for driving the manager directly.
type stubCtx struct {
	rng  *rand.Rand
	sent []proto.Message
}

func (s *stubCtx) Self() proto.NodeID                        { return 0 }
func (s *stubCtx) Now() time.Duration                        { return 0 }
func (s *stubCtx) Rand() *rand.Rand                          { return s.rng }
func (s *stubCtx) Neighbors() []proto.NodeID                 { return nil }
func (s *stubCtx) Send(_ proto.NodeID, msg proto.Message)    { s.sent = append(s.sent, msg) }
func (s *stubCtx) SetTimer(time.Duration, any) proto.TimerID { return 0 }
func (s *stubCtx) CancelTimer(proto.TimerID)                 {}
func (s *stubCtx) DeliverLocal(proto.MsgID, []byte)          {}

// TestEvictNoticeRequiresCoMembership pins the manager's accusation
// check: only a current co-member of the evictee may have its report
// honored; an outsider's accusation is refused.
func TestEvictNoticeRequiresCoMembership(t *testing.T) {
	dir, err := NewDirectory(3)
	if err != nil {
		t.Fatal(err)
	}
	dir.AddExplicitGroup([]proto.NodeID{1, 2, 3, 4})
	mgr := NewManager(dir)
	ctx := &stubCtx{rng: rand.New(rand.NewPCG(1, 2))}

	mgr.HandleMessage(ctx, 9, &EvictNotice{Peer: 2}) // outsider
	if !dir.Known(2) || dir.Evictions != 0 {
		t.Fatalf("non-co-member eviction accepted (evictions %d)", dir.Evictions)
	}
	mgr.HandleMessage(ctx, 1, &EvictNotice{Peer: 2}) // co-member
	if dir.Known(2) || dir.Evictions != 1 {
		t.Fatalf("co-member eviction refused (known %v, evictions %d)", dir.Known(2), dir.Evictions)
	}
	if len(ctx.sent) == 0 {
		t.Error("eviction produced no view proposals")
	}
	// A duplicate report from another survivor is a no-op, not an error.
	mgr.HandleMessage(ctx, 3, &EvictNotice{Peer: 2})
	if dir.Evictions != 1 {
		t.Errorf("duplicate eviction double-counted: %d", dir.Evictions)
	}
	if err := dir.Validate(); err != nil {
		t.Fatal(err)
	}
}
