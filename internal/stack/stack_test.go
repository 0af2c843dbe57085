package stack

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

const (
	testN   = 96
	testDeg = 8
)

// testSpec is the configuration of the E15–E17 sweeps: every stack's
// reliability surface on, so relchan retransmits, custody hand-off and
// the fail-safe all fire under the impaired condition.
func testSpec(kind Kind) Spec {
	group := []proto.NodeID{0, 24, 48, 72}
	return Spec{
		Kind:      kind,
		Adaptive:  adaptive.Config{D: 4, RoundInterval: 250 * time.Millisecond, TreeDegree: testDeg},
		Dandelion: dandelion.Config{Q: 0.25, Epoch: time.Hour, FailSafe: 2 * time.Second},
		Composed: core.Config{
			Group: group,
			DCNet: dcnet.Config{
				Mode: dcnet.ModeAnnounce, Interval: 250 * time.Millisecond,
				Policy: dcnet.PolicyNone, MaxRounds: 16,
				RetransmitTimeout: 150 * time.Millisecond,
				RetryBudget:       3,
				Timeout:           600 * time.Millisecond,
				EvictAfter:        2,
				MinMembers:        3,
			},
			FailSafe: 2 * time.Second,
		},
	}
}

// testConditions are E15's clean and worst cells: 50 ms links with up to
// 20 ms jitter, then 5 % loss with a fifth of the nodes crashing for 2 s.
func testConditions() []netem.Profile {
	clean := netem.Profile{
		Name:    "clean",
		Latency: netem.Const(50 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 20 * time.Millisecond},
	}
	bad := clean
	bad.Name, bad.Loss = "loss5+churn20", 0.05
	bad.Churn = netem.Churn{Fraction: 0.20, Start: time.Millisecond, Down: 2 * time.Second, Period: time.Second, Cycles: 1}
	return []netem.Profile{clean, bad}
}

func testGraph(t *testing.T, seed uint64) *topology.Graph {
	t.Helper()
	g, err := topology.RandomRegular(testN, testDeg, rand.New(rand.NewPCG(seed, seed^0x5bd1e995)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// run originates one broadcast on a started network and fingerprints
// everything a table could read: every node's delivery time, per-type
// message counts, shaped drops and the reliability-layer counters.
func run(t *testing.T, net *sim.Network, seed uint64) string {
	t.Helper()
	net.Start()
	id, err := net.Originate(0, []byte{byte(seed), 0x15})
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(60 * time.Second)

	fp := fmt.Sprintf("delivered=%d drops=%d", net.Delivered(id), net.NetemDropped())
	for v := 0; v < testN; v++ {
		at, _ := net.DeliveryTime(id, proto.NodeID(v))
		fp += fmt.Sprintf(" %d", at)
	}
	for ty := proto.MsgType(0); ty < proto.RangeEnd; ty++ {
		if c := net.MessagesOfType(ty); c != 0 {
			fp += fmt.Sprintf(" t%#04x=%d", uint16(ty), c)
		}
	}
	var retx, nacks, handoffs int
	for v := 0; v < testN; v++ {
		switch h := net.Handler(proto.NodeID(v)).(type) {
		case *core.Protocol:
			retx += h.RelRetransmits()
			nacks += h.RelNacks()
			handoffs += h.RelHandoffs()
			if m := h.Member(); m != nil {
				retx += m.Retransmits()
				nacks += m.Nacks()
			}
		case *adaptive.Protocol:
			retx += h.Engine().Channel().Retransmits
			nacks += h.Engine().Channel().Nacks
		case *dandelion.Protocol:
			retx += h.Channel().Retransmits
			nacks += h.Channel().Nacks
		}
	}
	return fp + fmt.Sprintf(" retx=%d nacks=%d handoffs=%d", retx, nacks, handoffs)
}

// TestMountMatchesLive is the equivalence that lets every simulated cell
// run dense: for each stack, the handlers Mount installs — dense state at
// partition k = 1/2/4, on a network sharded to match — behave exactly
// like the map-backed handlers Live builds on a single loop, under clean
// links and under loss with churn. flood and adaptive have their own
// engine-level versions (TestSharedEngineMatchesStandalone); for the
// composed stack this is the only one.
func TestMountMatchesLive(t *testing.T) {
	for _, kind := range []Kind{Flood, Dandelion, Adaptive, Composed} {
		spec := testSpec(kind)
		for _, cond := range testConditions() {
			for seed := uint64(1); seed <= 2; seed++ {
				g := testGraph(t, seed)
				live := sim.NewNetwork(g, sim.Options{Seed: seed, Netem: &cond})
				live.SetHandlers(func(id proto.NodeID) proto.Handler { return Live(spec, id) })
				want := run(t, live, seed)
				for _, k := range []int{1, 2, 4} {
					net := sim.NewNetwork(g, sim.Options{Seed: seed, Netem: &cond, Shards: k})
					if net.ShardCount() != k {
						t.Fatalf("network resolved %d shards, want %d", net.ShardCount(), k)
					}
					Mount(net, spec)
					if got := run(t, net, seed); got != want {
						t.Errorf("%v/%s seed %d: mounted at k=%d differs from live\n got %s\nwant %s", kind, cond.Name, seed, k, got, want)
					}
				}
			}
		}
	}
}

// TestResetEqualsFresh holds Mounted.Reset to its contract: after
// Network.Reset and Reset, a run is indistinguishable from one on a new
// network with a new mount — including for Dandelion and the composed
// stack, whose per-node state only a rebuilt handler forgets. Remount
// onto another Spec of the same kind equals a new mount of that Spec.
func TestResetEqualsFresh(t *testing.T) {
	cond := testConditions()[1]
	for _, kind := range []Kind{Flood, Dandelion, Adaptive, Composed} {
		spec := testSpec(kind)
		g := testGraph(t, 7)
		fresh := func(seed uint64) string {
			net := sim.NewNetwork(g, sim.Options{Seed: seed, Netem: &cond, Shards: 2})
			Mount(net, spec)
			return run(t, net, seed)
		}
		net := sim.NewNetwork(g, sim.Options{Seed: 1, Netem: &cond, Shards: 2})
		st := Mount(net, spec)
		if got, want := run(t, net, 1), fresh(1); got != want {
			t.Fatalf("%v: two fresh runs differ\n got %s\nwant %s", kind, got, want)
		}
		for _, seed := range []uint64{1, 2} {
			net.Reset(seed)
			st.Reset()
			if got, want := run(t, net, seed), fresh(seed); got != want {
				t.Errorf("%v seed %d: reset run differs from fresh\n got %s\nwant %s", kind, seed, got, want)
			}
		}
		// Remount onto other parameters: a new group of another size,
		// other depth and fluff probability.
		spec.Composed.Group = []proto.NodeID{0, 13, 37, 61, 85}
		spec.Adaptive.D, spec.Dandelion.Q = 3, 0.5
		net.Reset(3)
		st.Remount(spec)
		if got, want := run(t, net, 3), fresh(3); got != want {
			t.Errorf("%v: remounted run differs from a fresh mount\n got %s\nwant %s", kind, got, want)
		}
	}
}

// TestParseKind holds the name table both ways: every Kind round-trips
// through String and ParseKind, and anything else is rejected.
func TestParseKind(t *testing.T) {
	kinds := []Kind{Flood, Dandelion, Adaptive, Composed}
	if got := KindNames(); len(got) != len(kinds) {
		t.Fatalf("KindNames() = %v, want %d names", got, len(kinds))
	}
	for i, k := range kinds {
		if name := KindNames()[i]; name != k.String() {
			t.Errorf("KindNames()[%d] = %q, want %q", i, name, k.String())
		}
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"", "Flood", "bogus", "Kind(0)"} {
		if k, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) = %v; want an error", name, k)
		}
	}
}

// For leaves a stack strict on every profile that can neither lose a
// message nor crash a node, and otherwise turns on only the selected
// stack's reliability surface: a timeout past one data + ack round trip
// at the profile's worst-case hold (floored at 130 ms), a budget of 3,
// and for composed a fail-safe past 2·D diffusion rounds (floored at 2 s).
func TestForFollowsProfile(t *testing.T) {
	base := Spec{
		Adaptive: adaptive.Config{D: 4, RoundInterval: 500 * time.Millisecond},
		Composed: core.Config{Group: []proto.NodeID{0, 1}},
	}
	short := base
	short.Adaptive.RoundInterval = 50 * time.Millisecond
	cases := []struct {
		p        *netem.Profile
		s        Spec
		rto      time.Duration
		failSafe time.Duration
	}{
		{nil, base, 0, 0},
		{&netem.WANJitter, base, 0, 0},
		{&netem.Lossy, base, 130 * time.Millisecond, 4 * time.Second},
		{&netem.Churny, base, 130 * time.Millisecond, 4 * time.Second},
		{&netem.Flaky, base, 210 * time.Millisecond, 4 * time.Second}, // 2·(50 ms + 50 ms) + 10 ms
		{&netem.Lossy, short, 130 * time.Millisecond, 2 * time.Second},
	}
	for _, c := range cases {
		for k := Flood; k <= Composed; k++ {
			s := c.s
			s.Kind = k
			got := s.For(c.p)
			want := s
			if c.rto > 0 {
				switch k {
				case Dandelion:
					want.Dandelion.RetransmitTimeout, want.Dandelion.RetryBudget = c.rto, 3
				case Adaptive:
					want.Adaptive.RetransmitTimeout, want.Adaptive.RetryBudget = c.rto, 3
				case Composed:
					want.Composed.DCNet.RetransmitTimeout, want.Composed.DCNet.RetryBudget = c.rto, 3
					want.Composed.FailSafe = c.failSafe
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v under %v: got %+v, want %+v", k, c.p, got, want)
			}
		}
	}
}
