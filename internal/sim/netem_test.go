package sim

import (
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
)

// netemFloodRun executes one seeded flood broadcast and returns the network
// for inspection.
func netemFloodRun(t *testing.T, g *topology.Graph, opts Options) (*Network, proto.MsgID) {
	t.Helper()
	net := NewNetwork(g, opts)
	shared := flood.NewShared(g.N())
	net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
	net.Start()
	id, err := net.Originate(0, []byte{0xab, 0xcd})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	return net, id
}

// TestNetemZeroImpairmentEqualsLegacy pins that a link has one model
// however it is spelled: Latency: ConstLatency(d), the explicit constant
// profile, and the same constant decided message by message by the
// shaper (a degenerate Uniform, which Profile.FixedDelay does not
// recognise) must agree bit-for-bit — same counts, same per-node
// delivery times to the nanosecond — and the first two must take send's
// fixed-delay case: no shaper, no per-link stream counters.
func TestNetemZeroImpairmentEqualsLegacy(t *testing.T) {
	g, err := topology.RandomRegular(256, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	const d = 50 * time.Millisecond
	legacy, idL := netemFloodRun(t, g, Options{Seed: 5, Latency: ConstLatency(d)})
	for _, tc := range []struct {
		name    string
		profile netem.Profile
		fixed   bool
	}{
		{"const-profile", netem.Profile{Latency: netem.Const(d)}, true},
		{"decided", netem.Profile{Latency: netem.Uniform{Min: d, Hi: d}}, false},
	} {
		shaped, idS := netemFloodRun(t, g, Options{Seed: 5, Netem: &tc.profile})
		if fixed := shaped.shaper == nil && shaped.linkStreams == nil; fixed != tc.fixed {
			t.Errorf("%s: fixed-delay case = %v, want %v", tc.name, fixed, tc.fixed)
		}
		if idL != idS {
			t.Fatalf("%s: broadcast IDs differ", tc.name)
		}
		if legacy.TotalMessages() != shaped.TotalMessages() {
			t.Errorf("%s: message counts differ: legacy %d, shaped %d", tc.name, legacy.TotalMessages(), shaped.TotalMessages())
		}
		if shaped.NetemDropped() != 0 {
			t.Errorf("%s: zero-impairment profile dropped %d messages", tc.name, shaped.NetemDropped())
		}
		if legacy.Delivered(idL) != shaped.Delivered(idS) {
			t.Errorf("%s: coverage differs: legacy %d, shaped %d", tc.name, legacy.Delivered(idL), shaped.Delivered(idS))
		}
		for node, at := range legacy.Deliveries(idL).All() {
			if got, ok := shaped.DeliveryTime(idS, node); !ok || got != at {
				t.Fatalf("%s: delivery time at node %d differs: legacy %v, shaped %v (ok=%v)", tc.name, node, at, got, ok)
			}
		}
	}
	if legacy.shaper != nil || legacy.linkStreams != nil || legacy.fixedDelay != d {
		t.Errorf("Latency: ConstLatency(%v) did not fold into the fixed-delay case (delay %v)", d, legacy.fixedDelay)
	}
}

// TestNetemShapedDeterminism requires a shaped run — loss, jitter and
// churn all active — to be a pure function of the seed, across both
// fresh networks and Reset reuse (the trial-runner contract).
func TestNetemShapedDeterminism(t *testing.T) {
	g, err := topology.RandomRegular(256, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	profile := netem.Profile{
		Latency: netem.Const(20 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 15 * time.Millisecond},
		Loss:    0.05,
		Churn:   netem.Churn{Fraction: 0.1, Start: 10 * time.Millisecond, Down: 50 * time.Millisecond},
	}
	opts := Options{Seed: 9, Netem: &profile}
	a, idA := netemFloodRun(t, g, opts)
	b, idB := netemFloodRun(t, g, opts)
	if a.TotalMessages() != b.TotalMessages() || a.NetemDropped() != b.NetemDropped() ||
		a.Delivered(idA) != b.Delivered(idB) {
		t.Fatalf("shaped runs diverge: msgs %d/%d drops %d/%d delivered %d/%d",
			a.TotalMessages(), b.TotalMessages(), a.NetemDropped(), b.NetemDropped(),
			a.Delivered(idA), b.Delivered(idB))
	}
	if a.NetemDropped() == 0 {
		t.Error("5% loss shed nothing — shaper inactive?")
	}

	// Reset ≡ fresh under a profile: drops and deliveries replay.
	shared := flood.NewShared(g.N())
	net := NewNetwork(g, opts)
	for trial := 0; trial < 2; trial++ {
		net.Reset(9)
		shared.Reset()
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
		net.Start()
		id, err := net.Originate(0, []byte{0xab, 0xcd})
		if err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		if net.TotalMessages() != a.TotalMessages() || net.NetemDropped() != a.NetemDropped() ||
			net.Delivered(id) != a.Delivered(idA) {
			t.Fatalf("reset trial %d diverges from fresh run: msgs %d/%d drops %d/%d",
				trial, net.TotalMessages(), a.TotalMessages(), net.NetemDropped(), a.NetemDropped())
		}
	}
}

// TestNetemChurnCrashesNodes checks the churn schedule actually passes
// through the event loop. With Fraction 1.0, Down = Period = 100 ms and
// Start = 10 ms, every node's crash phase lies in [0, 100ms), so its
// outage covers [10ms+φ, 110ms+φ) — at t = 109 ms every node is down
// (crashed by 109, rejoined no earlier than 110). A flood injected then
// delivers only at its source until the rejoins land; after the last
// rejoin a fresh broadcast recovers full coverage.
func TestNetemChurnCrashesNodes(t *testing.T) {
	g, err := topology.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	profile := netem.Profile{
		Latency: netem.Const(time.Millisecond),
		Churn: netem.Churn{
			Fraction: 1.0, Start: 10 * time.Millisecond,
			Down: 100 * time.Millisecond, Period: 100 * time.Millisecond, Cycles: 1,
		},
	}
	net := NewNetwork(g, Options{Seed: 3, Netem: &profile})
	shared := flood.NewShared(g.N())
	net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
	net.Start()

	net.RunUntil(109 * time.Millisecond)
	down := 0
	for v := 0; v < g.N(); v++ {
		if net.Crashed(proto.NodeID(v)) {
			down++
		}
	}
	if down != g.N() {
		t.Fatalf("%d/%d nodes down during the full-outage instant", down, g.N())
	}
	id, err := net.Originate(0, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	// Messages sent at 109 ms arrive at 110 ms at the earliest; before
	// that only the source has delivered locally.
	net.RunUntil(109500 * time.Microsecond)
	if got := net.Delivered(id); got != 1 {
		t.Errorf("broadcast into a full outage delivered to %d nodes before any arrival", got)
	}

	// Past every rejoin, all nodes are back and a new broadcast floods
	// the whole ring again.
	net.Run(0)
	for v := 0; v < g.N(); v++ {
		if net.Crashed(proto.NodeID(v)) {
			t.Fatalf("node %d still down after the schedule drained", v)
		}
	}
	id2, err := net.Originate(0, []byte{2})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	if got := net.Delivered(id2); got != g.N() {
		t.Errorf("post-churn broadcast delivered to %d/%d", got, g.N())
	}
}
