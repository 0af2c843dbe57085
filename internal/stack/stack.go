// Package stack is the one place a protocol stack is constructed. The
// paper compares its three-phase design against flood, Dandelion and
// adaptive diffusion on equal terms, which means the four are built one
// way: outside the protocol packages and internal/node, nothing else
// calls a protocol constructor.
//
// A Spec names a stack and carries its parameters. Mount realises it on a
// simulated network over dense state sized to the network's node count
// and partitioned to its resolved shard count; Live realises it for a
// long-lived node over maps of its own. Callers never see N, the shard
// count, a Shared, a Partition call, New versus NewAt, or the rule that
// engines are built after partitioning.
package stack

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dandelion"
	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Kind selects one of the four protocol stacks.
type Kind int

// The stacks under comparison: plain flood-and-prune, the stem/fluff
// baseline of §III-A, adaptive diffusion alone (no delivery guarantee),
// and the paper's three-phase protocol (§IV).
const (
	Flood Kind = iota + 1
	Dandelion
	Adaptive
	Composed
)

var kindNames = [...]string{Flood: "flood", Dandelion: "dandelion", Adaptive: "adaptive", Composed: "composed"}

// String returns the name tables and reports print.
func (k Kind) String() string {
	if k < Flood || k > Composed {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindNames lists every Kind's name in Kind order, for usage strings.
func KindNames() []string { return slices.Clone(kindNames[Flood:]) }

// ParseKind returns the Kind a String name denotes.
func ParseKind(name string) (Kind, error) {
	for k := Flood; k <= Composed; k++ {
		if kindNames[k] == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown stack %q (%s)", name, strings.Join(KindNames(), "|"))
}

// Spec describes a protocol stack: which one, and each protocol's own
// configuration. Only the selected Kind's configuration is read, so one
// Spec value can hold a whole comparison's parameters and be mounted four
// times with Kind changed. Flood has no parameters.
type Spec struct {
	Kind      Kind
	Dandelion dandelion.Config
	// Adaptive configures the adaptive stack and the composed stack's
	// Phase 2, so the two diffuse alike.
	Adaptive adaptive.Config
	// Composed configures the composed stack; its Adaptive is not read.
	// Its Group members run Phase 1, every other node only relays Phases
	// 2–3. Nil Hashes default to core.SimHash of the members, the only
	// hashes ever read (members elect the virtual source among
	// themselves).
	Composed core.Config
}

// composed returns the composed stack's core configuration. Nil Hashes
// default into hashes, refilled in place, or into a new map when hashes
// is nil.
func (s *Spec) composed(hashes map[proto.NodeID][32]byte) core.Config {
	c := s.Composed
	c.Adaptive = s.Adaptive
	if c.Hashes == nil {
		if hashes == nil {
			hashes = make(map[proto.NodeID][32]byte, len(c.Group))
		}
		clear(hashes)
		for _, m := range c.Group {
			hashes[m] = core.SimHash(m)
		}
		c.Hashes = hashes
	}
	return c
}

// For returns s fitted to link profile p. A profile that can neither lose
// a message nor crash a node (nil is a clean one) keeps the strict stack.
// Any other turns on the selected stack's own reliability channel (the
// DC-net exchange for composed; core owns Phase 2's acks) with a timeout
// past one data + ack round trip at the worst-case hold, floored at
// 130 ms, and a budget of 3; for composed also a fail-safe past a healthy
// Phase 2+3, so it floods only once the private path failed (Dandelion++).
// Flood needs nothing: its redundancy is its loss tolerance.
func (s Spec) For(p *netem.Profile) Spec {
	if p == nil || (p.Loss == 0 && !p.Churn.Enabled()) {
		return s
	}
	const budget = 3
	rto := max(130*time.Millisecond, 2*p.MaxDelay()+10*time.Millisecond)
	switch s.Kind {
	case Dandelion:
		s.Dandelion.RetransmitTimeout, s.Dandelion.RetryBudget = rto, budget
	case Adaptive:
		s.Adaptive.RetransmitTimeout, s.Adaptive.RetryBudget = rto, budget
	case Composed:
		s.Composed.DCNet.RetransmitTimeout, s.Composed.DCNet.RetryBudget = rto, budget
		s.Composed.FailSafe = max(2*time.Second, 2*time.Duration(s.Adaptive.D)*s.Adaptive.RoundInterval)
	}
	return s
}

// Live returns node id's handler in the map-backed form a long-lived node
// runs: per-message state the node owns, where the dense form's pools are
// reclaimed only by a Reset no live node ever calls. internal/parity
// mounts it on both runtimes, so its two runs cannot differ in
// configuration.
func Live(s Spec, id proto.NodeID) proto.Handler {
	switch s.Kind {
	case Flood:
		return flood.New()
	case Dandelion:
		return dandelion.New(s.Dandelion)
	case Adaptive:
		return adaptive.New(s.Adaptive)
	case Composed:
		p, err := core.New(s.composed(nil))
		if err != nil {
			panic(fmt.Sprintf("stack: building composed node %d: %v", id, err))
		}
		return p
	}
	panic("stack: unknown " + s.Kind.String())
}

// Mounted is a Spec realised on one simulated network.
type Mounted struct {
	net  *sim.Network
	spec Spec
	// handler builds node id's handler over the dense state, reading the
	// parameters from spec; reset rewinds that state; configure, for
	// the stack whose state holds its parameters, takes it to a new
	// Spec.
	handler   func(id proto.NodeID) proto.Handler
	reset     func()
	configure func(Spec)
	// hashes holds the composed stack's default identity hashes, refilled
	// by every Remount: only the current configuration reads them.
	hashes map[proto.NodeID][32]byte
}

// Mount sizes the spec's dense state to net — node count from its
// topology, partition from its resolved shard count, so a clamped network
// and its handlers cannot disagree — and installs its handlers.
func Mount(net *sim.Network, s Spec) *Mounted {
	n, k := net.Topology().N(), net.ShardCount()
	m := &Mounted{net: net, spec: s, reset: func() {}, configure: func(Spec) {}}
	switch s.Kind {
	case Flood:
		sh := flood.NewShared(n)
		sh.Partition(k)
		m.reset = sh.Reset
		m.handler = func(id proto.NodeID) proto.Handler { return flood.NewAt(sh, id) }
	case Dandelion:
		// No dense form: Dandelion's state is per node and dies with the
		// handler.
		m.handler = func(proto.NodeID) proto.Handler { return dandelion.New(m.spec.Dandelion) }
	case Adaptive:
		sh := adaptive.NewShared(n)
		sh.Partition(k)
		m.reset = sh.Reset
		m.handler = func(id proto.NodeID) proto.Handler { return adaptive.NewAt(m.spec.Adaptive, sh, id) }
	case Composed:
		m.hashes = make(map[proto.NodeID][32]byte, len(s.Composed.Group))
		sh, err := core.NewShared(n, s.composed(m.hashes))
		if err != nil {
			panic(fmt.Sprintf("stack: mounting composed stack: %v", err))
		}
		sh.Partition(k)
		m.reset = sh.Reset
		m.configure = func(s Spec) {
			if err := sh.Configure(s.composed(m.hashes)); err != nil {
				panic(fmt.Sprintf("stack: remounting composed stack: %v", err))
			}
		}
		m.handler = func(id proto.NodeID) proto.Handler { return core.NewAt(sh, id) }
	default:
		panic("stack: unknown " + s.Kind.String())
	}
	net.SetHandlers(m.handler)
	return m
}

// Reset makes the stack indistinguishable from a freshly mounted one: it
// rewinds the dense state and installs new handlers (Network.Reset
// dropped the old ones, and Dandelion and composed handlers carry
// per-node state no Reset reaches). Call it after Network.Reset, with the
// previous run drained or abandoned.
func (m *Mounted) Reset() {
	m.reset()
	m.net.SetHandlers(m.handler)
}

// Remount is Reset onto another Spec of the same Kind: the stack then
// behaves exactly like Mount(net, s) on its network, but keeps the dense
// state it sized — the composed stack re-resolves its configuration (a
// new group, other parameters) over the slabs it has. Call it after
// Network.Reset or Network.Rebuild, which keep the node count and shard
// layout that state was sized to.
func (m *Mounted) Remount(s Spec) {
	if s.Kind != m.spec.Kind {
		panic(fmt.Sprintf("stack: remounting a %s stack as %s", m.spec.Kind, s.Kind))
	}
	m.spec = s
	m.configure(s)
	m.Reset()
}
