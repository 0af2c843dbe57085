// Package simulate runs one broadcast trial: a seeded overlay, payload,
// adversary, originator and DC-net group placement, one of the four
// protocol stacks mounted on a network the caller builds, run until
// coverage settles. flexnet.Simulate and the experiments that measure a
// single broadcast (e3, e5, e9, e10, a2) share it and differ only in how
// the network is built: flexnet builds a plain one, the experiments
// build theirs through Scenario.network, which applies -netem, -shards
// and -v.
package simulate

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"repro/internal/adaptive"
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/group"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/topology"
)

// Protocol selects the broadcast protocol under test.
type Protocol int

// Supported protocols: the four stacks internal/stack builds.
const (
	// ProtocolFlood is plain flood-and-prune (no privacy).
	ProtocolFlood = Protocol(stack.Flood)
	// ProtocolDandelion is the stem/fluff baseline of §III-A.
	ProtocolDandelion = Protocol(stack.Dandelion)
	// ProtocolAdaptive is adaptive diffusion alone (no delivery
	// guarantee, §III-A).
	ProtocolAdaptive = Protocol(stack.Adaptive)
	// ProtocolFlexnet is the paper's three-phase protocol (§IV).
	ProtocolFlexnet = Protocol(stack.Composed)
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch {
	case p == ProtocolFlexnet:
		return "flexnet"
	case p >= ProtocolFlood && p < ProtocolFlexnet:
		return stack.Kind(p).String()
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Topology selects the overlay family.
type Topology int

// Supported topologies.
const (
	// TopologyRandomRegular is a random d-regular overlay (the paper's
	// simulation substrate).
	TopologyRandomRegular Topology = iota + 1
	// TopologyRing is a cycle.
	TopologyRing
	// TopologyLine is a path.
	TopologyLine
	// TopologySmallWorld is Watts–Strogatz with β = 0.2.
	TopologySmallWorld
	// TopologyScaleFree is Barabási–Albert.
	TopologyScaleFree
)

// Config parametrizes one simulated broadcast.
type Config struct {
	// N is the node count (default 1000, the paper's setting).
	N int
	// Degree is the overlay degree (default 8, matching the paper's
	// 7,000-message flood baseline).
	Degree int
	// Topology defaults to TopologyRandomRegular.
	Topology Topology
	// Protocol defaults to ProtocolFlexnet.
	Protocol Protocol
	// K is the anonymity parameter (default 5).
	K int
	// D is the number of adaptive-diffusion rounds (default 4). Both K
	// and D only apply to ProtocolFlexnet / ProtocolAdaptive.
	D int
	// Q is Dandelion's fluff probability (default 0.1).
	Q float64
	// Seed drives all randomness (topology uses Seed+1).
	Seed uint64
	// AdversaryFraction corrupts this fraction of nodes as passive
	// observers (0 disables the attack analysis).
	AdversaryFraction float64
	// LatencyMs is the constant per-hop latency of the declared link
	// profile (default 50 ms, netem.WAN).
	LatencyMs int
	// MaxDuration bounds virtual time (default 10 min).
	MaxDuration time.Duration
}

func (c *Config) applyDefaults() {
	if c.N == 0 {
		c.N = 1000
	}
	if c.Degree == 0 {
		c.Degree = 8
	}
	if c.Topology == 0 {
		c.Topology = TopologyRandomRegular
	}
	if c.Protocol == 0 {
		c.Protocol = ProtocolFlexnet
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.D == 0 {
		c.D = 4
	}
	if c.Q == 0 {
		c.Q = 0.1
	}
	if c.LatencyMs == 0 {
		c.LatencyMs = 50
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = 10 * time.Minute
	}
}

// Result reports one simulated broadcast.
type Result struct {
	// N is the network size; Delivered the number of nodes that received
	// the payload.
	N, Delivered int
	// Originator is the true source; GroupSize its DC-net group size
	// (flexnet only).
	Originator int32
	GroupSize  int
	// TotalMessages counts every protocol message sent; PhaseMessages
	// breaks them down by protocol family name.
	TotalMessages int64
	PhaseMessages map[string]int64
	// TimeToCoverage is the virtual time until the last delivery.
	TimeToCoverage time.Duration
	// Adversary outcomes (when AdversaryFraction > 0): FirstSpy point
	// estimate, whether it hit, and the k-anonymity suspect-set size the
	// group attack achieves against flexnet (0 otherwise).
	FirstSpySuspect int32
	FirstSpyCorrect bool
	GroupSuspectSet int
	GroupAttackHit  bool
}

// ErrDisconnected is returned for an overlay on which no broadcast can
// reach every node.
var ErrDisconnected = errors.New("simulate: generated topology is disconnected; change Seed")

// NetworkFunc builds the trial network over g, seeded, under the link
// profile the configuration declares (a constant LatencyMs hop) or
// whatever condition the caller substitutes for it. A Trial calls it for
// its first network and again only when N or LatencyMs changes; every
// other call rebuilds the network it has in place (sim.Network.Rebuild),
// so what the function sets besides the seed must not depend on g beyond
// its node count.
type NetworkFunc func(g *topology.Graph, seed uint64, def netem.Profile) *sim.Network

// Run sets one broadcast up on a network build returns, runs it until it
// settles and reports the outcome, with each node's first-delivery time
// (virtual time since origination) in the returned record: one Run of a
// new Trial.
func Run(cfg Config, build NetworkFunc) (*Result, *sim.DeliverySet, error) {
	return NewTrial(build).Run(cfg)
}

// Trial is the construction of one broadcast trial, kept and overwritten
// in place by the next Run instead of built anew: the random-regular
// overlay (topology.RegularBuilder), the network's node, engine and shard
// arrays with a shaped network's link arrays and tables (sim.Network.Rebuild),
// the adversary's sightings and sample (adversary.Observer.ResetSampled),
// the group directory's maps, heap and groups (group.Directory.Reset)
// with the order nodes join it in, and one mounted stack per protocol
// with its dense per-node state (stack.Mounted.Remount). Ring, line,
// small-world and scale-free overlays are built anew per Run. Every
// Run's outcome equals a fresh Trial's. What a Run returns is the
// caller's: the next Run builds a new result and delivery record and
// leaves the old ones as they were. The kept network's Topology, though,
// is the graph the next Run overwrites.
//
// A Trial runs one trial at a time. flexnet.Simulate pools them; an
// experiment keeps one per runner worker.
type Trial struct {
	build NetworkFunc
	// fit adapts the stack to the network's link profile: stack.Spec.For
	// except in tests that vary the rule.
	fit func(stack.Spec, *netem.Profile) stack.Spec

	regular topology.RegularBuilder
	obs     *adversary.Observer
	order   []proto.NodeID // the directory's join order

	net       *sim.Network
	n         int // the node count net was built for
	latencyMs int // the LatencyMs net was built for
	dir       *group.Directory
	stacks    [stack.Composed + 1]*stack.Mounted // by Kind, on net
}

// NewTrial returns a Trial whose networks come from build.
func NewTrial(build NetworkFunc) *Trial {
	dir, _ := group.NewDirectory(2) // a valid K; each flexnet Run resets it to its own
	return &Trial{build: build, fit: stack.Spec.For, obs: adversary.NewObserver(nil), dir: dir}
}

// Run sets one broadcast up, runs it until it settles and reports the
// outcome, with each node's first-delivery time (virtual time since
// origination) in the returned record. Set-up goes topology → payload →
// adversary → originator → group directory → network → handlers →
// originate; the draws from the run RNG happen in exactly that order.
// The stack follows the link profile of the network (stack.Spec.For).
func (t *Trial) Run(cfg Config) (*Result, *sim.DeliverySet, error) {
	cfg.applyDefaults()
	if cfg.Protocol < ProtocolFlood || cfg.Protocol > ProtocolFlexnet {
		return nil, nil, fmt.Errorf("simulate: unknown protocol %d", cfg.Protocol)
	}
	topoRNG := rand.New(rand.NewPCG(cfg.Seed+1, 0x51ed2701))
	g, err := t.overlay(cfg, topoRNG)
	if err != nil {
		return nil, nil, err
	}

	runRNG := rand.New(rand.NewPCG(cfg.Seed, 0xabcdef12))
	// The broadcast content: 250 random bytes, a typical transaction.
	payload := make([]byte, 250)
	for i := range payload {
		payload[i] = byte(runRNG.Uint32())
	}

	var obs *adversary.Observer
	if cfg.AdversaryFraction > 0 {
		obs = t.obs
		obs.ResetSampled(cfg.N, cfg.AdversaryFraction, runRNG)
	}

	// Originator: an honest node.
	origin := proto.NodeID(runRNG.IntN(cfg.N))
	for obs != nil && obs.Corrupted(origin) {
		origin = proto.NodeID(runRNG.IntN(cfg.N))
	}

	// Group placement for flexnet: a directory partition over all nodes;
	// the originator's group drives Phase 1.
	var members []proto.NodeID
	if cfg.Protocol == ProtocolFlexnet {
		if members, err = t.place(cfg, origin, runRNG); err != nil {
			return nil, nil, err
		}
	}

	net := t.network(g, cfg)
	// The Observer is reset at the next Run, never while registered.
	defer net.ClearTaps()
	if obs != nil {
		net.AddTap(obs)
	}
	t.mount(t.fit(Spec(cfg, len(payload), members), net.Profile()))
	net.Start()
	id, err := net.Originate(origin, payload)
	if err != nil {
		return nil, nil, fmt.Errorf("simulate: %w", err)
	}
	// Run until coverage stalls or completes, so periodic Phase-1 rounds
	// after the broadcast do not inflate the per-broadcast cost.
	runUntilSettled(net, id, cfg.N, cfg.MaxDuration)

	deliveries := net.Deliveries(id)
	res := &Result{
		N:             cfg.N,
		Delivered:     deliveries.Count(),
		Originator:    int32(origin),
		GroupSize:     len(members),
		TotalMessages: net.TotalMessages(),
		PhaseMessages: map[string]int64{
			"dcnet": net.MessagesOfType(dcnet.TypeShare) + net.MessagesOfType(dcnet.TypeSPartial) +
				net.MessagesOfType(dcnet.TypeTPartial) + net.MessagesOfType(dcnet.TypeCommit),
			"adaptive": net.MessagesOfType(adaptive.TypeInfect) + net.MessagesOfType(adaptive.TypeExtend) +
				net.MessagesOfType(adaptive.TypeToken) + net.MessagesOfType(adaptive.TypeFinal),
			"flood": net.MessagesOfType(flood.TypeData),
			"stem":  net.MessagesOfType(dandelion.TypeStem),
		},
	}
	for _, at := range deliveries.All() {
		res.TimeToCoverage = max(res.TimeToCoverage, at)
	}

	if obs != nil {
		suspect := adversary.FirstSpy(obs.Observations(id))
		res.FirstSpySuspect = int32(suspect)
		res.FirstSpyCorrect = suspect == origin
		if cfg.Protocol == ProtocolFlexnet {
			// Group attack: worst case, the adversary knows the group
			// composition; honest members form the suspect set.
			for _, m := range members {
				if !obs.Corrupted(m) {
					res.GroupSuspectSet++
					res.GroupAttackHit = res.GroupAttackHit || m == origin
				}
			}
		}
	}
	return res, deliveries, nil
}

// place partitions all cfg.N nodes into groups through the kept
// directory, joining them in a random order, and returns the
// originator's group.
func (t *Trial) place(cfg Config, origin proto.NodeID, rng *rand.Rand) ([]proto.NodeID, error) {
	if err := t.dir.Reset(cfg.K); err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	// The order rng.Perm(cfg.N) would draw, in kept storage.
	t.order = slices.Grow(t.order[:0], cfg.N)[:cfg.N]
	for i := range t.order {
		t.order[i] = proto.NodeID(i)
	}
	rng.Shuffle(cfg.N, func(i, j int) { t.order[i], t.order[j] = t.order[j], t.order[i] })
	for _, v := range t.order {
		if err := t.dir.Join(v, rng); err != nil {
			return nil, fmt.Errorf("simulate: %w", err)
		}
	}
	gids := t.dir.GroupsOf(origin)
	if len(gids) == 0 {
		return nil, errors.New("simulate: originator not placed in a group (N < K?)")
	}
	return t.dir.Group(gids[0]).Members, nil
}

// network returns the trial network over g seeded with cfg.Seed: the
// kept one rebuilt in place when it was built for cfg's node count and
// latency, else a new one from build, which also retires the stacks
// mounted on the old one. The node count is the Trial's record, not the
// kept network's Topology: a kept overlay g may be that very graph,
// already overwritten.
func (t *Trial) network(g *topology.Graph, cfg Config) *sim.Network {
	if t.net != nil && t.n == cfg.N && t.latencyMs == cfg.LatencyMs {
		t.net.Rebuild(g, cfg.Seed)
		return t.net
	}
	t.net = t.build(g, cfg.Seed, netem.Profile{
		Name:    fmt.Sprintf("lat=%dms", cfg.LatencyMs),
		Latency: netem.Const(time.Duration(cfg.LatencyMs) * time.Millisecond),
	})
	t.n, t.latencyMs = cfg.N, cfg.LatencyMs
	t.stacks = [len(t.stacks)]*stack.Mounted{}
	return t.net
}

// mount installs s's handlers on the network: over the kept stack of
// s's kind, re-specified, or over a newly mounted one.
func (t *Trial) mount(s stack.Spec) {
	if m := t.stacks[s.Kind]; m != nil {
		m.Remount(s)
		return
	}
	t.stacks[s.Kind] = stack.Mount(t.net, s)
}

// Spec is the protocol stack a configuration selects, with the parameters
// Run runs each of the four under on a clean network. members is the
// originator's group (flexnet only).
func Spec(cfg Config, payloadLen int, members []proto.NodeID) stack.Spec {
	return stack.Spec{
		Kind:      stack.Kind(cfg.Protocol),
		Dandelion: dandelion.Config{Q: cfg.Q, FailSafe: 30 * time.Second},
		Adaptive:  adaptive.Config{D: cfg.D, RoundInterval: 500 * time.Millisecond, TreeDegree: cfg.Degree},
		Composed: core.Config{
			Group: members,
			DCNet: dcnet.Config{
				Mode:     dcnet.ModeFixed,
				SlotSize: payloadLen + dcnet.SlotOverhead,
				Interval: 2 * time.Second,
				Policy:   dcnet.PolicyNone,
			},
		},
	}
}

// runUntilSettled advances the simulation in steps until the broadcast
// reaches every node, coverage stops growing for a grace window after the
// first delivery (a composed Phase 1 may outlast it), or the deadline.
func runUntilSettled(net *sim.Network, id proto.MsgID, n int, deadline time.Duration) {
	const step = 500 * time.Millisecond
	grace := 0
	last := 0
	for net.Now() < deadline {
		// A simulation never blocks, so when every P runs one the garbage
		// collector's background worker is scheduled only at the runtime's
		// 10 ms forced preemption: a mark phase then lasts 12–19 ms, and
		// what the callers allocate meanwhile (≈ 0.8 GB/s in a closed
		// loop) counts as live and doubles into the next heap goal.
		// Yielding once per step keeps the mark phase at 3–5 ms and the
		// heap of such a loop at about half the size (DESIGN §2k).
		runtime.Gosched()
		net.RunUntil(net.Now() + step)
		cur := net.Delivered(id)
		if cur >= n {
			return
		}
		if cur == last && cur > 0 {
			grace++
			// Adaptive-only runs legitimately stall after the final
			// round; DC-net phases can idle for a couple of rounds
			// before the announcement lands, so wait generously.
			if grace > 20 {
				return
			}
		} else {
			grace = 0
			last = cur
		}
	}
}

// overlay returns cfg's overlay, or ErrDisconnected if it is not
// connected. A random-regular one is the Trial's builder's, overwritten
// by the next Run; the others are built anew. Random-regular graphs,
// rings and lines are connected by construction; only the rewired and
// preferential-attachment generators are checked.
func (t *Trial) overlay(cfg Config, rng *rand.Rand) (*topology.Graph, error) {
	var g *topology.Graph
	var err error
	switch cfg.Topology {
	case TopologyRandomRegular:
		return t.regular.Build(cfg.N, cfg.Degree, rng)
	case TopologyRing:
		return topology.Ring(cfg.N)
	case TopologyLine:
		return topology.Line(cfg.N)
	case TopologySmallWorld:
		g, err = topology.WattsStrogatz(cfg.N, cfg.Degree, 0.2, rng)
	case TopologyScaleFree:
		g, err = topology.BarabasiAlbert(cfg.N, cfg.Degree/2+1, rng)
	default:
		return nil, fmt.Errorf("simulate: unknown topology %d", cfg.Topology)
	}
	if err == nil && !g.Connected() {
		return nil, ErrDisconnected
	}
	return g, err
}
