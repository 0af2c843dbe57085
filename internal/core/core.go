// Package core implements the paper's primary contribution: the flexible
// privacy-preserving broadcast protocol of §IV, composing the three
// phases
//
//  1. DC-net dissemination inside the sender's group of g ∈ [k, 2k−1]
//     members (internal/dcnet, Fig. 4), giving cryptographic
//     ℓ-anonymity among the ℓ honest members;
//  2. adaptive diffusion for d rounds (internal/adaptive), smoothing the
//     statistical origin probability across a growing ball;
//  3. flood-and-prune (internal/flood), guaranteeing delivery.
//
// Both transitions follow §IV-B exactly. Phase 1 → 2: every group member
// recovers the message from the DC-net round and deterministically
// selects the initial virtual source — the member whose hashed identity
// is closest (XOR metric) to the message hash. No extra messages are
// exchanged, the choice is independent of the originator, and every
// member can verify it. Phase 2 → 3: the round counter travels with the
// virtual-source token; the final virtual source emits the final-spread
// instruction, which every infected node relays down the diffusion tree
// while boundary leaves switch to flood-and-prune.
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/adaptive"
	"repro/internal/crypto"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/topology"
)

// Config parametrizes the composed protocol. Each phase keeps its own
// configuration; core adds only what the composition owns.
type Config struct {
	// Group is the DC-net group: its members run Phase 1, every other
	// node only relays Phases 2–3 of the group's messages.
	Group []proto.NodeID
	// Hashes maps node IDs to identity hashes for virtual-source
	// selection. It must cover every node in Group.
	Hashes map[proto.NodeID][32]byte
	// FailSafe, when positive, enables the coverage-first recovery
	// behaviors on degraded networks (the Dandelion++-style fail-safe):
	// every group member that recovered a payload starts a plain flood
	// for it if Phase 2/3 have not reached it within this long, and a
	// group dissolving with queued payloads injects them directly into
	// Phase 2 instead of burning them. Both trade origin privacy for
	// delivery only after the private path demonstrably failed; zero
	// (the default) keeps the strict three-phase protocol.
	FailSafe time.Duration

	// DCNet configures Phase 1. Core sets each member's Self, Members
	// (Group) and its OnDeliver, OnSendResult and OnDissolve callbacks.
	DCNet dcnet.Config
	// Adaptive configures Phase 2. Core sets Finisher, the switch to
	// Phase 3. RetransmitTimeout must stay zero: the custody channel
	// owns the overlay's acks (custody.go).
	Adaptive adaptive.Config
}

// resolve returns cfg with every default filled: first the three where
// the composed stack departs from its phases — PolicyBlame, the paper's
// recommended general-purpose default (§V-C), rather than dcnet's
// PolicyDissolve; D = 4 rather than adaptive's 1; a retry budget of 3
// rather than 0 once Phase 1 retransmits — then each phase's own.
func resolve(cfg Config) (*Config, error) {
	if cfg.DCNet.Policy == 0 {
		cfg.DCNet.Policy = dcnet.PolicyBlame
	}
	if cfg.Adaptive.D == 0 {
		cfg.Adaptive.D = 4
	}
	if cfg.DCNet.RetransmitTimeout > 0 && cfg.DCNet.RetryBudget == 0 {
		cfg.DCNet.RetryBudget = 3
	}
	if cfg.Adaptive.RetransmitTimeout != 0 {
		return nil, errors.New("core: Adaptive.RetransmitTimeout must be zero")
	}
	if err := cfg.DCNet.ApplyDefaults(); err != nil {
		return nil, err
	}
	cfg.Adaptive.ApplyDefaults()
	for _, m := range cfg.Group {
		if _, ok := cfg.Hashes[m]; !ok {
			return nil, fmt.Errorf("%w: %d", ErrMissingHash, m)
		}
	}
	return &cfg, nil
}

// Configuration errors.
var (
	// ErrNoGroup indicates Broadcast was called on a groupless node.
	ErrNoGroup = errors.New("core: node has no DC-net group")
	// ErrMissingHash indicates a group member without an identity hash.
	ErrMissingHash = errors.New("core: identity hash missing for group member")
)

// Protocol is one node's instance of the three-phase broadcast. Its
// engines and custody channel are pointers into the node it is part of
// (see node), so the handler stays a few words wide.
type Protocol struct {
	// cfg is resolved and read-only: every node of a mounted stack
	// shares its Shared's copy.
	cfg    *Config
	member *dcnet.Member // nil when not in any group
	ad     *adaptive.Engine
	fl     *flood.Engine
	// failsafe holds payloads this group member recovered in Phase 1
	// until their fail-safe deadline passes (only under Config.FailSafe).
	failsafe map[proto.MsgID][]byte
	// custody holds payloads deposited by group-mates until Phase 1
	// recovers them or their handoff deadline fires (see custody.go).
	custody map[proto.MsgID][]byte
	// rel is the core-owned reliable channel carrying custody deposits.
	rel *relchan.Channel
	// hooks is what Init builds the Phase-1 member with.
	hooks *memberHooks
}

// memberHooks is what a node lends its Phase-1 member: the round pool —
// the node's partition pool of a Shared, or a private one (New) — and
// the member's three callbacks, bound to the node's Protocol once per
// node slot, so a warm Init allocates nothing.
type memberHooks struct {
	pool         *dcnet.RoundPool
	onDeliver    func(ctx proto.Context, round uint32, payload []byte)
	onSendResult func(ctx proto.Context, payload []byte, ok bool)
	onDissolve   func(ctx proto.Context, reason string)
}

// node is the core-owned state of one node: its Protocol, and the flood
// engine, custody channel and member hooks the Protocol points at. A
// Shared holds one per node in a slab, so mounting a network allocates
// nothing per node; New allocates a lone one. A node must not move once
// built: its Protocol points into it, its hooks point at its Protocol,
// and the channel's retry timers name the channel by address.
type node struct {
	p     Protocol
	fl    flood.Engine
	rel   relchan.Channel
	hooks memberHooks
}

// bind makes nd's Protocol a fresh one over cfg, pointing at nd's flood
// engine (which the caller sets), at nd's custody channel, re-Inited,
// and at nd's member hooks, whose pool the caller sets. It returns the
// Phase-2 configuration whose Finisher is that Protocol.
func (nd *node) bind(cfg *Config) (*Protocol, adaptive.Config) {
	nd.rel.Init(custodyConfig(cfg))
	p := &nd.p
	*p = Protocol{cfg: cfg, fl: &nd.fl, rel: &nd.rel, hooks: &nd.hooks}
	if nd.hooks.onDeliver == nil {
		nd.hooks.onDeliver = func(ctx proto.Context, _ uint32, payload []byte) {
			p.onGroupMessage(ctx, payload)
		}
		nd.hooks.onSendResult = func(ctx proto.Context, payload []byte, ok bool) {
			if ok {
				// The sender recovers 0, not its own message; run the
				// same transition logic for its own payload.
				p.onGroupMessage(ctx, payload)
			}
		}
		nd.hooks.onDissolve = func(ctx proto.Context, _ string) {
			p.onDissolve(ctx)
		}
	}
	ad := cfg.Adaptive
	ad.Finisher = (*finisher)(p)
	return p, ad
}

// failsafeTimer drives one payload's fail-safe deadline.
type failsafeTimer struct{ id proto.MsgID }

var _ proto.Broadcaster = (*Protocol)(nil)

// New builds a node protocol from the configuration, with standalone
// Phase-2/3 engines that own their per-message maps and a private
// Phase-1 round pool — right for a long-lived node (internal/node, the
// TCP runtime), which never resets.
func New(cfg Config) (*Protocol, error) {
	r, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	nd := &node{fl: *flood.NewEngine()}
	nd.hooks.pool = new(dcnet.RoundPool)
	p, ad := nd.bind(r)
	p.ad = adaptive.NewEngine(ad)
	return p, nil
}

// Shared is the network-wide state of the composed stack: its resolved
// configuration, the flood.Shared and adaptive.Shared its Phase-3 and
// Phase-2 engines mount (see those types for the contract — one Shared
// per simulated network, single-threaded), the node-indexed slab of
// core-owned node state NewAt hands out, and one Phase-1 trial round
// pool per partition.
type Shared struct {
	cfg   *Config
	fl    *flood.Shared
	ad    *adaptive.Shared
	nodes []node
	// pools holds one dcnet trial pool per contiguous node range of the
	// Partition split: members of different shards run concurrently, so
	// they must not lend from one pool. Reset takes back everything the
	// last trial's members were lent.
	pools []*dcnet.RoundPool
}

// NewShared resolves cfg once for every node of a network with node IDs
// in [0, n) and returns its shared composed-stack state.
func NewShared(n int, cfg Config) (*Shared, error) {
	r, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	return &Shared{
		cfg: r, fl: flood.NewShared(n), ad: adaptive.NewShared(n), nodes: make([]node, n),
		pools: []*dcnet.RoundPool{dcnet.NewTrialPool()},
	}, nil
}

// Partition splits both members and the round pools into k node-range
// parts (see flood.Shared.Partition for the contract). internal/stack
// calls it with the network's resolved shard count, before it builds any
// protocol.
func (s *Shared) Partition(k int) {
	s.fl.Partition(k)
	s.ad.Partition(k)
	s.pools = make([]*dcnet.RoundPool, min(max(k, 1), len(s.nodes)))
	for i := range s.pools {
		s.pools[i] = dcnet.NewTrialPool()
	}
}

// Configure resolves cfg in place of the configuration the Shared was
// built or last configured with, keeping its node count, partition and
// slabs — the trial-loop form of NewShared for a network whose next
// trial has another group or other parameters. Like after Reset, every
// node's protocol must then be rebuilt with NewAt; protocols built
// before keep the configuration they were built with.
func (s *Shared) Configure(cfg Config) error {
	r, err := resolve(cfg)
	if err != nil {
		return err
	}
	s.cfg = r
	return nil
}

// Reset rewinds both members for the next trial and takes back every
// Phase-1 member and round buffer the last trial was lent, so the network
// that ran it must be reset or rebuilt first (no message of it may be
// delivered after). Protocols built before it hold per-node Phase-1 and
// custody state Reset cannot see, and point at members the pools will
// lend again: rebuild every node's with NewAt, which resets its slot in
// place.
func (s *Shared) Reset() {
	s.fl.Reset()
	s.ad.Reset()
	for _, p := range s.pools {
		p.Reset()
	}
}

// NewAt builds the protocol of node self over shared state — the
// handler-factory form for simulated networks, like flood.NewAt and
// adaptive.NewAt: a thousand stacks share one configuration and two
// tables instead of owning a copy and two maps each, and every node's
// state is node self's slot of the Shared's slabs, rebuilt in place, so
// installing a network's handlers allocates nothing. It behaves exactly
// like New, and invalidates the Protocol an earlier NewAt returned for
// self.
func NewAt(shared *Shared, self proto.NodeID) *Protocol {
	nd := &shared.nodes[self]
	nd.fl = *flood.NewEngineAt(shared.fl, self)
	nd.hooks.pool = shared.pools[topology.ShardOf(self, len(shared.nodes), len(shared.pools))]
	p, ad := nd.bind(shared.cfg)
	p.ad = adaptive.NewEngineAt(ad, shared.ad, self)
	return p
}

// Init implements proto.Handler. The DC-net member is created lazily here
// because the node ID (Context.Self) is only known at runtime. On a
// Shared's trial pool the member is one the pool kept, valid until the
// Shared's Reset, after which NewAt rebinds this node's Protocol.
func (p *Protocol) Init(ctx proto.Context) {
	if !slices.Contains(p.cfg.Group, ctx.Self()) {
		return
	}
	h := p.hooks
	dc := p.cfg.DCNet
	dc.Self, dc.Members = ctx.Self(), p.cfg.Group
	dc.OnDeliver, dc.OnSendResult, dc.OnDissolve = h.onDeliver, h.onSendResult, h.onDissolve
	member, err := h.pool.NewMember(dc)
	if err != nil {
		// resolve validated the configuration; what remains is a group
		// of one, a wiring bug.
		panic(fmt.Sprintf("core: building DC-net member: %v", err))
	}
	p.member = member
	member.Start(ctx)
}

// Member exposes the Phase-1 DC-net member (nil for groupless nodes).
func (p *Protocol) Member() *dcnet.Member { return p.member }

// RelRetransmits returns custody-deposit retransmissions. Phase-1
// DC-net retransmissions are reported separately via
// Member().Retransmits().
func (p *Protocol) RelRetransmits() int { return p.rel.Retransmits }

// RelNacks returns retransmission requests sent by the custody channel.
func (p *Protocol) RelNacks() int { return p.rel.Nacks }

// RelHandoffs returns custody payloads this node launched in place of
// a churned originator.
func (p *Protocol) RelHandoffs() int { return p.rel.Handoffs }

// recovery reports whether the coverage-first degraded-network
// behaviors (fail-safe flood, direct injection on dissolve) are on.
func (p *Protocol) recovery() bool { return p.cfg.FailSafe > 0 }

// Broadcast implements proto.Broadcaster: the payload enters the node's
// DC-net group anonymously (Phase 1). Under recovery mode a broadcast
// on a dissolved group degrades to direct Phase-2 injection instead of
// failing — reduced origin privacy, preserved delivery.
func (p *Protocol) Broadcast(ctx proto.Context, payload []byte) (proto.MsgID, error) {
	if p.member == nil {
		return proto.MsgID{}, ErrNoGroup
	}
	id := proto.NewMsgID(payload)
	if p.fl.Seen(id) || p.ad.State(id) != nil {
		return id, nil
	}
	if p.member.Stopped() && p.recovery() {
		p.injectDirect(ctx, payload)
		return id, nil
	}
	if err := p.member.Queue(payload); err != nil {
		return proto.MsgID{}, fmt.Errorf("core: queueing broadcast: %w", err)
	}
	if p.recovery() {
		// Fail-safe custody: the queued payload would die with this node
		// if it churned before winning a data round, so group-mates hold
		// a copy until Phase 1 demonstrably recovers it (custody.go).
		p.depositCustody(ctx, id, payload)
	}
	return id, nil
}

// onDissolve handles a burned group: under recovery mode it re-routes
// the queued payloads straight into Phase 2 — the "group dissolved
// below the floor" fallback that degrades coverage gracefully instead
// of to zero.
func (p *Protocol) onDissolve(ctx proto.Context) {
	if !p.recovery() {
		return
	}
	for _, payload := range p.member.DrainQueue() {
		p.injectDirect(ctx, payload)
	}
}

// injectDirect starts Phase 2 at this node for a payload that could not
// take the DC-net path — the sender becomes the initial virtual source,
// so it keeps the diffusion ball's statistical cover but loses the
// group's cryptographic ℓ-anonymity.
func (p *Protocol) injectDirect(ctx proto.Context, payload []byte) {
	id := proto.NewMsgID(payload)
	if p.ad.State(id) != nil || p.fl.Seen(id) {
		return
	}
	p.ad.StartCenter(ctx, id, payload)
}

// onGroupMessage handles the Phase 1 → 2 transition at every group
// member once the DC-net recovers a message.
func (p *Protocol) onGroupMessage(ctx proto.Context, payload []byte) {
	id := proto.NewMsgID(payload)
	// Phase 1 recovered the payload: the originator's launch succeeded,
	// so any custody copy this member holds for it is resolved.
	delete(p.custody, id)
	if p.ad.State(id) != nil || p.fl.Seen(id) {
		return // duplicate recovery (e.g. retransmission after collision)
	}
	if p.recovery() {
		// Fail-safe (after Dandelion++'s fail-safe mechanism): every
		// group member holds the payload, so each arms a deadline; a
		// member the Phase-3 flood has not reached by then assumes the
		// private path died — a lost virtual-source token, a dropped
		// final-spread — and floods the payload itself. On a healthy
		// run the deadline passes after the flood and sends nothing.
		if p.failsafe == nil {
			p.failsafe = make(map[proto.MsgID][]byte)
		}
		p.failsafe[id] = payload
		ctx.SetTimer(p.cfg.FailSafe, failsafeTimer{id: id})
	}
	vs0 := p.virtualSource(payload)
	if vs0 == ctx.Self() {
		// §IV-B: the selected member starts adaptive diffusion "by
		// balancing the graph around them".
		p.ad.StartCenter(ctx, id, payload)
		return
	}
	// Other group members hold the payload silently: they deliver
	// locally (they possess the message) but do not spread it — doing so
	// would reveal the group. They still forward the Phase-3 flood when
	// it reaches them like any other node; marking the payload seen here
	// would make group members flood barriers (on sparse topologies such
	// as rings they would partition the broadcast).
	ctx.DeliverLocal(id, payload)
}

// virtualSource returns the group member whose hashed identity is closest
// to the message hash (§IV-B) — deterministic, verifiable by all members,
// independent of the originator. The election runs over the *live*
// membership: after a failover eviction every survivor selects among the
// survivors, so a crashed member can never be elected into a black hole.
func (p *Protocol) virtualSource(payload []byte) proto.NodeID {
	members := p.cfg.Group
	if p.member != nil {
		members = p.member.MembersView()
	}
	target := crypto.HashPayload(payload)
	best := proto.NoNode
	var bestDist [32]byte
	for _, m := range members {
		d := crypto.DistanceTo(p.cfg.Hashes[m], target)
		if best == proto.NoNode || crypto.XORDistance(d, bestDist) < 0 {
			best, bestDist = m, d
		}
	}
	return best
}

// HandleMessage implements proto.Handler, routing to the three phases.
// Custody-channel traffic is routed first: the composed node's other
// channels (the DC-net's, with its own compact acks, and the Phase-2
// engine's, never mounted here) never carry the generic relchan types.
func (p *Protocol) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	switch m := msg.(type) {
	case *relchan.CustodyMsg:
		p.onCustody(ctx, from, m)
		return
	case *relchan.AckMsg:
		p.rel.OnAck(ctx, from, m.ID)
		return
	case *relchan.NackMsg:
		p.rel.OnNack(ctx, from, m.ID)
		return
	}
	if p.member != nil && p.member.HandleMessage(ctx, from, msg) {
		return
	}
	if p.ad.HandleMessage(ctx, from, msg) {
		return
	}
	if m, ok := msg.(*flood.DataMsg); ok {
		// An infected node already possesses the payload and assumes its
		// Phase-3 role when the final-spread instruction reaches it
		// (prune at interior nodes, spread at leaves). Pruning the flood
		// here — even before that instruction arrives — keeps Phase-3
		// cost independent of whether a wrapped flood front outruns the
		// final wave, a race a wall-clock runtime would otherwise decide
		// differently from the simulator run to run. The trade-off: if
		// the final-spread instruction to this node were lost, it would
		// not fall back to forwarding the flood. That is inside the
		// model — Context.Send is reliable per link (honest-but-curious,
		// §II), and a lost final already breaks coverage at leaves in
		// any case — so determinism wins here; loss recovery belongs in
		// a retransmission layer, not in a timing race.
		if p.ad.State(m.ID) != nil {
			return
		}
		p.fl.HandleData(ctx, from, m)
	}
}

// HandleTimer implements proto.Handler.
func (p *Protocol) HandleTimer(ctx proto.Context, payload any) {
	if t, ok := payload.(failsafeTimer); ok {
		p.onFailSafe(ctx, t.id)
		return
	}
	if t, ok := payload.(custodyTimer); ok {
		p.onCustodyDeadline(ctx, t.id)
		return
	}
	if p.rel.HandleTimer(ctx, payload) {
		return
	}
	if p.member != nil && p.member.HandleTimer(ctx, payload) {
		return
	}
	p.ad.HandleTimer(ctx, payload)
}

// onFailSafe fires one payload's fail-safe deadline: if the flood has
// not passed through this node yet, start it here.
func (p *Protocol) onFailSafe(ctx proto.Context, id proto.MsgID) {
	payload, ok := p.failsafe[id]
	if !ok {
		return
	}
	delete(p.failsafe, id)
	if !p.fl.MarkSeen(id) {
		return // Phase 3 already came through; nothing to recover
	}
	p.fl.Spread(ctx, id, payload, 0)
}

// finisher adapts the Phase 2 → 3 transition: when the final-spread
// instruction reaches a node, boundary leaves start the flood while
// interior nodes only mark the payload seen so the flood prunes there.
type finisher Protocol

var _ adaptive.Finisher = (*finisher)(nil)

// OnFinal implements adaptive.Finisher.
func (f *finisher) OnFinal(ctx proto.Context, id proto.MsgID, st *adaptive.State) {
	p := (*Protocol)(f)
	if !st.IsLeaf() {
		p.fl.MarkSeen(id)
		return
	}
	if !p.fl.MarkSeen(id) {
		return // flood already passed through this node
	}
	// Leaves spread to everyone except the infection parent; duplicates
	// prune at infected neighbors.
	if st.Parent != proto.NoNode {
		p.fl.Spread(ctx, id, st.Payload, 0, st.Parent)
	} else {
		p.fl.Spread(ctx, id, st.Payload, 0)
	}
}
