// Package adaptive implements adaptive diffusion (Fanti et al.,
// "Spy vs. Spy: Rumor Source Obfuscation", SIGMETRICS 2015), the Phase-2
// statistical spreading mechanism of the paper: a virtual-source token
// performs a carefully biased walk away from the origin while the set of
// infected nodes stays a ball centred at the token holder, so that the
// true origin is (near-)uniformly distributed inside the infected set.
//
// The engine maintains, per message, the who-infected-whom tree. Control
// traffic (Extend, Final) travels along tree edges; payload traffic
// (Infect) crosses to uninfected nodes. One virtual-source round per
// Config.RoundInterval either keeps the token (the ball radius grows by
// one everywhere) or passes it away from the previous holder (the far
// subtree grows by two), with pass probability Alpha(d, ρ, h).
//
// Two entry points exist: StartSource is the protocol of the original
// publication (the origin immediately hands the token to a random
// neighbor); StartCenter is the composed protocol's §IV-B variant where
// the hash-selected group member starts "by balancing the graph around
// them". A Finisher hook receives the final-spread instruction, which the
// composed protocol uses to switch to flood-and-prune (Phase 3).
package adaptive

import (
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/topology"
	"repro/internal/visited"
)

// Config parametrizes the diffusion.
type Config struct {
	// D is the number of virtual-source rounds before the final spread is
	// emitted; the infection ball reaches radius ≈ D+1. The paper picks D
	// "based on the network diameter" (§IV-B).
	D int
	// RoundInterval separates virtual-source rounds. It must comfortably
	// exceed the network round-trip across the infected ball for the
	// tree invariants to hold (the paper assumes synchronized rounds).
	RoundInterval time.Duration
	// TreeDegree is the degree assumption d used in Alpha. Zero means
	// "use the current virtual source's own degree".
	TreeDegree int
	// AlphaOverride, when nonzero, replaces Alpha with a constant pass
	// probability — an ablation hook (experiment A1); the forced pass at
	// h=0 still applies.
	AlphaOverride float64
	// Finisher, if non-nil, is invoked at every infected node when the
	// final-spread instruction arrives.
	Finisher Finisher
	// RetransmitTimeout mounts the reliable overlay channel (relchan)
	// under the engine: every diffusion message is tracked until the
	// receiver acks it and retransmitted after this long, up to
	// RetryBudget times. It must exceed the worst-case network round
	// trip (data + ack). Zero disables — the unmounted protocol,
	// byte-for-byte.
	RetransmitTimeout time.Duration
	// RetryBudget bounds retransmissions per message.
	RetryBudget int
}

// Finisher receives the end-of-diffusion event at each infected node.
type Finisher interface {
	// OnFinal runs when the node learns diffusion has ended. st is the
	// node's tree state for the message; leaf nodes (no children) are
	// the infection boundary and should continue dissemination.
	OnFinal(ctx proto.Context, id proto.MsgID, st *State)
}

// State is one node's view of one message's diffusion tree.
type State struct {
	Payload  []byte
	Parent   proto.NodeID // NoNode at the origin
	Children []proto.NodeID

	lastRound uint16 // highest control round processed (dedup)
	finalDone bool
}

// IsLeaf reports whether the node is on the infection boundary.
func (s *State) IsLeaf() bool { return len(s.Children) == 0 }

// vsState is the virtual-source bookkeeping at the token holder.
type vsState struct {
	rho   int          // current ball radius
	h     int          // token distance from the origin of the walk
	prev  proto.NodeID // previous token holder (NoNode initially)
	timer proto.TimerID
}

// roundTimer is the timer payload driving virtual-source rounds.
type roundTimer struct{ id proto.MsgID }

// Shared is network-wide diffusion state sized to the node count: one
// dense vector of tree-state pointers per in-flight
// message (replacing the per-node map[proto.MsgID]*State), a free list
// recycling the State objects — and their Children slices — across
// trials, one relay set per partition cell, and one
// node-indexed slab holding every node's Protocol and engine, so
// mounting a network allocates nothing per node. All engines of one
// simulated network share one Shared; trial loops Reset it between
// sequentially simulated networks.
//
// Like flood.Shared, it is single-threaded by design: each parallel
// trial-runner worker owns its own Shared alongside its own network.
type Shared struct {
	n     int
	parts []adaptPart
	// gen counts Resets; engines compare it to drop their per-node
	// virtual-source/pending-token leftovers from earlier trials. It is
	// written only between runs, so concurrent shards reading it race-free.
	gen uint64
	// protos is the slab NewAt and NewEngineAt hand out: node v's
	// Protocol, and the engine inside it, live at protos[v].
	protos []Protocol
}

// adaptPart is the diffusion state of one contiguous node range: under
// the sharded event loop each shard's handlers touch exactly one part.
type adaptPart struct {
	states *visited.Table[*State]
	pool   *visited.Pool[*State]
	// ids is the unused rest of the chunk Children slices are carved
	// from (childrenRoom).
	ids []proto.NodeID
	// infects and finals are the cell's relayed diffusion messages: one
	// InfectMsg per (message, TTL, round) and one FinalMsg per (message,
	// round), sent by every node of the cell that relays that message at
	// that step — the dense form of flood's per-hop relay set. The ID is
	// the payload's hash, so the key fixes every field. Messages are never
	// recycled: Reset only forgets them, and a receiver may hold one for
	// as long as it likes.
	infects map[infectKey]*InfectMsg
	finals  map[finalKey]*FinalMsg
}

type infectKey struct {
	id         proto.MsgID
	ttl, round uint16
}

type finalKey struct {
	id    proto.MsgID
	round uint16
}

// stateChunk and idChunk are how many States and Children entries a part
// allocates at once: a trial that infects every node then costs one
// allocation per chunk, not one or more per node. A pooled State keeps
// its carved Children across trials.
const (
	stateChunk = 128
	idChunk    = 1024
)

// carve returns an empty slice with room for exactly n IDs, cut from the
// part's chunk; the capped capacity keeps neighbouring cuts apart.
func (p *adaptPart) carve(n int) []proto.NodeID {
	if len(p.ids) < n {
		p.ids = make([]proto.NodeID, max(n, idChunk))
	}
	out := p.ids[:0:n]
	p.ids = p.ids[n:]
	return out
}

func newAdaptPart(lo, hi int) adaptPart {
	var chunk []State
	return adaptPart{
		states:  visited.NewTableRange[*State](lo, hi),
		infects: make(map[infectKey]*InfectMsg),
		finals:  make(map[finalKey]*FinalMsg),
		pool: visited.NewPool(
			func() *State {
				if len(chunk) == 0 {
					chunk = make([]State, min(stateChunk, hi-lo))
				}
				st := &chunk[0]
				chunk = chunk[1:]
				st.Parent = proto.NoNode
				return st
			},
			func(st *State) {
				st.Payload = nil // do not pin trial payloads through the pool
				st.Parent = proto.NoNode
				st.Children = st.Children[:0]
				st.lastRound = 0
				st.finalDone = false
			},
		),
	}
}

// NewShared returns shared diffusion state for node IDs in [0, n).
func NewShared(n int) *Shared {
	s := &Shared{n: n, protos: make([]Protocol, n)}
	s.Partition(1)
	return s
}

// Partition splits the state into k contiguous node-range parts aligned
// with the sharded network's topology.ShardBounds partition (see
// flood.Shared.Partition — the same contract: call while idle, before
// engines are built; k=1 restores the unpartitioned form; called by
// internal/stack.Mount with the network's resolved ShardCount, and by
// core.Shared.Partition).
func (s *Shared) Partition(k int) {
	if k < 1 {
		k = 1
	}
	if k > s.n {
		k = s.n
	}
	bounds := topology.ShardBounds(s.n, k)
	s.parts = make([]adaptPart, k)
	for i := range s.parts {
		s.parts[i] = newAdaptPart(int(bounds[i]), int(bounds[i+1]))
	}
}

// N returns the node count the state was sized for.
func (s *Shared) N() int { return s.n }

// part returns the partition cell owning node self.
func (s *Shared) part(self proto.NodeID) *adaptPart {
	return &s.parts[topology.ShardOf(self, s.n, len(s.parts))]
}

// Reset invalidates all per-message state, reclaims the State objects
// for the next trial and forgets the relay sets. The previous trial's
// network must be drained or discarded; engines notice the new
// generation and drop any virtual-source or buffered-token state a
// truncated trial left behind.
func (s *Shared) Reset() {
	for i := range s.parts {
		s.parts[i].states.Reset()
		s.parts[i].pool.Reset()
		clear(s.parts[i].infects)
		clear(s.parts[i].finals)
	}
	s.gen++
}

// Engine executes adaptive diffusion for any number of concurrent
// messages at one node.
//
// Tree state lives either in a per-node map (standalone mode, NewEngine)
// or in dense vectors shared across the whole network (NewEngineAt).
// The virtual-source and pending-token maps stay per-node in both modes
// — at most one node holds the token — and are allocated lazily, so
// idle nodes cost nothing. An engine must not be copied once built: its
// channel's retry timers name the channel by address.
type Engine struct {
	cfg    Config
	states map[proto.MsgID]*State // standalone mode; nil in dense mode
	shared *Shared                // dense mode; nil in standalone mode
	// part caches the partition cell owning self (dense mode), resolved
	// at construction so the hot path never re-derives it.
	part *adaptPart
	self proto.NodeID
	gen  uint64                   // last Shared generation synced (dense mode)
	vs   map[proto.MsgID]*vsState // lazy: only ever the token holder
	// pendingToken buffers a token that arrived before the payload (only
	// possible under exotic latency models; links are FIFO).
	pendingToken map[proto.MsgID]*TokenMsg
	// rel is the reliable overlay channel (disabled unless
	// Config.RetransmitTimeout is set).
	rel relchan.Channel
}

// Reliable-channel kinds tagging which diffusion message an identity
// names. Within one (message, round) a sender emits at most one message
// of each kind per directed link, so (MsgID-prefix, round, kind) indexes
// retransmissions without touching the message encodings.
const (
	relKindInfect uint8 = iota + 1
	relKindExtend
	relKindToken
	relKindFinal
)

func channelConfig(cfg *Config) relchan.Config {
	return relchan.Config{
		RTO:         cfg.RetransmitTimeout,
		RetryBudget: cfg.RetryBudget,
	}
}

// msgIdent derives a message's channel identity from its content — the
// same bytes both ends see, so sender tracking and receiver acks agree
// without extra wire fields.
func msgIdent(msg proto.Message) (relchan.ID, bool) {
	switch m := msg.(type) {
	case *InfectMsg:
		return relIdent(m.ID, m.Round, relKindInfect), true
	case *ExtendMsg:
		return relIdent(m.ID, m.Round, relKindExtend), true
	case *TokenMsg:
		return relIdent(m.ID, m.Round, relKindToken), true
	case *FinalMsg:
		return relIdent(m.ID, m.Round, relKindFinal), true
	}
	return relchan.ID{}, false
}

func relIdent(id proto.MsgID, round uint16, kind uint8) relchan.ID {
	return relchan.ID{
		Stream: binary.LittleEndian.Uint64(id[:8]),
		Seq:    uint32(round),
		Kind:   kind,
	}
}

// send transmits a diffusion message through the reliable channel (a
// plain Context.Send when the channel is disabled).
func (e *Engine) send(ctx proto.Context, to proto.NodeID, msg proto.Message) {
	id, _ := msgIdent(msg)
	e.rel.Send(ctx, to, msg, id)
}

// Channel exposes the engine's reliable channel (probes, experiments).
func (e *Engine) Channel() *relchan.Channel { return &e.rel }

// sync drops per-engine leftovers from a previous trial. Dense-mode
// engines are reused across Shared.Reset generations, and a trial
// stopped mid-diffusion (the run-until-coverage loops) can leave a live
// vsState or a buffered token behind — state Shared.Reset cannot see.
// Without this, a repeated payload (same MsgID) in the next trial would
// hit the stale virtual-source entry and silently drop its token.
func (e *Engine) sync() {
	if e.shared != nil && e.gen != e.shared.gen {
		e.gen = e.shared.gen
		clear(e.vs)
		clear(e.pendingToken)
		// Re-Init drops the previous trial's pending/seen maps. The
		// channel keeps its address, so a retry timer from that trial
		// would still name it; but Shared.Reset requires that trial's
		// network drained or discarded, so none is left to fire.
		e.rel.Init(channelConfig(&e.cfg))
	}
}

// ApplyDefaults fills every unset field with its default. The engine
// constructors apply it to their copy.
func (cfg *Config) ApplyDefaults() {
	if cfg.D < 1 {
		cfg.D = 1
	}
	if cfg.RoundInterval <= 0 {
		cfg.RoundInterval = 500 * time.Millisecond
	}
}

// NewEngine returns a standalone engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	e := new(Engine)
	e.init(cfg)
	return e
}

// init makes e a fresh standalone engine, in place.
func (e *Engine) init(cfg Config) {
	cfg.ApplyDefaults()
	*e = Engine{cfg: cfg}
	e.rel.Init(channelConfig(&e.cfg))
}

// NewEngineAt returns the engine of node self backed by shared dense
// state: node self's slot of the Shared's slab, rebuilt in place, so it
// allocates nothing. It invalidates the engine (and Protocol) an earlier
// NewAt or NewEngineAt returned for self; engines are reusable across
// trials (Reset the Shared between trials).
func NewEngineAt(cfg Config, shared *Shared, self proto.NodeID) *Engine {
	if int(self) < 0 || int(self) >= shared.N() {
		panic("adaptive: NewEngineAt node out of range")
	}
	e := &shared.protos[self].engine
	e.init(cfg)
	e.shared, e.part, e.self, e.gen = shared, shared.part(self), self, shared.gen
	return e
}

// State returns the node's tree state for a message, or nil.
func (e *Engine) State(id proto.MsgID) *State {
	e.sync()
	if e.shared != nil {
		if vec := e.part.states.Lookup(id); vec != nil {
			if st, ok := vec.Get(e.self); ok {
				return st
			}
		}
		return nil
	}
	return e.states[id]
}

// putState registers fresh tree state for a message at this node. The
// caller must have checked absence.
func (e *Engine) putState(id proto.MsgID, payload []byte, parent proto.NodeID, round uint16) *State {
	var st *State
	if e.shared != nil {
		st = e.part.pool.Get()
		st.Payload, st.Parent, st.lastRound = payload, parent, round
		e.part.states.Vec(id).Set(e.self, st)
		return st
	}
	st = &State{Payload: payload, Parent: parent, lastRound: round}
	if e.states == nil {
		e.states = make(map[proto.MsgID]*State)
	}
	e.states[id] = st
	return st
}

// infectMsg returns the Infect to send for (id, ttl, round): in dense
// mode the cell's, created on first use, in standalone mode a new one.
func (e *Engine) infectMsg(id proto.MsgID, ttl, round uint16, payload []byte) *InfectMsg {
	if e.part == nil {
		return &InfectMsg{ID: id, TTL: ttl, Round: round, Payload: payload}
	}
	k := infectKey{id, ttl, round}
	m := e.part.infects[k]
	if m == nil {
		m = &InfectMsg{ID: id, TTL: ttl, Round: round, Payload: payload}
		e.part.infects[k] = m
	}
	return m
}

// finalMsg returns the Final to relay for (id, round), shared per cell
// in dense mode like infectMsg.
func (e *Engine) finalMsg(id proto.MsgID, round uint16) *FinalMsg {
	if e.part == nil {
		return &FinalMsg{ID: id, Round: round}
	}
	k := finalKey{id, round}
	m := e.part.finals[k]
	if m == nil {
		m = &FinalMsg{ID: id, Round: round}
		e.part.finals[k] = m
	}
	return m
}

// childrenRoom makes room for n more children, so recording a node's
// children allocates at most once — in dense mode not at all outside the
// part's chunk.
func (e *Engine) childrenRoom(st *State, n int) {
	if cap(st.Children)-len(st.Children) >= n {
		return
	}
	if e.part == nil {
		st.Children = slices.Grow(st.Children, n)
		return
	}
	st.Children = append(e.part.carve(len(st.Children)+n), st.Children...)
}

// setVS installs virtual-source bookkeeping, allocating the map on first
// use.
func (e *Engine) setVS(id proto.MsgID, v *vsState) {
	if e.vs == nil {
		e.vs = make(map[proto.MsgID]*vsState, 1)
	}
	e.vs[id] = v
}

// IsVirtualSource reports whether this node currently holds the token.
func (e *Engine) IsVirtualSource(id proto.MsgID) bool {
	e.sync()
	_, ok := e.vs[id]
	return ok
}

// StartSource begins diffusion in the mode of the original publication:
// the origin infects one random neighbor and immediately hands it the
// token, so the origin never acts as virtual source.
func (e *Engine) StartSource(ctx proto.Context, id proto.MsgID, payload []byte) {
	if e.State(id) != nil {
		return
	}
	st := e.putState(id, payload, proto.NoNode, 1)
	ctx.DeliverLocal(id, payload)
	nbs := ctx.Neighbors()
	if len(nbs) == 0 {
		return
	}
	v1 := nbs[ctx.Rand().IntN(len(nbs))]
	e.send(ctx, v1, e.infectMsg(id, 1, 1, payload))
	e.send(ctx, v1, &TokenMsg{ID: id, Round: 1, H: 1})
	st.Children = append(st.Children, v1)
}

// StartCenter begins diffusion in the composed protocol's §IV-B mode:
// this node (selected by hash distance within the DC-net group) balances
// the graph around itself and becomes the initial virtual source. Its
// first round forces a token pass (Alpha at h=0 is 1).
func (e *Engine) StartCenter(ctx proto.Context, id proto.MsgID, payload []byte) {
	if e.State(id) != nil {
		return
	}
	st := e.putState(id, payload, proto.NoNode, 1)
	ctx.DeliverLocal(id, payload)
	out := e.infectMsg(id, 1, 1, payload)
	nbs := ctx.Neighbors()
	e.childrenRoom(st, len(nbs))
	for _, nb := range nbs {
		e.send(ctx, nb, out)
		st.Children = append(st.Children, nb)
	}
	v := &vsState{rho: 1, h: 0, prev: proto.NoNode}
	e.setVS(id, v)
	v.timer = ctx.SetTimer(e.cfg.RoundInterval, roundTimer{id: id})
}

// HandleMessage dispatches adaptive-diffusion messages; it reports
// whether the message was consumed. With the reliable channel mounted,
// every copy of a diffusion message is acked and retransmitted copies
// are suppressed before dispatch — handleToken in particular is not
// idempotent (a replayed token would re-install virtual-source state
// this node already passed on).
func (e *Engine) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) bool {
	switch m := msg.(type) {
	case *relchan.AckMsg:
		if !e.rel.Enabled() {
			return false
		}
		e.rel.OnAck(ctx, from, m.ID)
		return true
	case *relchan.NackMsg:
		if !e.rel.Enabled() {
			return false
		}
		e.rel.OnNack(ctx, from, m.ID)
		return true
	}
	if id, ok := msgIdent(msg); ok && e.rel.Receive(ctx, from, id) {
		return true // retransmitted copy: re-acked above, already processed
	}
	switch m := msg.(type) {
	case *InfectMsg:
		e.handleInfect(ctx, from, m)
	case *ExtendMsg:
		e.handleExtend(ctx, from, m)
	case *TokenMsg:
		e.handleToken(ctx, from, m)
	case *FinalMsg:
		e.handleFinal(ctx, from, m)
	default:
		return false
	}
	return true
}

// HandleTimer processes virtual-source round timers; it reports whether
// the payload belonged to this engine.
func (e *Engine) HandleTimer(ctx proto.Context, payload any) bool {
	if rt, ok := payload.(roundTimer); ok {
		e.runRound(ctx, rt.id)
		return true
	}
	return e.rel.HandleTimer(ctx, payload)
}

func (e *Engine) handleInfect(ctx proto.Context, from proto.NodeID, m *InfectMsg) {
	if e.State(m.ID) != nil {
		return // prune: already infected
	}
	st := e.putState(m.ID, m.Payload, from, m.Round)
	ctx.DeliverLocal(m.ID, m.Payload)
	if m.TTL > 1 {
		out := e.infectMsg(m.ID, m.TTL-1, m.Round, m.Payload)
		nbs := ctx.Neighbors()
		e.childrenRoom(st, len(nbs))
		for _, nb := range nbs {
			if nb == from {
				continue
			}
			e.send(ctx, nb, out)
			st.Children = append(st.Children, nb)
		}
	}
	if tok, ok := e.pendingToken[m.ID]; ok {
		delete(e.pendingToken, m.ID)
		e.handleToken(ctx, from, tok)
	}
}

// hasRelays reports whether st has a tree neighbor — parent or child —
// other than except.
func hasRelays(st *State, except proto.NodeID) bool {
	if st.Parent != proto.NoNode && st.Parent != except {
		return true
	}
	for _, c := range st.Children {
		if c != except {
			return true
		}
	}
	return false
}

// relay sends msg along the tree: to the parent, then to each child,
// skipping except.
func (e *Engine) relay(ctx proto.Context, st *State, except proto.NodeID, msg proto.Message) {
	if st.Parent != proto.NoNode && st.Parent != except {
		e.send(ctx, st.Parent, msg)
	}
	for _, c := range st.Children {
		if c != except {
			e.send(ctx, c, msg)
		}
	}
}

func (e *Engine) handleExtend(ctx proto.Context, from proto.NodeID, m *ExtendMsg) {
	st := e.State(m.ID)
	if st == nil || m.Round <= st.lastRound {
		return
	}
	st.lastRound = m.Round
	e.extendSubtree(ctx, st, m, from)
}

// extendSubtree relays a grow instruction away from `from`; boundary
// nodes convert it into fresh infections of depth m.Depth.
func (e *Engine) extendSubtree(ctx proto.Context, st *State, m *ExtendMsg, from proto.NodeID) {
	if hasRelays(st, from) {
		e.relay(ctx, st, from, m)
		return
	}
	// Boundary: infect outward, away from the infection parent.
	e.infectOutward(ctx, st, m.ID, m.Depth, m.Round)
}

// infectOutward sends fresh infections with the given TTL to all
// non-parent neighbors and records them as children.
func (e *Engine) infectOutward(ctx proto.Context, st *State, id proto.MsgID, ttl, round uint16) {
	out := e.infectMsg(id, ttl, round, st.Payload)
	nbs := ctx.Neighbors()
	e.childrenRoom(st, len(nbs))
	for _, nb := range nbs {
		if nb == st.Parent {
			continue
		}
		e.send(ctx, nb, out)
		st.Children = append(st.Children, nb)
	}
}

func (e *Engine) handleToken(ctx proto.Context, from proto.NodeID, m *TokenMsg) {
	st := e.State(m.ID)
	if st == nil {
		// Token outran the payload (non-FIFO transport); hold it.
		if e.pendingToken == nil {
			e.pendingToken = make(map[proto.MsgID]*TokenMsg, 1)
		}
		e.pendingToken[m.ID] = m
		return
	}
	if _, already := e.vs[m.ID]; already {
		return
	}
	v := &vsState{rho: int(m.Round), h: int(m.H), prev: from}
	e.setVS(m.ID, v)
	// Balance: grow the subtree away from the previous virtual source so
	// this node becomes the centre of the (now radius-Round) ball. The
	// initial hand-off (Round 1) grows by one hop, later passes by two.
	depth := uint16(2)
	if m.Round < 2 {
		depth = 1
	}
	if m.Round > st.lastRound {
		st.lastRound = m.Round
	}
	if hasRelays(st, from) {
		e.relay(ctx, st, from, &ExtendMsg{ID: m.ID, Depth: depth, Round: m.Round})
	} else {
		e.infectOutward(ctx, st, m.ID, depth, m.Round)
	}
	v.timer = ctx.SetTimer(e.cfg.RoundInterval, roundTimer{id: m.ID})
}

func (e *Engine) runRound(ctx proto.Context, id proto.MsgID) {
	e.sync()
	v, ok := e.vs[id]
	if !ok {
		return
	}
	st := e.State(id)
	if st == nil {
		return
	}
	if v.rho >= e.cfg.D {
		// Final round reached: emit the final-spread instruction (§IV-B)
		// and stop acting as virtual source.
		delete(e.vs, id)
		e.finalLocal(ctx, id, st, proto.NoNode)
		return
	}
	deg := e.cfg.TreeDegree
	if deg <= 0 {
		deg = len(ctx.Neighbors())
	}
	alpha := Alpha(deg, v.rho, v.h)
	if e.cfg.AlphaOverride > 0 && v.h > 0 {
		alpha = e.cfg.AlphaOverride
	}
	pass := ctx.Rand().Float64() < alpha

	var candidates []proto.NodeID
	if pass {
		for _, nb := range ctx.Neighbors() {
			if nb != v.prev {
				candidates = append(candidates, nb)
			}
		}
	}
	newRound := uint16(v.rho + 1)
	if len(candidates) > 0 {
		// Pass: the chosen neighbor becomes the centre of the radius
		// ρ+1 ball; it performs the balancing itself on token receipt.
		next := candidates[ctx.Rand().IntN(len(candidates))]
		delete(e.vs, id)
		e.send(ctx, next, &TokenMsg{ID: id, Round: newRound, H: uint16(v.h + 1)})
		return
	}
	// Keep (or pass with no eligible neighbor): the ball grows by one
	// hop in every direction.
	if st.lastRound < newRound {
		st.lastRound = newRound
	}
	if hasRelays(st, proto.NoNode) {
		e.relay(ctx, st, proto.NoNode, &ExtendMsg{ID: id, Depth: 1, Round: newRound})
	} else {
		e.infectOutward(ctx, st, id, 1, newRound)
	}
	v.rho++
	v.timer = ctx.SetTimer(e.cfg.RoundInterval, roundTimer{id: id})
}

func (e *Engine) handleFinal(ctx proto.Context, from proto.NodeID, m *FinalMsg) {
	st := e.State(m.ID)
	if st == nil {
		return
	}
	e.finalLocal(ctx, m.ID, st, from)
}

func (e *Engine) finalLocal(ctx proto.Context, id proto.MsgID, st *State, from proto.NodeID) {
	if st.finalDone {
		return
	}
	st.finalDone = true
	if hasRelays(st, from) {
		e.relay(ctx, st, from, e.finalMsg(id, st.lastRound))
	}
	if e.cfg.Finisher != nil {
		e.cfg.Finisher.OnFinal(ctx, id, st)
	}
}

// Protocol wraps Engine as a standalone proto.Broadcaster — adaptive
// diffusion alone, the configuration whose lack of a delivery guarantee
// §III-A points out (reproduced by experiment E9).
type Protocol struct {
	engine Engine
}

var _ proto.Broadcaster = (*Protocol)(nil)

// New returns a standalone adaptive-diffusion protocol.
func New(cfg Config) *Protocol {
	p := new(Protocol)
	p.engine.init(cfg)
	return p
}

// NewAt returns the adaptive-diffusion protocol of node self backed by
// shared dense state (see NewEngineAt) — the handler-factory form
// simulation trials use: node self's slot of the Shared's slab, so
// installing a network's handlers allocates nothing.
func NewAt(cfg Config, shared *Shared, self proto.NodeID) *Protocol {
	NewEngineAt(cfg, shared, self)
	return &shared.protos[self]
}

// Engine exposes the underlying engine.
func (p *Protocol) Engine() *Engine { return &p.engine }

// Init implements proto.Handler.
func (p *Protocol) Init(proto.Context) {}

// HandleMessage implements proto.Handler.
func (p *Protocol) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	p.engine.HandleMessage(ctx, from, msg)
}

// HandleTimer implements proto.Handler.
func (p *Protocol) HandleTimer(ctx proto.Context, payload any) {
	p.engine.HandleTimer(ctx, payload)
}

// Broadcast implements proto.Broadcaster using the original protocol's
// source behaviour.
func (p *Protocol) Broadcast(ctx proto.Context, payload []byte) (proto.MsgID, error) {
	id := proto.NewMsgID(payload)
	p.engine.StartSource(ctx, id, payload)
	return id, nil
}
