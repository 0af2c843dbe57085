package sim

import (
	"fmt"
	"iter"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Tap observes network activity without being able to influence it; the
// adversary framework and experiment tracers are Taps. Callbacks run
// synchronously on the driving goroutine and must not mutate the
// network. Taps observe one globally ordered event stream at any shard
// count: a single loop fires them inline, a sharded run parks each
// observation in the executing shard's log and replays the k-way merge
// into the taps at every window barrier, in exactly the single-loop
// order (see obs.go). A Tap that also implements SpyTap narrows that
// stream to the receives at the nodes it watches.
type Tap interface {
	// OnSend fires when a message is handed to the network by from —
	// before the netem shaper's drop/delay decision, so it sees every
	// send attempt, including messages the shaper later kills. The
	// timestamp is the sender's clock: no latency or jitter applied.
	// This is the send-side accounting view (message counts, phase
	// tracing); anything modelling an observer on the wire must use
	// OnReceive instead.
	OnSend(at time.Duration, from, to proto.NodeID, msg proto.Message)
	// OnReceive fires when a message actually arrives at to — after the
	// drop decision, with the shaped delay (latency + jitter + FIFO
	// clamp) applied, immediately before the destination handler runs.
	// Dropped messages and messages addressed to crashed nodes never
	// fire it. This is the hook adversarial observers (spy nodes) must
	// use: it reports exactly what a node on the real network would see,
	// when it would see it.
	OnReceive(at time.Duration, from, to proto.NodeID, msg proto.Message)
	// OnDeliverLocal fires when a node first reports local delivery of a
	// broadcast payload: once per (node, id), in merged single-loop order
	// at any shard count.
	OnDeliverLocal(at time.Duration, node proto.NodeID, id proto.MsgID, payload []byte)
}

// SpyTap is a Tap that watches only some nodes — the corrupted set of an
// adversary that records what arrives at its own nodes. A SpyTap gets no
// OnSend and no OnDeliverLocal calls, and the network parks and fires a
// receive on its behalf only at a node it lists, so a sharded run with
// nothing but spy taps logs a receive at a spy and nothing else (obs.go).
// It may still get OnReceive at nodes another tap watches — every node,
// once a tap without Spies is registered — so it keeps its own filter.
//
// AddTap reads Spies once; a later change to the set is not seen. A tap
// reused across trials is therefore re-seated between ClearTaps and
// AddTap, never while registered.
type SpyTap interface {
	Tap
	// Spies lists the watched nodes. It is called once per AddTap.
	Spies() []proto.NodeID
}

// ConstLatency is a fixed one-way link delay.
type ConstLatency time.Duration

// Options configure a Network.
type Options struct {
	// Seed drives every random choice in the run.
	Seed uint64
	// Latency is the constant link delay of a network without a Netem
	// profile — shorthand for Netem: &netem.Profile{Latency: Const(d)}.
	// Zero means the default 10 ms, not a zero delay; no caller passes an
	// explicit zero (flexnet defaults its LatencyMs to 50).
	Latency ConstLatency
	// Codec enables byte accounting when non-nil: every sent message that
	// implements wire.Encodable is size-counted.
	Codec *wire.Codec
	// Netem, when non-nil, is the network's link model and supersedes
	// Latency: per-message delay (latency+jitter) and loss come from
	// Profile.Shaper(Seed) — pure functions of (seed, from, to,
	// per-link sequence), the same function internal/transport consults
	// under Config.Shaper, so shaped runs agree across runtimes on
	// exactly which messages die — and the profile's churn schedule is
	// injected through the event loop at Start (crash/rejoin via
	// Crash/Restore). A profile that never draws (Profile.FixedDelay)
	// costs a send one stored delay instead.
	Netem *netem.Profile
	// Shards requests single-run parallelism: nodes are partitioned into
	// up to this many contiguous ID ranges (topology.ShardBounds), each
	// owning a private event loop, and the loops advance together under
	// conservative lookahead = the minimum possible link delay. Every
	// observable — counters, delivery sets, event counts, golden tables —
	// is bit-identical at any shard count — including the tap callback
	// stream, which replays from merged per-shard observation logs
	// (obs.go). The effective count is resolved at NewNetwork — it depends
	// on nothing but these options and the node count, so ShardCount is
	// final from construction on — and clamps to 1 in two cases: a zero minimum link delay (Profile.MinDelay — no
	// lookahead to advance under) or more shards than nodes. ≤ 1 means
	// single-shard (the default).
	Shards int
}

// typeCounter is the per-MsgType accounting cell.
type typeCounter struct {
	msgs  int64
	bytes int64
}

// counterPage is one dense 256-type block of the two-level counter table.
// Pages are allocated lazily per high byte, so the handful of MsgType
// ranges in use cost a few KiB instead of a 64K-entry table or a map
// lookup per send.
type counterPage [256]typeCounter

// linkArrival tracks FIFO state for one directed link outside the
// topology (e.g. DC-net group overlays that Send to arbitrary members):
// one entry of the sending shard's link table, chained from the sending
// node through next (an index into the table plus one; 0 ends the chain).
type linkArrival struct {
	to      proto.NodeID
	next    int32
	at      time.Duration
	streams linkStream
}

// linkStream holds a directed link's per-type sequence counters — the
// sequences netem shaper decisions key on (see netem.Shaper) — in 16
// bytes. The dominant single-type case (a flood link carries exactly one
// type) is inline; further types chain from spill, an index into the
// spill table of the shard that owns the link plus one (0: none). Links
// carry a handful of types, so a linear scan beats a map on the delivery
// hot path. The zero value is a link that has sent nothing.
type linkStream struct {
	seq0  uint64
	tp0   proto.MsgType
	has0  bool
	spill int32
}

// streamSeq is one spilled (message type → next sequence) counter of a
// directed link, chained to the link's next one like spill.
type streamSeq struct {
	seq  uint64
	tp   proto.MsgType
	next int32
}

// nextSeq returns and advances link l's counter for tp. The link belongs
// to the shard, which therefore owns its spilled counters too.
func (sh *shardState) nextSeq(l *linkStream, tp proto.MsgType) uint64 {
	if l.has0 && l.tp0 == tp {
		seq := l.seq0
		l.seq0 = seq + 1
		return seq
	}
	if !l.has0 {
		l.has0, l.tp0, l.seq0 = true, tp, 1
		return 0
	}
	for i := l.spill; i != 0; i = sh.spill[i-1].next {
		if s := &sh.spill[i-1]; s.tp == tp {
			seq := s.seq
			s.seq = seq + 1
			return seq
		}
	}
	sh.spill = append(sh.spill, streamSeq{seq: 1, tp: tp, next: l.spill})
	l.spill = int32(len(sh.spill))
	return 0
}

// Network hosts one Handler per topology node under one or more event
// engines. State is ownership-partitioned for the sharded mode: a
// node's RNG, timers, crash flag, outgoing link FIFOs and its cell of
// every delivery record belong to its shard; accounting accumulates per
// shard and sums on read (exact integer sums, so the view is
// bit-identical at any shard count).
type Network struct {
	engine *Engine // shard 0's engine; the only engine when unsharded
	topo   *topology.Graph
	opts   Options

	nodes []simNode  // the hot cells: all a delivery or a send touches
	cold  []nodeCold // RNG, timers, off-topology links; parallel to nodes

	// taps holds every registered tap in registration order; each gets
	// OnReceive. unscoped holds those without Spies, the only ones that
	// get OnSend and OnDeliverLocal and the reason to report a receive at
	// a node no spy watches. watched lists the node cells AddTap marked,
	// so ClearTaps unmarks exactly those.
	taps     []Tap
	unscoped []Tap
	watched  []proto.NodeID

	// Per-link FIFO state (like TCP, a link never reorders) in CSR form:
	// linkDst[linkOff[v]:linkOff[v+1]] are v's neighbors and linkAt holds
	// the latest scheduled arrival per directed edge. Sends outside the
	// topology fall back to the sending shard's link table, chained from
	// the node's cold cell. Each CSR row is owned by the sending node's
	// shard.
	linkOff []int32
	linkDst []proto.NodeID
	linkAt  []time.Duration
	// linkStreams counts messages per (directed CSR link, message type)
	// — the sequence numbers shaper decisions key on; counters past a
	// link's first type sit in its row's shard's spill table. Allocated
	// only with a shaper.
	linkStreams []linkStream

	// The link model, one of two cases picked from the profile at
	// NewNetwork: a profile that never draws (Profile.FixedDelay) leaves
	// shaper nil and every send takes fixedDelay; any other profile is
	// decided per message by shaper. Decide is a pure function of
	// immutable state, so concurrent shards may consult it freely.
	shaper     *netem.Shaper
	fixedDelay time.Duration

	// shards always holds at least one entry and is fixed at NewNetwork
	// (resolveShards); lookahead is the resolved conservative window (0
	// when unsharded).
	shards    []*shardState
	lookahead time.Duration

	// windowing is true only while runWindow executes shard goroutines;
	// the tap plumbing branches on it to park observations in the shard
	// logs instead of firing directly (set before the goroutines spawn
	// and cleared after the barrier join, so every read is ordered).
	// ctlSeq is the control-event counter every At call keys on; obsCur is
	// merge-cursor scratch for replayObs.
	windowing bool
	ctlSeq    uint32
	obsCur    []int

	// deliveries holds one first-delivery record per payload. Shards look
	// sets up through deliverySet; deliverMu guards the map against two
	// shards creating sets in the same window.
	deliverMu  sync.Mutex
	deliveries map[proto.MsgID]*DeliverySet
	started    bool
}

// NodeSeed returns the PCG seed pair a Network derives for node id from
// the run seed. It is exported so other runtimes (internal/transport via
// Config.SeedStream) can hand their handlers bit-identical random
// streams — the foundation of the differential parity harness: the same
// handler code drawing the same randomness must produce the same
// message tables under both runtimes.
func NodeSeed(seed uint64, id proto.NodeID) (uint64, uint64) {
	return seed, 0x9e3779b97f4a7c15 ^ (uint64(id) + 1)
}

// NewNetwork creates a network over the topology. Handlers are attached
// with SetHandlers before Start.
func NewNetwork(topo *topology.Graph, opts Options) *Network {
	if opts.Netem == nil {
		if opts.Latency == 0 {
			opts.Latency = ConstLatency(10 * time.Millisecond)
		}
		opts.Netem = &netem.Profile{Latency: netem.Const(opts.Latency)}
	}
	n := &Network{
		topo:       topo,
		opts:       opts,
		nodes:      make([]simNode, topo.N()),
		cold:       make([]nodeCold, topo.N()),
		deliveries: make(map[proto.MsgID]*DeliverySet),
	}
	n.engine = n.newEngine()
	if d, fixed := opts.Netem.FixedDelay(); fixed {
		n.fixedDelay = d
	} else {
		sh := opts.Netem.Shaper(opts.Seed)
		n.shaper = &sh
	}
	n.fillLinks()
	for i := range n.nodes {
		node := &n.nodes[i]
		node.net = n
		node.id = proto.NodeID(i)
		n.cold[i].seed(opts.Seed, node.id)
	}
	n.resolveShards()
	return n
}

// fillLinks lays the topology out as the CSR link arrays, reusing their
// capacity: linkOff, linkDst and linkAt always, linkStreams under a
// shaper. The arrival and stream cells it keeps are stale; Reset clears
// them.
func (n *Network) fillLinks() {
	nodes := n.topo.N()
	n.linkOff = slices.Grow(n.linkOff[:0], nodes+1)[:nodes+1]
	n.linkOff[0] = 0
	for i := 0; i < nodes; i++ {
		n.linkOff[i+1] = n.linkOff[i] + int32(n.topo.Degree(proto.NodeID(i)))
	}
	m := int(n.linkOff[nodes])
	n.linkDst = slices.Grow(n.linkDst[:0], m)[:m]
	n.linkAt = slices.Grow(n.linkAt[:0], m)[:m]
	for i := 0; i < nodes; i++ {
		copy(n.linkDst[n.linkOff[i]:], n.topo.Neighbors(proto.NodeID(i)))
	}
	if n.shaper != nil {
		n.linkStreams = slices.Grow(n.linkStreams[:0], m)[:m]
	}
}

// Rebuild turns the network into NewNetwork(topo, options-with-seed) for
// another graph with the same node count: it lays out topo's links in
// the kept CSR arrays, clears the taps and runs Reset. Options, shard
// layout, engines and queue capacity are kept, so a rebuild of the same
// size allocates nothing once the arrays have grown to the larger
// graph's edge count. Handlers are dropped, as by Reset. The network
// reads topo here and at NewNetwork only: a caller may overwrite the
// graph once Rebuild returns (topology.RegularBuilder does), after which
// Topology serves what it wrote.
func (n *Network) Rebuild(topo *topology.Graph, seed uint64) {
	if topo.N() != len(n.nodes) {
		panic(fmt.Sprintf("sim: Rebuild onto %d nodes of a %d-node network", topo.N(), len(n.nodes)))
	}
	n.topo = topo
	n.fillLinks()
	n.ClearTaps()
	n.Reset(seed)
}

// Reset rewinds the network for a fresh run over the same topology and
// options, reseeded with seed — the trial-loop form: one long-lived
// Network per worker goroutine, reset between trials, instead of a
// rebuild per trial. A reset network is behaviorally indistinguishable
// from NewNetwork(topo, opts-with-seed): every engine restarts at time
// zero, every RNG is re-derived from the seed, and all counters,
// deliveries, link-FIFO clamps and crash flags clear. The shard layout,
// engines and queue capacity are retained, and so is each shard's table
// of links outside the topology, rewound: it holds one run's links at a
// time, so it idles at the largest run's count, not at every link any
// run opened.
//
// Handlers are dropped; call SetHandlers (and Start) again, typically
// re-installing handlers whose state lives in a shared sized structure
// (flood.Shared, adaptive.Shared) that the caller resets alongside.
// Registered taps are kept, and so are the nodes their Spies marked.
func (n *Network) Reset(seed uint64) {
	n.reclaimHandoff()
	for _, sh := range n.shards {
		sh.reset()
	}
	n.opts.Seed = seed
	clear(n.deliveries)
	for i := range n.linkAt {
		n.linkAt[i] = 0
	}
	if n.shaper != nil {
		*n.shaper = n.opts.Netem.Shaper(seed)
		clear(n.linkStreams)
	}
	for i := range n.nodes {
		node := &n.nodes[i]
		node.handler = nil
		node.crashed = false
		node.nextTimer = 0
		node.schedSeq = 0
		c := &n.cold[i]
		c.seed(seed, node.id)
		clear(c.timers)
		c.link = 0
	}
	n.ctlSeq = 0
	n.started = false
}

// Topology returns the overlay graph.
func (n *Network) Topology() *topology.Graph { return n.topo }

// Profile returns the link model every send goes through.
func (n *Network) Profile() *netem.Profile { return n.opts.Netem }

// Now returns the current virtual time. Between runs all shard clocks
// agree; shard 0's clock is the network's.
func (n *Network) Now() time.Duration { return n.engine.Now() }

// Steps returns the number of events executed so far, summed across
// shards.
func (n *Network) Steps() uint64 {
	var s uint64
	for _, sh := range n.shards {
		s += sh.eng.Steps()
	}
	return s
}

// ShardCount returns the effective shard count, fixed at NewNetwork (1
// whenever sharding was clamped). Handler state partitioned to it
// (internal/stack) therefore never disagrees with the event loops.
func (n *Network) ShardCount() int { return len(n.shards) }

// Lookahead returns the conservative lookahead window the sharded run
// advances under (0 when unsharded).
func (n *Network) Lookahead() time.Duration { return n.lookahead }

// AddTap registers an observer. Taps may be registered at any point the
// driver holds the network (before Start or between runs — never from
// inside a callback); a tap added mid-run observes everything from the
// next Run/RunUntil call onward. Registration does not affect the shard
// layout: tapped runs execute at the requested shard count and the tap
// sees the merged single-loop-order stream (obs.go). A SpyTap's set is
// read here, once, and marks the listed nodes watched.
func (n *Network) AddTap(t Tap) {
	n.taps = append(n.taps, t)
	spy, ok := t.(SpyTap)
	if !ok {
		n.unscoped = append(n.unscoped, t)
		return
	}
	for _, id := range spy.Spies() {
		if node := &n.nodes[id]; !node.watched {
			node.watched = true
			n.watched = append(n.watched, id)
		}
	}
}

// ClearTaps removes all registered taps — the trial-reuse form: a worker
// that keeps one Network across trials re-registers its per-trial
// observers after each Reset instead of accumulating them. It unmarks
// only the nodes AddTap marked, so it costs O(spies), not O(N).
func (n *Network) ClearTaps() {
	for _, id := range n.watched {
		n.nodes[id].watched = false
	}
	n.watched = n.watched[:0]
	n.taps = n.taps[:0]
	n.unscoped = n.unscoped[:0]
}

// SetHandlers installs one handler per node using the factory. Must be
// called exactly once before Start (and again after each Reset). The
// factory may return the same handler for many nodes (flood.NewAt hands
// out one per partition cell): the network tells a handler which node it
// is acting for only through the Context of each call, so a handler takes
// its identity from ctx.Self(), never from the order the factory ran in.
func (n *Network) SetHandlers(factory func(id proto.NodeID) proto.Handler) {
	for i := range n.nodes {
		n.nodes[i].handler = factory(n.nodes[i].id)
	}
}

// Handler returns the handler installed at id, or nil.
func (n *Network) Handler(id proto.NodeID) proto.Handler {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id].handler
}

// Start initializes all handlers in node-ID order.
func (n *Network) Start() {
	if n.started {
		panic("sim: Network.Start called twice")
	}
	n.started = true
	for i := range n.nodes {
		node := &n.nodes[i]
		if node.handler == nil {
			panic(fmt.Sprintf("sim: node %d has no handler", node.id))
		}
		node.handler.Init(node)
	}
	// Inject the seeded churn schedule through the event loop: the
	// schedule is a pure function of (profile, N, seed), so a reset
	// network replays the identical crash/rejoin sequence. Each event is
	// scheduled on its target node's shard via the control stream —
	// control events sort ahead of same-instant node events, preserving
	// the crash-before-delivery order of the single-loop engine.
	for _, ev := range n.opts.Netem.Churn.Events(len(n.nodes), n.opts.Seed) {
		id := ev.Node
		if ev.Up {
			n.At(ev.At, id, func() { n.Restore(id) })
		} else {
			n.At(ev.At, id, func() { n.Crash(id) })
		}
	}
}

// At runs fn on node id's event loop at absolute virtual time at (a time
// already past clamps to now) — the one way a driver schedules work into
// a run at any shard count: fault injection, load offered to a handler,
// a crash mid-run. fn runs as a control event, ahead of every node event
// of the same instant, on the shard that owns node id, so it may touch
// only what that shard owns: node id's handler, Crash(id), Restore(id).
// Control events key to one network-level counter in call order, so
// equal-time At calls fire in call order and every (at, ctlSrc, seq) key
// is unique across shards, which the observation merge relies on
// (obs.go). Call At from the driver — before Start, after it, or between
// runs — never from a handler or from fn.
func (n *Network) At(at time.Duration, id proto.NodeID, fn func()) {
	eng := n.nodes[id].eng
	if at < eng.now {
		at = eng.now
	}
	n.ctlSeq++
	eng.scheduleFunc(at, evKey{src: ctlSrc, seq: n.ctlSeq}, fn)
}

// Run drains the event queue (maxEvents ≤ 0: unbounded) and returns the
// number of events executed. Bounded runs require a single shard (an
// event-count cutoff has no deterministic meaning across concurrent
// loops).
func (n *Network) Run(maxEvents uint64) uint64 {
	if len(n.shards) > 1 {
		if maxEvents > 0 {
			panic("sim: bounded Run on a sharded network")
		}
		return n.runSharded(maxDuration)
	}
	return n.engine.Run(maxEvents)
}

// RunUntil executes events up to and including the given virtual time,
// then advances every shard clock to it.
func (n *Network) RunUntil(deadline time.Duration) uint64 {
	if len(n.shards) > 1 {
		return n.runSharded(deadline)
	}
	return n.engine.RunUntil(deadline)
}

// Originate injects a broadcast payload at the given node. The node's
// handler must implement proto.Broadcaster.
func (n *Network) Originate(at proto.NodeID, payload []byte) (proto.MsgID, error) {
	node := &n.nodes[at]
	b, ok := node.handler.(proto.Broadcaster)
	if !ok {
		return proto.MsgID{}, fmt.Errorf("sim: handler at node %d is not a Broadcaster (%T)", at, node.handler)
	}
	return b.Broadcast(node, payload)
}

// InjectTimerAt schedules HandleTimer(payload) at the node at absolute
// virtual time at — the arrival-injection hook of the workload engine:
// a whole arrival schedule is installed up front (like the netem churn
// schedule) and each event fires on its target node's shard engine.
// Injected events ride the control stream, which sorts ahead of
// same-instant node events, and successive InjectTimerAt calls preserve
// their call order at equal times — so a schedule installed in
// deterministic order replays identically at any shard count. Events
// for crashed nodes are silently skipped at fire time. Must be called
// after Start (times are relative to a running clock) and with at >=
// the node's current time.
func (n *Network) InjectTimerAt(at time.Duration, id proto.NodeID, payload any) {
	node := &n.nodes[id]
	n.At(at, id, func() {
		if node.crashed {
			return
		}
		node.handler.HandleTimer(node, payload)
	})
}

// Crash takes a node offline: its timers stop firing and messages to it
// are dropped at delivery time.
func (n *Network) Crash(id proto.NodeID) { n.nodes[id].crashed = true }

// Restore brings a crashed node back online. Timers set before the crash
// stay lost; the handler state is preserved.
func (n *Network) Restore(id proto.NodeID) { n.nodes[id].crashed = false }

// Crashed reports whether the node is offline.
func (n *Network) Crashed(id proto.NodeID) bool { return n.nodes[id].crashed }

// TotalMessages returns the number of messages sent so far.
func (n *Network) TotalMessages() int64 {
	var t int64
	for _, sh := range n.shards {
		t += sh.totalMsgs
	}
	return t
}

// TotalBytes returns the number of payload bytes sent so far (0 unless a
// codec was configured).
func (n *Network) TotalBytes() int64 {
	var t int64
	for _, sh := range n.shards {
		t += sh.totalByte
	}
	return t
}

// NetemDropped returns how many messages the netem profile's loss model
// killed (0 for a profile without loss). Dropped messages are still counted
// in the per-type and total tables — a message is counted when the
// handler hands it to the network, matching the transport's tx
// accounting.
func (n *Network) NetemDropped() int64 {
	var t int64
	for _, sh := range n.shards {
		t += sh.netemDropped
	}
	return t
}

// MessagesOfType returns the count of sent messages with the given type.
func (n *Network) MessagesOfType(t proto.MsgType) int64 {
	var c int64
	for _, sh := range n.shards {
		if page := sh.counters[t>>8]; page != nil {
			c += page[t&0xff].msgs
		}
	}
	return c
}

// BytesOfType returns the byte count for one message type.
func (n *Network) BytesOfType(t proto.MsgType) int64 {
	var c int64
	for _, sh := range n.shards {
		if page := sh.counters[t>>8]; page != nil {
			c += page[t&0xff].bytes
		}
	}
	return c
}

// ResetCounters zeroes message/byte counters (e.g. after warm-up).
func (n *Network) ResetCounters() {
	for _, sh := range n.shards {
		sh.resetCounters()
	}
}

// DeliverySet records the first local-delivery time of one payload at
// each node, densely indexed by node ID. The zero/nil set is empty.
// During a sharded window each shard writes only its own nodes' cells;
// the count is shared, hence atomic.
type DeliverySet struct {
	times []time.Duration // undelivered = -1
	count atomic.Int64
}

// Count returns how many nodes have delivered the payload.
func (d *DeliverySet) Count() int {
	if d == nil {
		return 0
	}
	return int(d.count.Load())
}

// Time returns the first delivery time at node.
func (d *DeliverySet) Time(node proto.NodeID) (time.Duration, bool) {
	if d == nil || int(node) < 0 || int(node) >= len(d.times) || d.times[node] < 0 {
		return 0, false
	}
	return d.times[node], true
}

// All iterates (node, first-delivery time) pairs in node-ID order.
func (d *DeliverySet) All() iter.Seq2[proto.NodeID, time.Duration] {
	return func(yield func(proto.NodeID, time.Duration) bool) {
		if d == nil {
			return
		}
		for i, at := range d.times {
			if at >= 0 && !yield(proto.NodeID(i), at) {
				return
			}
		}
	}
}

// Delivered returns how many nodes have locally delivered the payload.
func (n *Network) Delivered(id proto.MsgID) int {
	return n.deliveries[id].Count()
}

// DeliveryTime returns the first local-delivery time of id at node.
func (n *Network) DeliveryTime(id proto.MsgID, node proto.NodeID) (time.Duration, bool) {
	return n.deliveries[id].Time(node)
}

// Deliveries returns the delivery record for a payload (nil-safe: the
// result is usable even for unknown IDs). The caller must not mutate it.
func (n *Network) Deliveries(id proto.MsgID) *DeliverySet {
	return n.deliveries[id]
}

// deliverySet returns (creating if needed) the record for id, looked up
// by shard sh. A shard delivers one payload many times in a row, so its
// last set is cached; deliverMu is taken only on a miss, because two
// shards may create sets in the same window. Reset clears the caches.
func (n *Network) deliverySet(sh *shardState, id proto.MsgID) *DeliverySet {
	if sh.lastSet != nil && sh.lastID == id {
		return sh.lastSet
	}
	n.deliverMu.Lock()
	d := n.deliveries[id]
	if d == nil {
		times := make([]time.Duration, len(n.nodes))
		for i := range times {
			times[i] = -1
		}
		d = &DeliverySet{times: times}
		n.deliveries[id] = d
	}
	n.deliverMu.Unlock()
	sh.lastID, sh.lastSet = id, d
	return d
}

// recordDelivery writes node's first delivery of id. The one path serves
// every mode: node's cell belongs to the executing shard, which runs its
// events in time order, so the first write is the single-loop first
// delivery without any merge. Only the tap callback differs — fired
// directly outside windows, parked in the observation log inside one so
// it replays in merged order.
func (n *Network) recordDelivery(node *simNode, at time.Duration, id proto.MsgID, payload []byte) {
	d := n.deliverySet(node.shard, id)
	if d.times[node.id] >= 0 {
		return // only first delivery counts
	}
	d.times[node.id] = at
	d.count.Add(1)
	if len(n.unscoped) == 0 {
		return // a SpyTap gets no OnDeliverLocal
	}
	if n.windowing {
		logObs(node, obsEntry{kind: obsDeliver, to: node.id, id: id, payload: payload})
		return
	}
	for _, tap := range n.unscoped {
		tap.OnDeliverLocal(at, node.id, id, payload)
	}
}

// linkSlot returns the FIFO arrival cell for the directed link from→to
// — a CSR cell for topology edges, an entry of the sending shard's link
// table otherwise — plus the link's per-type netem stream counters (nil
// unless shaped). Both cells belong to the sending node's shard; a table
// entry stays put until the shard's next send from any node.
func (n *Network) linkSlot(from *simNode, to proto.NodeID) (at *time.Duration, streams *linkStream) {
	lo, hi := n.linkOff[from.id], n.linkOff[from.id+1]
	for i, d := range n.linkDst[lo:hi] {
		if d == to {
			if n.linkStreams != nil {
				streams = &n.linkStreams[lo+int32(i)]
			}
			return &n.linkAt[lo+int32(i)], streams
		}
	}
	c, sh := from.cold(), from.shard
	for i := c.link; i != 0; i = sh.links[i-1].next {
		if e := &sh.links[i-1]; e.to == to {
			return &e.at, &e.streams
		}
	}
	sh.links = append(sh.links, linkArrival{to: to, next: c.link})
	c.link = int32(len(sh.links))
	e := &sh.links[len(sh.links)-1]
	return &e.at, &e.streams
}

// shardOf returns the shard owning node to, asked from shard sh. Shards
// are contiguous ID ranges, so the sender's bounds answer the common case
// and arithmetic the rest: a send never loads the destination's cell.
func (n *Network) shardOf(sh *shardState, to proto.NodeID) *shardState {
	if int32(to) >= sh.lo && int32(to) < sh.hi {
		return sh
	}
	return n.shards[topology.ShardOf(to, len(n.nodes), len(n.shards))]
}

func (n *Network) send(from *simNode, to proto.NodeID, msg proto.Message) {
	if int(to) < 0 || int(to) >= len(n.nodes) {
		panic(fmt.Sprintf("sim: node %d sent to invalid node %d", from.id, to))
	}
	sh := from.shard
	sh.totalMsgs++
	tp := msg.Type()
	c := sh.counter(tp)
	c.msgs++
	if n.opts.Codec != nil {
		if enc, ok := msg.(wire.Encodable); ok {
			size := int64(n.opts.Codec.Size(enc))
			sh.totalByte += size
			c.bytes += size
		}
	}
	now := from.eng.Now()
	if len(n.unscoped) > 0 {
		n.tapSend(from, now, to, msg)
	}
	delay := n.fixedDelay
	slot, streams := n.linkSlot(from, to)
	if n.shaper != nil {
		// Shaped path: loss and delay are hash decisions on the link's
		// per-type message sequence — the counters the transport runtime
		// keeps too, so both runtimes kill and hold the same messages.
		seq := sh.nextSeq(streams, tp)
		var drop bool
		delay, drop = n.shaper.Decide(from.id, to, tp, seq)
		if drop {
			sh.netemDropped++
			return
		}
	}
	// Clamp to per-link FIFO: a later send never overtakes an earlier one
	// on the same directed link, matching TCP stream semantics. The clamp
	// adjusts only the arrival time, never the ordering key, so it is
	// transparent to shard-invariance.
	arrival := now + delay
	if *slot > arrival {
		arrival = *slot
	}
	*slot = arrival
	// The ordering key is pure provenance: who scheduled this send, and
	// how many schedule calls came before it. A cross-shard delivery
	// parked in the outbox sorts identically once its destination shard
	// pushes it onto its own queue.
	from.schedSeq++
	key := evKey{src: from.id, seq: from.schedSeq}
	dstShard := n.shardOf(sh, to)
	if dstShard == sh {
		from.eng.scheduleDeliver(arrival, key, to, msg)
		return
	}
	sh.handoffs++
	from.eng.bucketPush(&sh.out[dstShard.index], &entry{at: arrival, tag: keyTag(key.src, key.seq), msg: msg, dst: to})
}

// simNode implements proto.Context for one simulated node and is the
// node's hot cell: everything an arrival or a send reads — handler, crash
// flag, identity, schedule counter, the way to shard, engine and network
// — in one 64-byte slot of a contiguous slice, so a delivery costs one
// per-node line here (DESIGN §2, "What a delivery touches"; pinned by
// TestNodeLayout). What only Rand, timers and off-topology sends need
// lives in the parallel nodeCold array. Everything a node touches during
// execution — both cells, its outgoing link FIFOs — is owned by its shard.
type simNode struct {
	handler proto.Handler
	net     *Network
	eng     *Engine     // the node's shard engine (== net.engine unsharded)
	shard   *shardState // the owning shard
	id      proto.NodeID

	// schedSeq counts this node's schedule calls (sends and timers) —
	// the per-source ordering-key component that makes event order
	// shard-invariant.
	schedSeq uint32

	// nextTimer is the last TimerID handed out; it sits here because the
	// cell has eight bytes to spare and nodeCold without them is one line.
	nextTimer proto.TimerID
	crashed   bool
	// watched marks a node some registered SpyTap lists (AddTap): a
	// receive here is reported even when every tap is a SpyTap. It shares
	// the line the delivery dispatch loads for crashed.
	watched bool
}

// nodeCold is the per-node state no delivery reads: random stream, pending
// timer handles, the head of its chain of links outside the topology in
// its shard's link table (an index plus one; 0 when it has none). Hot and
// cold together are at most the 128 bytes the single-struct simNode used
// to be.
type nodeCold struct {
	pcg    rand.PCG
	rand   rand.Rand
	timers map[proto.TimerID]Timer
	link   int32
}

// seed (re)derives the node's random stream from the run seed.
func (c *nodeCold) seed(seed uint64, id proto.NodeID) {
	c.pcg = *rand.NewPCG(NodeSeed(seed, id))
	c.rand = *rand.New(&c.pcg)
}

var _ proto.Context = (*simNode)(nil)

// cold returns the node's cold cell — the only way to it, so a path that
// never calls cold() stays on the hot line.
func (s *simNode) cold() *nodeCold { return &s.net.cold[s.id] }

func (s *simNode) Self() proto.NodeID { return s.id }

func (s *simNode) Now() time.Duration { return s.eng.Now() }

func (s *simNode) Rand() *rand.Rand { return &s.cold().rand }

// Neighbors serves the node's row of the network's CSR copy of the
// topology (the graph is never mutated after NewNetwork): the lines
// linkSlot scans anyway, not the graph's adjacency header and data.
func (s *simNode) Neighbors() []proto.NodeID {
	n := s.net
	lo, hi := n.linkOff[s.id], n.linkOff[s.id+1]
	return n.linkDst[lo:hi:hi]
}

func (s *simNode) Send(to proto.NodeID, msg proto.Message) { s.net.send(s, to, msg) }

func (s *simNode) SetTimer(delay time.Duration, payload any) proto.TimerID {
	s.nextTimer++
	id := s.nextTimer
	c := s.cold()
	if c.timers == nil {
		c.timers = make(map[proto.TimerID]Timer, 8)
	}
	c.timers[id] = s.eng.scheduleTimer(delay, s, id, payload)
	return id
}

// onTimerFire dispatches an evTimer event (called from the engine loop).
func (s *simNode) onTimerFire(id proto.TimerID, payload any) {
	delete(s.cold().timers, id)
	if s.crashed {
		return
	}
	s.handler.HandleTimer(s, payload)
}

func (s *simNode) CancelTimer(id proto.TimerID) {
	c := s.cold()
	if t, ok := c.timers[id]; ok {
		t.Cancel()
		delete(c.timers, id)
	}
}

func (s *simNode) DeliverLocal(id proto.MsgID, payload []byte) {
	s.net.recordDelivery(s, s.eng.Now(), id, payload)
}
