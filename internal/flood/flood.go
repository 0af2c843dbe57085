// Package flood implements flood-and-prune broadcast: every node forwards
// a newly seen payload to all neighbors except the one it arrived from,
// and prunes (ignores) duplicates. It is both the paper's baseline
// dissemination protocol (§V-A: ~7,000 messages for 1,000 peers on the
// 8-regular overlay, i.e. 2·E − (N−1)) and Phase 3 of the composed
// three-phase protocol, which guarantees delivery to every node.
//
// The package exposes two layers: Engine, an embeddable seen-set +
// forwarding core reused by Dandelion's fluff phase and by
// internal/core's Phase 3, and Protocol, a standalone proto.Broadcaster.
package flood

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/topology"
	"repro/internal/visited"
	"repro/internal/wire"
)

// TypeData is the wire type of flood payload messages.
const TypeData = proto.RangeFlood + 1

// DataMsg carries a broadcast payload through the flood.
//
// A received DataMsg is read-only, and so is its Payload. In dense mode
// (Shared) every node of a partition cell that relays one message at one
// hop sends the same DataMsg, so a receiver shares it with every other
// receiver at its hop, on any shard, for as long as any of them holds it.
type DataMsg struct {
	ID      proto.MsgID
	Hops    uint16
	Payload []byte
}

var _ wire.Encodable = (*DataMsg)(nil)

// Type implements proto.Message.
func (*DataMsg) Type() proto.MsgType { return TypeData }

// EncodeTo implements wire.Encodable.
func (m *DataMsg) EncodeTo(w *wire.Writer) {
	w.MsgID(m.ID)
	w.U16(m.Hops)
	w.ByteString(m.Payload)
}

// DecodeFrom implements wire.Encodable.
func (m *DataMsg) DecodeFrom(r *wire.Reader) error {
	m.ID = r.MsgID()
	m.Hops = r.U16()
	m.Payload = r.ByteString()
	return r.Err()
}

// RegisterMessages adds this package's messages to a codec.
func RegisterMessages(c *wire.Codec) {
	c.Register(TypeData, func() wire.Encodable { return new(DataMsg) })
}

// Shared is network-wide flood state sized to the node count: one
// presence-bit visited vector per in-flight message (replacing the
// per-node seen-set maps) plus one relay DataMsg per (message, hop),
// split into partition cells (Partition). A cell is the one Protocol
// NewAt hands to every node of a contiguous node range, owning that
// range's table and relay set, so a delivery reads no per-node flood
// object. All engines of one simulated network share one Shared; trial
// loops Reset it between sequentially simulated networks.
//
// Relay messages are never recycled, so Reset's one precondition is the
// seen-set's: the network that used the state must be drained or
// discarded. A Shared is not safe for concurrent use: under the parallel
// trial runner each worker goroutine owns its own Shared, as it owns its
// own sim.Network.
type Shared struct {
	n int
	// parts holds one partition cell per contiguous node range: the
	// Protocol of every node in the range (NewAt), whose unbound dense
	// engine owns the range's table and relay set. Under the sharded
	// event loop each shard's handlers touch exactly one cell, so no two
	// shards share a table or a relay set.
	parts []Protocol
}

func newCell(lo, hi int) Protocol {
	return Protocol{engine: Engine{
		dseen:  visited.NewTableRange[struct{}](lo, hi),
		drelay: &relays{byKey: make(map[relayKey]*DataMsg)},
	}}
}

// relays is a partition cell's relay messages: one per (message, hop),
// sent by every node of the cell that relays the message at that hop,
// so a receive reads a header an earlier receive brought into cache.
// The ID is the payload's hash, as the seen-set already assumes, so the
// key fixes every field.
type relays struct {
	last  *DataMsg // the message handed out last, checked before the map
	byKey map[relayKey]*DataMsg
}

type relayKey struct {
	id   proto.MsgID
	hops uint16
}

// get returns the cell's relay message for (id, hops), creating it on
// first use.
func (r *relays) get(id proto.MsgID, hops uint16, payload []byte) *DataMsg {
	if m := r.last; m != nil && m.ID == id && m.Hops == hops {
		return m
	}
	k := relayKey{id, hops}
	m := r.byKey[k]
	if m == nil {
		m = &DataMsg{ID: id, Hops: hops, Payload: payload}
		r.byKey[k] = m
	}
	r.last = m
	return m
}

// NewShared returns shared flood state for node IDs in [0, n).
func NewShared(n int) *Shared {
	if n <= 0 {
		panic(fmt.Sprintf("flood: NewShared(%d): node count must be positive", n))
	}
	s := &Shared{n: n}
	s.Partition(1)
	return s
}

// Partition splits the state into k contiguous node-range parts aligned
// with the sharded network's topology.ShardBounds partition, so each
// shard's handlers operate on a private table and relay set. It must be
// called while the state is idle (before handlers are built, or after
// Reset with the previous network drained) and invalidates every handler
// and engine built before it; a k of 1 restores the unpartitioned form.
// Partitioning more finely than the network shards is harmless — one
// thread then touches several parts — but coarser is a data race, which
// is why internal/stack.Mount is the caller: it passes the network's
// resolved ShardCount and only then builds handlers. Outside it, only
// core.Shared.Partition and the bench adapter call this.
func (s *Shared) Partition(k int) {
	if k < 1 {
		k = 1
	}
	if k > s.n {
		k = s.n
	}
	bounds := topology.ShardBounds(s.n, k)
	s.parts = make([]Protocol, k)
	for i := range s.parts {
		s.parts[i] = newCell(int(bounds[i]), int(bounds[i+1]))
	}
}

// N returns the node count the state was sized for.
func (s *Shared) N() int { return s.n }

// Reset invalidates all seen-state and forgets the relay messages for
// the next trial. The previous trial's network must be drained, because
// its seen vectors are recycled; its relay messages are left to the
// garbage collector.
func (s *Shared) Reset() {
	for i := range s.parts {
		e := &s.parts[i].engine
		e.dseen.Reset()
		clear(e.drelay.byKey)
		e.drelay.last = nil
	}
}

// part returns the partition cell owning node self.
func (s *Shared) part(self proto.NodeID) *Protocol {
	if int(self) < 0 || int(self) >= s.n {
		panic(fmt.Sprintf("flood: node %d out of range [0, %d)", self, s.n))
	}
	return &s.parts[topology.ShardOf(self, s.n, len(s.parts))]
}

// Engine is the reusable flood-and-prune core: a seen-set plus forwarding
// rules. It holds no reference to a Context, so one Engine can serve a
// node across its entire lifetime.
//
// Two seen-set representations exist. The standalone form (NewEngine)
// owns a map — right for long-lived nodes handling an open-ended message
// stream (internal/node, the TCP runtime). The dense form (NewEngineAt)
// shares presence-bit visited vectors with every other engine of the
// network through a Shared — right for simulation trials, where a trial
// allocates one relay message per (message, hop) of each partition cell
// and nothing per node.
type Engine struct {
	seen map[proto.MsgID]struct{} // standalone mode; nil in dense mode
	// Dense mode: the partition cell owning self, resolved at
	// construction so the hot path never re-derives it.
	dseen  *visited.Table[struct{}]
	drelay *relays
	self   proto.NodeID
}

// NewEngine returns an empty standalone engine.
func NewEngine() *Engine {
	return &Engine{seen: make(map[proto.MsgID]struct{})}
}

// NewEngineAt returns an engine for node self backed by shared dense
// state. Engines in this mode hold no per-node state at all and are
// reusable across trials (Reset the Shared between trials). Build
// engines after any Shared.Partition call — they cache their partition
// cell.
func NewEngineAt(shared *Shared, self proto.NodeID) *Engine {
	e := shared.part(self).engine
	e.self = self
	return &e
}

// Seen reports whether the payload was already seen (and hence pruned on
// re-arrival).
func (e *Engine) Seen(id proto.MsgID) bool {
	if e.dseen != nil {
		vec := e.dseen.Lookup(id)
		return vec != nil && vec.Has(e.self)
	}
	_, ok := e.seen[id]
	return ok
}

// MarkSeen marks a payload as held without forwarding; it returns true if
// the id was new. Phase-2 infection uses this so that the later flood
// prunes at already-infected nodes.
func (e *Engine) MarkSeen(id proto.MsgID) bool {
	if e.dseen != nil {
		return e.dseen.Vec(id).Mark(e.self)
	}
	if _, ok := e.seen[id]; ok {
		return false
	}
	e.seen[id] = struct{}{}
	return true
}

// HandleData processes an incoming DataMsg: on first sight it delivers
// locally and forwards to every neighbor except from; duplicates are
// pruned. It reports whether the message was new.
func (e *Engine) HandleData(ctx proto.Context, from proto.NodeID, m *DataMsg) bool {
	if !e.MarkSeen(m.ID) {
		return false
	}
	ctx.DeliverLocal(m.ID, m.Payload)
	e.Spread(ctx, m.ID, m.Payload, m.Hops, from)
	return true
}

// Spread floods the payload to all neighbors except those listed in
// except. The id must already be marked seen by the caller (this is the
// entry point for originators and for Phase-3 leaf nodes).
func (e *Engine) Spread(ctx proto.Context, id proto.MsgID, payload []byte, hops uint16, except ...proto.NodeID) {
	e.send(ctx, e.relay(id, hops+1, payload), except)
}

// relay returns the message to relay: the cell's shared one in dense
// mode, a new one otherwise.
func (e *Engine) relay(id proto.MsgID, hops uint16, payload []byte) *DataMsg {
	if e.drelay != nil {
		return e.drelay.get(id, hops, payload)
	}
	return &DataMsg{ID: id, Hops: hops, Payload: payload}
}

func (e *Engine) send(ctx proto.Context, out *DataMsg, except []proto.NodeID) {
skip:
	for _, nb := range ctx.Neighbors() {
		for _, ex := range except {
			if nb == ex {
				continue skip
			}
		}
		ctx.Send(nb, out)
	}
}

// Protocol is a standalone flood-and-prune broadcaster: the plain Bitcoin
// style dissemination the deanonymization attacks of §I exploit.
//
// It comes in the Engine's two forms: New returns one node's handler with
// a map-backed engine of its own, NewAt the handler of a whole partition
// cell of a Shared, which serves every node of the cell, holds no
// per-node state and takes the node from ctx.Self() on each call.
type Protocol struct {
	// engine is the node's own (New), or the cell's table and relay set
	// with no node bound (NewAt); at binds one.
	engine Engine
}

var _ proto.Broadcaster = (*Protocol)(nil)

// New returns a flood Protocol with a standalone seen-set.
func New() *Protocol { return &Protocol{engine: *NewEngine()} }

// NewAt returns the flood Protocol of node self's partition cell — the
// handler-factory form simulation trials use: the same *Protocol for
// every node of the cell, so installing a network's handlers allocates
// nothing. Like engines, it is invalidated by a later Shared.Partition.
func NewAt(shared *Shared, self proto.NodeID) *Protocol {
	return shared.part(self)
}

// at returns the engine acting for ctx's node. An Engine is a handle — a
// map or a table and a relay set, plus the node — so the copy shares all state
// with the original and lives on the caller's stack.
func (p *Protocol) at(ctx proto.Context) Engine {
	e := p.engine
	if e.dseen != nil {
		e.self = ctx.Self()
	}
	return e
}

// Init implements proto.Handler.
func (p *Protocol) Init(proto.Context) {}

// HandleMessage implements proto.Handler.
func (p *Protocol) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	if m, ok := msg.(*DataMsg); ok {
		e := p.at(ctx)
		e.HandleData(ctx, from, m)
	}
}

// HandleTimer implements proto.Handler.
func (p *Protocol) HandleTimer(proto.Context, any) {}

// Broadcast implements proto.Broadcaster: the originator delivers locally
// and pushes to all neighbors.
func (p *Protocol) Broadcast(ctx proto.Context, payload []byte) (proto.MsgID, error) {
	id := proto.NewMsgID(payload)
	e := p.at(ctx)
	if !e.MarkSeen(id) {
		return id, nil // re-broadcast of known payload is a no-op
	}
	ctx.DeliverLocal(id, payload)
	e.Spread(ctx, id, payload, 0)
	return id, nil
}
