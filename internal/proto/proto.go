// Package proto defines the protocol kernel shared by every component of
// the library: node identifiers, the message interface, and the
// Handler/Context pair that protocol state machines are written against.
//
// All protocol logic in this repository (flood-and-prune, adaptive
// diffusion, DC-nets, Dandelion, and the composed three-phase protocol) is
// implemented as a Handler. A Handler never spawns goroutines and never
// blocks; it reacts to messages and timers through a Context supplied by a
// runtime. Two runtimes exist: the deterministic discrete-event simulator
// (internal/sim) and the real TCP node runtime (internal/transport). The
// same Handler code runs unmodified under both.
package proto

import (
	"math/rand/v2"
	"time"
)

// NodeID identifies a node within a network. In simulation, IDs are dense
// indexes [0, N). Over TCP, IDs are assigned during the handshake from the
// node's identity key.
type NodeID int32

// NoNode is the zero-suspect / absent-node sentinel.
const NoNode NodeID = -1

// MsgType tags a wire message. Each protocol package owns a range; see the
// Range* constants.
type MsgType uint16

// Message type ranges, one per protocol package. Keeping the ranges
// disjoint lets a single codec registry serve the composed node.
const (
	RangeTransport MsgType = 0x0000 // handshake, ping
	RangeFlood     MsgType = 0x0100
	RangeAdaptive  MsgType = 0x0200
	RangeDCNet     MsgType = 0x0300
	RangeDandelion MsgType = 0x0400
	RangeCore      MsgType = 0x0500
	RangeGroup     MsgType = 0x0600 // reserved: group placement sends no messages
	RangeChain     MsgType = 0x0700
	RangeRelChan   MsgType = 0x0800
	RangeWorkload  MsgType = 0x0900

	// RangeEnd is the exclusive upper bound of the allocated type space.
	// Full-space sweeps (the parity harness's per-type accounting) use
	// it, so a new range added above must bump it alongside.
	RangeEnd MsgType = 0x0A00
)

// Message is any protocol message. Concrete messages also implement
// wire.Encodable when they must cross a real network or be size-accounted.
type Message interface {
	Type() MsgType
}

// TimerID identifies a pending timer so it can be cancelled.
type TimerID uint64

// Context is the side-effect interface handed to Handlers. Implementations
// are provided by the runtimes; protocol code must route every external
// effect through it so that simulation stays deterministic.
type Context interface {
	// Self returns the ID of the node executing the handler.
	Self() NodeID
	// Now returns the current time as an offset from runtime start.
	Now() time.Duration
	// Rand returns the node's deterministic random source.
	Rand() *rand.Rand
	// Neighbors returns the node's overlay neighbors. Broadcast protocols
	// restrict gossip to this set; group protocols (DC-nets) may Send to
	// any known NodeID, which models a dedicated overlay connection.
	Neighbors() []NodeID
	// Send transmits msg to the given node. Delivery is asynchronous and,
	// under the honest-but-curious model, reliable and ordered per link.
	Send(to NodeID, msg Message)
	// SetTimer schedules HandleTimer(payload) after delay and returns a
	// handle for cancellation.
	SetTimer(delay time.Duration, payload any) TimerID
	// CancelTimer cancels a pending timer; cancelling an already-fired or
	// unknown timer is a no-op.
	CancelTimer(id TimerID)
	// DeliverLocal reports that this node has received the broadcast
	// payload identified by id. Runtimes use it to track coverage and to
	// hand transactions to the application layer (e.g. a mempool).
	DeliverLocal(id MsgID, payload []byte)
}

// Handler is a protocol state machine. Implementations must be
// single-threaded: runtimes guarantee that calls into one Handler never
// overlap.
//
// One Handler may serve many nodes: a factory is free to hand a runtime
// the same value for several of them (flood.NewAt returns one per
// partition cell of its shared state), provided those nodes execute on
// one thread. A handler therefore takes its identity from ctx.Self() on
// each call, never from the order it was constructed or installed in.
//
// A received message, and every slice reachable from it, is shared and
// read-only. The simulator hands one message value to every receiver,
// and the live runtime may hand one decoded payload to several frames
// (wire.Interner); a handler that needs to change received bytes copies
// them first. TestReceivedMessagesStayUnchanged (internal/stack) holds
// all four protocol stacks to this.
type Handler interface {
	// Init is called once per node the handler serves, before any message
	// or timer is delivered to that node.
	Init(ctx Context)
	// HandleMessage processes a message from a peer.
	HandleMessage(ctx Context, from NodeID, msg Message)
	// HandleTimer processes a timer set through Context.SetTimer.
	HandleTimer(ctx Context, payload any)
}

// Broadcaster is a Handler that can originate an anonymous (or plain)
// broadcast. The runtime invokes Broadcast on behalf of the application.
type Broadcaster interface {
	Handler
	// Broadcast injects a new payload originating at this node and returns
	// the payload's message ID.
	Broadcast(ctx Context, payload []byte) (MsgID, error)
}
