// Package relchan is the protocol-agnostic reliable overlay channel:
// per-message ack tracking, RTO retransmission with a bounded retry
// budget, nack fast-path recovery, receiver-side duplicate suppression,
// and custody transfer of an un-launched payload to a group-mate — the
// machinery PR 5 grew inside internal/dcnet, lifted out so any
// proto.Handler can mount it between itself and Context.Send.
//
// Identity. A reliable message is named by an ID (stream, seq, kind)
// that both ends derive from the message *content* — the DC-net's
// (round, kind), adaptive diffusion's (message hash, round, type),
// Dandelion's (message hash, 0, stem). Because the identity is a pure
// function of bytes already on the wire, mounting the channel never
// changes a data message's encoding: the only new traffic is the ack/
// nack/custody messages themselves, and a channel with RTO zero is
// byte-for-byte the unreliable protocol. That is why every
// zero-impairment golden table survives the mount bit-identical.
//
// Semantics (inherited verbatim from the dcnet reliability layer, whose
// shaped-parity exactness proof depends on them):
//
//   - the sender tracks each reliable message per (peer, ID) and
//     retransmits after Config.RTO, up to Config.RetryBudget times,
//     then gives up (the caller's stall machinery takes over);
//   - the receiver acks every received copy — a duplicate means the
//     previous ack probably died — and acks are themselves unreliable
//     (a lost ack merely costs one retransmission);
//   - a nack pulls an immediate retransmission of a tracked message if
//     budget remains, without waiting out the sender's timeout.
//
// Determinism. Under a netem profile every drop decision keys
// on a per-(link, type) seeded stream, so whether a given copy dies is
// a pure function of the seed — and because RTO far exceeds the
// worst-case data+ack round trip, whether the sender retransmits is the
// same pure function on the discrete-event simulator and on a
// wall-clock cluster. That is the property that extends the parity
// harness's shaped-run exactness from flood to every mounted protocol.
package relchan

import (
	"time"

	"repro/internal/proto"
)

// ID names one reliable message, derived from message content at both
// ends. Stream partitions concurrent broadcasts (typically the first
// eight bytes of the payload's MsgID; the DC-net uses 0 — its rounds
// are already globally ordered), Seq orders messages within a stream
// (round numbers), and Kind separates the message types a (stream, seq)
// pair can carry. Each directed link must carry at most one data
// message per ID between the caller's own dedup points — the invariant
// that lets content double as the retransmission index.
type ID struct {
	Stream uint64
	Seq    uint32
	Kind   uint8
}

// Config parametrizes a channel.
type Config struct {
	// RTO is the retransmit timeout. It must exceed the worst-case
	// data + ack network round trip, or in-flight messages trigger
	// spurious retransmissions. Zero disables the channel entirely:
	// Send degrades to Context.Send and no ack traffic is generated —
	// the unreliable protocol, byte-for-byte.
	RTO time.Duration
	// RetryBudget bounds retransmissions per message (0: track acks but
	// never retransmit — loss then fails deterministically, which the
	// caller's stall policy handles).
	RetryBudget int
	// MakeAck builds the ack message for one received copy. Nil uses
	// the generic relchan AckMsg; the DC-net overrides it with its own
	// compact (round, kind) ack so its wire surface stays unchanged.
	MakeAck func(ID) proto.Message
	// MakeNack builds the retransmission request. Nil uses the generic
	// relchan NackMsg.
	MakeNack func(ID) proto.Message
}

// key identifies one tracked message in flight to one peer.
type key struct {
	peer proto.NodeID
	id   ID
}

// pending is the sender-side retransmission state of one message.
type pending struct {
	msg      proto.Message
	attempts int // retransmissions performed so far
	timer    proto.TimerID
}

// retryTimer is the retransmit-timeout payload. It names the owning
// channel by address so a handler holding several channels (e.g. the
// composed node: the DC-net's plus the custody channel) can route timers
// without ambiguity — which is why a channel must not move once Init ran.
type retryTimer struct {
	ch *Channel
	k  key
}

// Channel is one handler's reliable send/receive state. It is a value
// its owner embeds (or, in a mounted network, keeps in a node-indexed
// slab) and readies with Init. Like the handlers that own it, it is
// single-threaded: runtimes serialize all calls.
type Channel struct {
	cfg     Config
	pending map[key]*pending
	// seen is the receiver-side duplicate-suppression set, maintained
	// only through Receive (callers with their own dedup — the DC-net's
	// per-round inputs — use AckCopy and never populate it).
	seen    map[key]struct{}
	stopped bool

	// Stats, exposed for probes and experiments.
	Retransmits int // retransmissions performed (timer- or nack-pulled)
	Nacks       int // nack messages sent
	Handoffs    int // custody payloads launched for an absent owner
}

// Init makes c a fresh channel with the given configuration, in place:
// tracking state, the stopped flag and the stats all start over. A
// Config with RTO zero yields a disabled channel: every method is a
// cheap no-op and Send passes straight through to Context.Send.
//
// A retry timer an earlier use of c armed still names c. Owners
// re-Init a channel only once the network that carried those timers is
// drained or discarded (a trial reset), so no such timer can fire.
func (c *Channel) Init(cfg Config) {
	if cfg.RTO < 0 || cfg.RetryBudget < 0 {
		panic("relchan: negative reliability parameter")
	}
	if cfg.MakeAck == nil {
		cfg.MakeAck = func(id ID) proto.Message { return &AckMsg{ID: id} }
	}
	if cfg.MakeNack == nil {
		cfg.MakeNack = func(id ID) proto.Message { return &NackMsg{ID: id} }
	}
	*c = Channel{cfg: cfg}
}

// Enabled reports whether the ack/retransmit machinery is active.
func (c *Channel) Enabled() bool { return c.cfg.RTO > 0 }

// Stop permanently quiesces the channel: pending timers that fire are
// consumed without retransmitting, and new sends are untracked. Callers
// invoke it when the owning protocol stops (a dissolved DC-net group).
func (c *Channel) Stop() { c.stopped = true }

// Pending returns the number of tracked unacked messages (tests).
func (c *Channel) Pending() int { return len(c.pending) }

// Send transmits msg to the given peer and, when the channel is
// enabled, tracks it under id for acknowledgement. Re-sending an ID
// still in flight to the same peer replaces the tracked copy.
func (c *Channel) Send(ctx proto.Context, to proto.NodeID, msg proto.Message, id ID) {
	ctx.Send(to, msg)
	if !c.Enabled() || c.stopped {
		return
	}
	k := key{peer: to, id: id}
	if old, ok := c.pending[k]; ok {
		ctx.CancelTimer(old.timer)
	}
	if c.pending == nil {
		c.pending = make(map[key]*pending)
	}
	c.pending[k] = &pending{
		msg:   msg,
		timer: ctx.SetTimer(c.cfg.RTO, retryTimer{ch: c, k: k}),
	}
}

// AckCopy acknowledges one received copy of id back to its sender. It
// must run for every copy, before any duplicate check: a duplicate
// means the previous ack was lost. Callers with their own dedup use
// this; callers without use Receive.
func (c *Channel) AckCopy(ctx proto.Context, from proto.NodeID, id ID) {
	if !c.Enabled() || c.stopped {
		return
	}
	ctx.Send(from, c.cfg.MakeAck(id))
}

// Receive acknowledges one received copy and reports whether it is a
// duplicate delivery from that peer — the suppression a handler without
// natural idempotence (Dandelion's stem loop check, adaptive's token
// re-installation) needs in front of its message processing. The first
// copy returns false and is recorded; retransmitted copies return true.
func (c *Channel) Receive(ctx proto.Context, from proto.NodeID, id ID) bool {
	if !c.Enabled() || c.stopped {
		return false
	}
	ctx.Send(from, c.cfg.MakeAck(id))
	k := key{peer: from, id: id}
	if _, dup := c.seen[k]; dup {
		return true
	}
	if c.seen == nil {
		c.seen = make(map[key]struct{})
	}
	c.seen[k] = struct{}{}
	return false
}

// OnAck cancels retransmission state for an acked message. Unknown IDs
// are ignored, so several channels on one handler can all be offered
// the same generic ack — only the tracker reacts.
func (c *Channel) OnAck(ctx proto.Context, from proto.NodeID, id ID) {
	if !c.Enabled() || c.stopped {
		return
	}
	k := key{peer: from, id: id}
	if p, ok := c.pending[k]; ok {
		ctx.CancelTimer(p.timer)
		delete(c.pending, k)
	}
}

// OnNack retransmits a tracked message immediately if budget remains —
// the fast path a stalled receiver pulls instead of waiting out the
// sender's timeout.
func (c *Channel) OnNack(ctx proto.Context, from proto.NodeID, id ID) {
	if !c.Enabled() || c.stopped {
		return
	}
	k := key{peer: from, id: id}
	p, ok := c.pending[k]
	if !ok || p.attempts >= c.cfg.RetryBudget {
		return
	}
	ctx.CancelTimer(p.timer)
	c.retransmit(ctx, k, p)
}

// SendNack asks a peer to retransmit its message id — invoked by the
// caller's stall detection (the DC-net's round-timer sweep over owing
// peers).
func (c *Channel) SendNack(ctx proto.Context, to proto.NodeID, id ID) {
	if !c.Enabled() || c.stopped {
		return
	}
	c.Nacks++
	ctx.Send(to, c.cfg.MakeNack(id))
}

// HandleTimer processes one retransmit timeout; it reports whether the
// payload belonged to this channel.
func (c *Channel) HandleTimer(ctx proto.Context, payload any) bool {
	t, ok := payload.(retryTimer)
	if !ok || t.ch != c {
		return false
	}
	if c.stopped {
		return true
	}
	p, ok := c.pending[t.k]
	if !ok {
		return true
	}
	if p.attempts >= c.cfg.RetryBudget {
		// Budget exhausted: give up on this copy. The message either
		// recovers through the peer's nack or the caller's stall
		// machinery takes over.
		delete(c.pending, t.k)
		return true
	}
	c.retransmit(ctx, t.k, p)
	return true
}

func (c *Channel) retransmit(ctx proto.Context, k key, p *pending) {
	p.attempts++
	c.Retransmits++
	ctx.Send(k.peer, p.msg)
	p.timer = ctx.SetTimer(c.cfg.RTO, retryTimer{ch: c, k: k})
}

// DropPeer cancels retransmission state toward one peer and forgets its
// receive history (an evicted or departed group member).
func (c *Channel) DropPeer(ctx proto.Context, peer proto.NodeID) {
	for k, p := range c.pending {
		if k.peer == peer {
			ctx.CancelTimer(p.timer)
			delete(c.pending, k)
		}
	}
	for k := range c.seen {
		if k.peer == peer {
			delete(c.seen, k)
		}
	}
}

// DropWhere cancels retransmission state for every tracked message
// whose (peer, id) satisfies the predicate — the caller's GC hook (the
// DC-net drops a completed round's IDs; a broadcast protocol drops a
// finished stream).
func (c *Channel) DropWhere(ctx proto.Context, match func(peer proto.NodeID, id ID) bool) {
	for k, p := range c.pending {
		if match(k.peer, k.id) {
			ctx.CancelTimer(p.timer)
			delete(c.pending, k)
		}
	}
}
