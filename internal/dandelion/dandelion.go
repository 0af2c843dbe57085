// Package dandelion implements the Dandelion baseline (Bojja
// Venkatakrishnan et al., POMACS 2017) discussed in §III-A: transactions
// first travel a stem — a per-epoch random-successor line graph
// approximating a Hamiltonian path — and then fluff into a regular
// flood-and-prune broadcast with probability q per hop. The stem graph is
// re-randomized every epoch "to protect against topology leaks".
//
// Robustness mechanics follow the published design: a fail-safe timer
// fluffs a stem transaction whose broadcast never comes back, and a stem
// loop (possible because random successors only approximate a Hamiltonian
// path) triggers an immediate fluff.
package dandelion

import (
	"encoding/binary"
	"time"

	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/wire"
)

// TypeStem is the wire type of stem-phase relays.
const TypeStem = proto.RangeDandelion + 1

// StemMsg relays a transaction along the anonymity stem.
type StemMsg struct {
	ID      proto.MsgID
	Payload []byte
}

var _ wire.Encodable = (*StemMsg)(nil)

// Type implements proto.Message.
func (*StemMsg) Type() proto.MsgType { return TypeStem }

// EncodeTo implements wire.Encodable.
func (m *StemMsg) EncodeTo(w *wire.Writer) {
	w.MsgID(m.ID)
	w.ByteString(m.Payload)
}

// DecodeFrom implements wire.Encodable.
func (m *StemMsg) DecodeFrom(r *wire.Reader) error {
	m.ID = r.MsgID()
	m.Payload = r.ByteString()
	return r.Err()
}

// RegisterMessages adds this package's messages to a codec.
func RegisterMessages(c *wire.Codec) {
	c.Register(TypeStem, func() wire.Encodable { return new(StemMsg) })
}

// Config parametrizes the protocol.
type Config struct {
	// Q is the per-hop fluff probability (default 0.1, giving a mean
	// stem length of 1/q = 10 hops).
	Q float64
	// Epoch is the successor re-randomization interval (default 10 min).
	Epoch time.Duration
	// FailSafe fluffs a stem transaction if its broadcast has not been
	// observed within this duration (default 30 s; 0 disables).
	FailSafe time.Duration
	// RetransmitTimeout mounts the reliable overlay channel (relchan)
	// under the stem phase: each StemMsg is tracked until the successor
	// acks it and retransmitted after this long, up to RetryBudget
	// times. A stem hop is the protocol's single point of failure under
	// loss — one dropped relay kills the whole broadcast until FailSafe
	// rescues it — so this is where the ack discipline pays. Zero
	// disables (the unmounted protocol, byte-for-byte).
	RetransmitTimeout time.Duration
	// RetryBudget bounds retransmissions per stem relay.
	RetryBudget int
}

func (c *Config) applyDefaults() {
	if c.Q <= 0 {
		c.Q = 0.1
	}
	if c.Epoch <= 0 {
		c.Epoch = 10 * time.Minute
	}
	if c.FailSafe < 0 {
		c.FailSafe = 0
	}
}

// Timer payloads.
type epochTimer struct{}
type failSafeTimer struct{ id proto.MsgID }

// Protocol is one node's Dandelion state.
type Protocol struct {
	cfg       Config
	engine    *flood.Engine
	successor proto.NodeID
	stempool  map[proto.MsgID][]byte
	// rel is the reliable overlay channel guarding stem relays
	// (disabled unless Config.RetransmitTimeout is set).
	rel relchan.Channel
}

var _ proto.Broadcaster = (*Protocol)(nil)

// relKindStem tags a stem relay in the channel identity space.
const relKindStem uint8 = 1

// stemIdent derives a stem relay's channel identity from the message
// content both ends see: the transaction's MsgID prefix. A stem edge
// carries one relay per transaction, so no sequence coordinate is
// needed.
func stemIdent(id proto.MsgID) relchan.ID {
	return relchan.ID{Stream: binary.LittleEndian.Uint64(id[:8]), Kind: relKindStem}
}

// New returns a Dandelion node protocol.
func New(cfg Config) *Protocol {
	cfg.applyDefaults()
	p := &Protocol{
		cfg:       cfg,
		engine:    flood.NewEngine(),
		successor: proto.NoNode,
		stempool:  make(map[proto.MsgID][]byte),
	}
	p.rel.Init(relchan.Config{
		RTO:         cfg.RetransmitTimeout,
		RetryBudget: cfg.RetryBudget,
	})
	return p
}

// Channel exposes the stem reliability channel (probes, experiments).
func (p *Protocol) Channel() *relchan.Channel { return &p.rel }

// Successor exposes the current stem successor (tests, experiments).
func (p *Protocol) Successor() proto.NodeID { return p.successor }

// Init implements proto.Handler: picks the first successor and arms the
// epoch timer.
func (p *Protocol) Init(ctx proto.Context) {
	p.pickSuccessor(ctx)
	ctx.SetTimer(p.cfg.Epoch, epochTimer{})
}

func (p *Protocol) pickSuccessor(ctx proto.Context) {
	nbs := ctx.Neighbors()
	if len(nbs) == 0 {
		p.successor = proto.NoNode
		return
	}
	p.successor = nbs[ctx.Rand().IntN(len(nbs))]
}

// HandleTimer implements proto.Handler.
func (p *Protocol) HandleTimer(ctx proto.Context, payload any) {
	switch t := payload.(type) {
	case epochTimer:
		p.pickSuccessor(ctx)
		ctx.SetTimer(p.cfg.Epoch, epochTimer{})
	case failSafeTimer:
		if pl, ok := p.stempool[t.id]; ok && !p.engine.Seen(t.id) {
			p.fluff(ctx, t.id, pl)
		}
	default:
		p.rel.HandleTimer(ctx, payload)
	}
}

// HandleMessage implements proto.Handler. With the channel mounted,
// every stem copy is acked and a retransmitted copy (same predecessor)
// is suppressed before the loop check — a genuine stem cycle always
// re-enters a node from a different predecessor than its original
// relay, so loop-triggered fluffs still fire.
func (p *Protocol) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	switch m := msg.(type) {
	case *StemMsg:
		if p.rel.Receive(ctx, from, stemIdent(m.ID)) {
			return // retransmitted copy: re-acked, already processed
		}
		p.handleStem(ctx, m)
	case *relchan.AckMsg:
		p.rel.OnAck(ctx, from, m.ID)
	case *relchan.NackMsg:
		p.rel.OnNack(ctx, from, m.ID)
	case *flood.DataMsg:
		p.engine.HandleData(ctx, from, m)
	}
}

func (p *Protocol) handleStem(ctx proto.Context, m *StemMsg) {
	if p.engine.Seen(m.ID) {
		return // already fluffed network-wide; stem copy is stale
	}
	if _, looping := p.stempool[m.ID]; looping {
		// The successor graph closed a cycle; break it by fluffing so
		// delivery is still guaranteed.
		p.fluff(ctx, m.ID, m.Payload)
		return
	}
	p.stempool[m.ID] = m.Payload
	ctx.DeliverLocal(m.ID, m.Payload)
	p.stemOrFluff(ctx, m.ID, m.Payload)
}

// stemOrFluff advances the stem with probability 1−q, else fluffs.
func (p *Protocol) stemOrFluff(ctx proto.Context, id proto.MsgID, payload []byte) {
	if p.successor == proto.NoNode || ctx.Rand().Float64() < p.cfg.Q {
		p.fluff(ctx, id, payload)
		return
	}
	p.rel.Send(ctx, p.successor, &StemMsg{ID: id, Payload: payload}, stemIdent(id))
	if p.cfg.FailSafe > 0 {
		ctx.SetTimer(p.cfg.FailSafe, failSafeTimer{id: id})
	}
}

// fluff switches the transaction to flood-and-prune.
func (p *Protocol) fluff(ctx proto.Context, id proto.MsgID, payload []byte) {
	if !p.engine.MarkSeen(id) {
		return
	}
	ctx.DeliverLocal(id, payload)
	p.engine.Spread(ctx, id, payload, 0)
}

// Broadcast implements proto.Broadcaster: the originator enters its own
// transaction into the stem.
func (p *Protocol) Broadcast(ctx proto.Context, payload []byte) (proto.MsgID, error) {
	id := proto.NewMsgID(payload)
	if p.engine.Seen(id) {
		return id, nil
	}
	if _, ok := p.stempool[id]; ok {
		return id, nil
	}
	p.stempool[id] = payload
	ctx.DeliverLocal(id, payload)
	p.stemOrFluff(ctx, id, payload)
	return id, nil
}
