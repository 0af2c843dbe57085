package dcnet

import (
	"fmt"
	"slices"

	"repro/internal/proto"
	"repro/internal/relchan"
)

// Reliability layer (loss tolerance). The Fig.-4 round is a barrier on
// every peer's share and partials, so a single dropped message stalls
// the round for the whole group — the failure mode E15 exposed at ≥5%
// loss. When Config.RetransmitTimeout is set, every exchange message
// (share, S/T-partial, and the blame commitments/reveals) is tracked
// until the receiver acknowledges it. The tracking itself — per-peer
// pending maps, RTO retransmission under a bounded budget, nack
// fast-path — lives in the protocol-agnostic relchan.Channel; this file
// binds it to the DC-net's message identity and stall detection:
//
//   - a message is identified by (round, kind): each round sends at
//     most one message of each kind per directed peer pair, so the
//     existing round plumbing doubles as the retransmission index and
//     the exchange encodings stay byte-identical to the unreliable
//     protocol (the channel's stream coordinate is unused — rounds are
//     already globally ordered);
//   - the channel is configured with this package's compact AckMsg/
//     NackMsg constructors, so the ack traffic on the wire is also
//     byte-identical to the pre-extraction layer;
//   - a member whose round timer finds the previous round still missing
//     inputs nacks the owing peers, pulling a retransmission
//     immediately instead of waiting out the sender's timeout.
//
// Failover (membership layer, §IV-C). With Config.EvictAfter = K > 0 a
// stalled round is not fatal: when it exceeds Config.Timeout it is
// abandoned — every peer that stayed completely silent for the round
// (no share, no partial, not even an ack) is charged a miss, everyone
// else's miss counter resets — and the round sequence continues. A peer
// reaching K consecutive misses is evicted: the group re-keys around
// the survivors (fresh epoch, per-round share vectors regenerated over
// the shrunk membership, in-flight rounds discarded) and keeps running,
// unless the eviction would shrink the group below Config.MinMembers,
// in which case it dissolves and the membership layer re-forms it.
// Detection is symmetric — every member runs the same timers against
// the same observations, so a crashed peer is evicted by all survivors
// within one round of each other; a transiently inconsistent view
// cannot deliver (mismatched share vectors XOR to CRC-garbage, never to
// a forged message) and heals at the next abandon.

// dcID maps the DC-net's (round, kind) message identity onto the
// channel's generic coordinates.
func dcID(round uint32, kind uint8) relchan.ID {
	return relchan.ID{Seq: round, Kind: kind}
}

// relConfig configures the member's reliable channel, plugging in the
// DC-net's own compact ack/nack encodings so the wire surface matches
// the pre-relchan reliability layer byte-for-byte.
func relConfig(cfg *Config) relchan.Config {
	return relchan.Config{
		RTO:         cfg.RetransmitTimeout,
		RetryBudget: cfg.RetryBudget,
		MakeAck: func(id relchan.ID) proto.Message {
			return &AckMsg{Round: id.Seq, Kind: id.Kind}
		},
		MakeNack: func(id relchan.ID) proto.Message {
			return &NackMsg{Round: id.Seq, Kind: id.Kind}
		},
	}
}

// reliable reports whether the ack/retransmit layer is active.
func (m *Member) reliable() bool { return m.rel.Enabled() }

// failover reports whether stalled rounds are abandoned and silent
// peers evicted instead of the group dissolving on first stall.
func (m *Member) failover() bool { return m.cfg.EvictAfter > 0 }

// Retransmits returns the number of retransmissions performed.
func (m *Member) Retransmits() int { return m.rel.Retransmits }

// Nacks returns the number of retransmission requests sent.
func (m *Member) Nacks() int { return m.rel.Nacks }

// sendReliable transmits msg and, when the reliability layer is on,
// tracks it for acknowledgement under (round, kind).
func (m *Member) sendReliable(ctx proto.Context, to proto.NodeID, msg proto.Message, round uint32, kind uint8) {
	m.rel.Send(ctx, to, msg, dcID(round, kind))
}

// ackIncoming acknowledges a received reliable message from peer i and
// records the peer as alive for the round's silence accounting. It must
// run before any duplicate check: a duplicate means the previous ack was
// lost.
func (m *Member) ackIncoming(ctx proto.Context, i int, from proto.NodeID, round uint32, kind uint8) {
	m.heard(i, round)
	m.rel.AckCopy(ctx, from, dcID(round, kind))
}

// heard marks peer i's activity for a round without creating round
// state for rounds already garbage-collected.
func (m *Member) heard(i int, round uint32) {
	if !m.failover() {
		return
	}
	if rs := m.rounds[round]; rs != nil {
		rs.in[i].has |= inHeard
	}
}

func (m *Member) onAck(ctx proto.Context, from proto.NodeID, msg *AckMsg) {
	i := m.peerIndex(from)
	if m.stopped || i < 0 || !m.reliable() {
		return
	}
	m.heard(i, msg.Round)
	m.rel.OnAck(ctx, from, dcID(msg.Round, msg.Kind))
}

func (m *Member) onNack(ctx proto.Context, from proto.NodeID, msg *NackMsg) {
	i := m.peerIndex(from)
	if m.stopped || i < 0 || !m.reliable() {
		return
	}
	m.heard(i, msg.Round)
	m.rel.OnNack(ctx, from, dcID(msg.Round, msg.Kind))
}

// nackMissing asks the owing peers for the inputs a stalled round still
// lacks — invoked when the next round's timer fires and finds the
// previous round incomplete. Only inputs the round is actually waiting
// on are nacked: partials are requested only once this member's own
// barrier for the prior step has passed (before that the peer may
// legitimately not have sent them).
func (m *Member) nackMissing(ctx proto.Context, rs *roundState) {
	if !m.reliable() || rs.complete {
		return
	}
	for i, p := range m.peers {
		has := rs.in[i].has
		switch {
		case has&inShare == 0:
			m.rel.SendNack(ctx, p, dcID(rs.number, KindShare))
		case rs.sSent && has&inSPart == 0:
			m.rel.SendNack(ctx, p, dcID(rs.number, KindSPartial))
		case rs.tSent && has&inTPart == 0:
			m.rel.SendNack(ctx, p, dcID(rs.number, KindTPartial))
		}
	}
}

// dropRoundPending cancels retransmission state for one round.
func (m *Member) dropRoundPending(ctx proto.Context, round uint32) {
	m.rel.DropWhere(ctx, func(_ proto.NodeID, id relchan.ID) bool {
		return id.Seq == round
	})
}

// abandonRound gives up on a stalled round under failover: silence is
// charged, the round is closed as failed, and the round sequence moves
// on. Completion-blind peers (crashed or partitioned) accumulate misses
// here until evictSilent removes them.
func (m *Member) abandonRound(ctx proto.Context, rs *roundState) {
	rs.complete = true
	rs.failed = true
	m.RoundsAbandoned++
	m.dropRoundPending(ctx, rs.number)
	for i, p := range m.peers {
		if rs.in[i].has&inHeard != 0 {
			m.missed[p] = 0
		} else {
			m.missed[p]++
		}
	}
	// An abandoned data round returns the reservation; the queued
	// payload re-bids at the next announcement.
	m.reserved = false
	m.nextKind = initialKind(m.cfg.Mode)

	m.evictSilent(ctx)
	if m.stopped {
		return
	}
	m.gc(rs.number)
	if m.deferred == rs.number+1 {
		next := m.deferred
		m.deferred = 0
		m.startRound(ctx, next)
	}
}

// evictSilent evicts every peer whose consecutive-miss count reached
// the threshold, in deterministic (sorted) order.
func (m *Member) evictSilent(ctx proto.Context) {
	for _, p := range slices.Clone(m.peers) {
		if m.stopped {
			return
		}
		if m.missed[p] >= m.cfg.EvictAfter {
			m.evict(ctx, p)
		}
	}
}

// evict removes a peer from the group: the membership shrinks, the
// epoch advances (re-key — subsequent rounds split fresh share vectors
// over the survivors) and in-flight rounds are discarded. Shrinking
// below MinMembers dissolves the group instead of running it under the
// configured anonymity floor.
func (m *Member) evict(ctx proto.Context, p proto.NodeID) {
	pi := m.peerIndex(p)
	if pi < 0 {
		return
	}
	if i := slices.Index(m.members, p); i >= 0 {
		m.members = slices.Delete(m.members, i, i+1)
	}
	m.peers = slices.Delete(m.peers, pi, pi+1)
	delete(m.missed, p)
	m.rel.DropPeer(ctx, p)
	m.epoch++
	m.Evictions++

	// Discard in-flight rounds: their barriers and share vectors were
	// sized to the old membership. The next scheduled round starts the
	// new epoch from a clean announce.
	for _, rs := range m.rounds {
		if rs.started && !rs.complete {
			rs.complete = true
			rs.failed = true
			if rs.hasTimeout {
				ctx.CancelTimer(rs.timeoutID)
				rs.hasTimeout = false
			}
			m.dropRoundPending(ctx, rs.number)
		}
		// Inputs already received from the evicted peer would skew the
		// exact-count barriers of rounds not yet started; deleting its
		// entry keeps every other input at its owner's new index.
		rs.in = slices.Delete(rs.in, pi, pi+1)
	}
	m.reserved = false
	m.nextKind = initialKind(m.cfg.Mode)
	if m.blameRound != 0 {
		// A blame phase waiting on the evicted peer's reveal can never
		// finish; the failed round it was judging is gone with the epoch.
		m.blameRound = 0
	}

	if len(m.members) < m.cfg.MinMembers {
		m.dissolve(ctx, fmt.Sprintf("group of %d below floor %d after evicting %d",
			len(m.members), m.cfg.MinMembers, p))
	}
}
