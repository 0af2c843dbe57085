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

// newRelChannel builds the member's reliable channel, plugging in the
// DC-net's own compact ack/nack encodings so the wire surface matches
// the pre-relchan reliability layer byte-for-byte.
func newRelChannel(cfg *Config) *relchan.Channel {
	return relchan.New(relchan.Config{
		RTO:         cfg.RetransmitTimeout,
		RetryBudget: cfg.RetryBudget,
		MakeAck: func(id relchan.ID) proto.Message {
			return &AckMsg{Round: id.Seq, Kind: id.Kind}
		},
		MakeNack: func(id relchan.ID) proto.Message {
			return &NackMsg{Round: id.Seq, Kind: id.Kind}
		},
	})
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

// ackIncoming acknowledges a received reliable message and records the
// peer as alive for the round's silence accounting. It must run before
// any duplicate check: a duplicate means the previous ack was lost.
func (m *Member) ackIncoming(ctx proto.Context, from proto.NodeID, round uint32, kind uint8) {
	m.heard(from, round)
	m.rel.AckCopy(ctx, from, dcID(round, kind))
}

// heard marks peer activity for a round without creating round state
// for rounds already garbage-collected.
func (m *Member) heard(from proto.NodeID, round uint32) {
	if !m.failover() {
		return
	}
	rs := m.rounds[round]
	if rs == nil {
		return
	}
	if rs.heard == nil {
		rs.heard = make(map[proto.NodeID]bool, len(m.peers))
	}
	rs.heard[from] = true
}

func (m *Member) onAck(ctx proto.Context, from proto.NodeID, msg *AckMsg) {
	if m.stopped || !m.isPeer(from) || !m.reliable() {
		return
	}
	m.heard(from, msg.Round)
	m.rel.OnAck(ctx, from, dcID(msg.Round, msg.Kind))
}

func (m *Member) onNack(ctx proto.Context, from proto.NodeID, msg *NackMsg) {
	if m.stopped || !m.isPeer(from) || !m.reliable() {
		return
	}
	m.heard(from, msg.Round)
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
	for _, p := range m.peers {
		if _, ok := rs.gotShares[p]; !ok {
			m.rel.SendNack(ctx, p, dcID(rs.number, KindShare))
			continue
		}
		if rs.sSent {
			if _, ok := rs.gotSPart[p]; !ok {
				m.rel.SendNack(ctx, p, dcID(rs.number, KindSPartial))
				continue
			}
		}
		if rs.tSent {
			if _, ok := rs.gotTPart[p]; !ok {
				m.rel.SendNack(ctx, p, dcID(rs.number, KindTPartial))
			}
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
	for _, p := range m.peers {
		if rs.heard[p] {
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
	if !slices.Contains(m.peers, p) {
		return
	}
	if i := slices.Index(m.members, p); i >= 0 {
		m.members = slices.Delete(m.members, i, i+1)
	}
	if i := slices.Index(m.peers, p); i >= 0 {
		m.peers = slices.Delete(m.peers, i, i+1)
	}
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
		// exact-count barriers of rounds not yet started.
		delete(rs.gotShares, p)
		delete(rs.gotSPart, p)
		delete(rs.gotTPart, p)
		delete(rs.gotCommits, p)
		delete(rs.gotReveals, p)
		delete(rs.heard, p)
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
