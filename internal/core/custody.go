package core

import (
	"encoding/binary"
	"time"

	"repro/internal/proto"
	"repro/internal/relchan"
)

// Custody handoff (Dandelion++-style fail-safe custody). The one
// failure the Phase-1 reliability layer cannot repair is the originator
// itself churning before its queued payload wins a DC-net data round:
// the payload exists only in the crashed node's queue, and a sim-style
// crash/rejoin loses the round-timer chain that would launch it — the
// honest loss5+churn20 residual E15 carried since PR 5. Under recovery
// mode the originator therefore deposits the payload with every other
// group member at Broadcast time, over the reliable channel so the
// deposit itself survives loss and a custodian's own transient outage:
//
//   - each custodian acks and stores the payload, then arms a deadline
//     staggered by its rank in the sorted membership, so at most one
//     custodian acts and the rest observe its flood and stand down;
//   - the entry resolves silently when Phase 1 recovers the payload
//     (the originator's launch succeeded — every member sees it), or at
//     the deadline when the broadcast already surfaced here through
//     diffusion or flood;
//   - otherwise the private path died with the originator, and the
//     custodian injects the payload into Phase 2 itself, exactly like
//     the dissolve fallback.
//
// The privacy trade matches injectDirect and is recovery-mode-only: the
// depositor is revealed as originator to its own group members — the
// parties the DC-net's cryptographic ℓ-anonymity already names as its
// trust set — never to outsiders, and only when FailSafe opted into
// coverage-first behavior. Strict mode (FailSafe = 0, all of E1–E14)
// sends no custody traffic at all.

// relKindCustody tags a custody deposit in the core channel's identity
// space.
const relKindCustody uint8 = 1

// custodyRetryBudget bounds deposit retransmissions. Unlike a DC-net
// exchange — where a failed copy merely stalls one round — a deposit
// must outlast a custodian's whole churn outage (E15: 2 s down against
// a 150 ms RTO), so its budget is sized to ride out the outage rather
// than a single in-flight loss.
const custodyRetryBudget = 20

// custodyTimer drives one held payload's handoff deadline.
type custodyTimer struct{ id proto.MsgID }

// custodyIdent names a deposit by the payload's MsgID prefix.
func custodyIdent(id proto.MsgID) relchan.ID {
	return relchan.ID{Stream: binary.LittleEndian.Uint64(id[:8]), Kind: relKindCustody}
}

// custodyConfig configures the core-owned channel carrying deposits,
// reliable whenever Phase 1's reliability layer is on.
func custodyConfig(cfg *Config) relchan.Config {
	return relchan.Config{
		RTO:         cfg.DCNet.RetransmitTimeout,
		RetryBudget: custodyRetryBudget,
	}
}

// depositCustody hands the queued payload to every other group member.
func (p *Protocol) depositCustody(ctx proto.Context, id proto.MsgID, payload []byte) {
	msg := &relchan.CustodyMsg{ID: custodyIdent(id), Payload: payload}
	for _, m := range p.member.MembersView() {
		if m == ctx.Self() {
			continue
		}
		p.rel.Send(ctx, m, msg, custodyIdent(id))
	}
}

// onCustody stores a deposited payload and arms its handoff deadline.
func (p *Protocol) onCustody(ctx proto.Context, from proto.NodeID, m *relchan.CustodyMsg) {
	if p.rel.Receive(ctx, from, m.ID) {
		return // retransmitted deposit: re-acked, already stored
	}
	if !p.recovery() {
		return
	}
	id := proto.NewMsgID(m.Payload)
	if _, held := p.custody[id]; held {
		return
	}
	if p.custody == nil {
		p.custody = make(map[proto.MsgID][]byte)
	}
	p.custody[id] = m.Payload
	ctx.SetTimer(p.custodyDeadline(ctx), custodyTimer{id: id})
}

// custodyDeadline staggers custodians by membership rank: the base
// comfortably exceeds a healthy Phase 1 plus the fail-safe window, and
// the spacing exceeds a flood traversal, so a lower-ranked custodian's
// injection reaches the others before their own deadlines fire.
func (p *Protocol) custodyDeadline(ctx proto.Context) time.Duration {
	rank := 0
	if p.member != nil {
		for i, m := range p.member.MembersView() {
			if m == ctx.Self() {
				rank = i
				break
			}
		}
	}
	return 4*p.cfg.FailSafe + time.Duration(rank)*p.cfg.FailSafe/2
}

// onCustodyDeadline fires one held payload's deadline: if the broadcast
// never surfaced at this node, the originator is presumed gone and the
// custodian launches Phase 2 in its stead.
func (p *Protocol) onCustodyDeadline(ctx proto.Context, id proto.MsgID) {
	payload, held := p.custody[id]
	if !held {
		return
	}
	delete(p.custody, id)
	if p.ad.State(id) != nil || p.fl.Seen(id) {
		return // the broadcast made it out; the deposit is moot
	}
	p.rel.Handoffs++
	p.ad.StartCenter(ctx, id, payload)
}
