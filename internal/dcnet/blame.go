package dcnet

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/proto"
)

// Blame protocol (§V-C, after von Ahn et al.): when the failure threshold
// trips, every member opens its shares for the last failed round. Each
// member then checks, for every peer p:
//
//  1. the opened shares match p's pre-round commitments,
//  2. the share p actually sent me equals p's opening for my slot,
//  3. p's opened shares XOR to an admissible contribution — all zeros,
//     a CRC-valid slot, or a CRC-valid announcement.
//
// A peer failing any check is the disruptor and is reported via OnBlame.
// Honest members that legitimately collided open CRC-valid contributions
// and are not blamed (they lose anonymity for that already-garbled round
// only — the simplification relative to von Ahn's full protocol, recorded
// in DESIGN.md).
//
// All members trip the threshold on the same round because round failure
// is defined symmetrically: a round fails for member j iff j sent and did
// not recover 0, or j did not send and recovered CRC-invalid garbage.
func (m *Member) startBlame(ctx proto.Context, round uint32) {
	if m.blameRound != 0 {
		return
	}
	rs := m.rounds[round]
	if rs == nil || rs.myShares == nil {
		return
	}
	m.blameRound = round
	m.BlamePhases++
	reveal := &RevealMsg{Round: round, Shares: rs.myShares, Salts: rs.mySalts}
	for _, p := range m.peers {
		m.sendReliable(ctx, p, reveal, round, KindReveal)
	}
	m.tryFinishBlame(ctx)
}

func (m *Member) onCommit(ctx proto.Context, from proto.NodeID, msg *CommitMsg) {
	i := m.peerIndex(from)
	if m.stopped || i < 0 {
		return
	}
	m.ackIncoming(ctx, i, from, msg.Round, KindCommit)
	if len(msg.Digests) != len(m.peers) {
		return
	}
	rs := m.inputRound(msg.Round)
	if rs == nil || rs.in[i].has&inCommit != 0 {
		return
	}
	in := &rs.in[i]
	in.commits, in.has = msg.Digests, in.has|inCommit
}

func (m *Member) onReveal(ctx proto.Context, from proto.NodeID, msg *RevealMsg) {
	i := m.peerIndex(from)
	if m.stopped || i < 0 {
		return
	}
	m.ackIncoming(ctx, i, from, msg.Round, KindReveal)
	rs := m.inputRound(msg.Round)
	if rs == nil || rs.in[i].has&inReveal != 0 {
		return
	}
	in := &rs.in[i]
	in.reveal, in.has = msg, in.has|inReveal
	// A reveal may arrive before our own threshold trips (peers complete
	// rounds at slightly different times); join the blame phase.
	if m.blameRound == 0 && m.cfg.Policy == PolicyBlame {
		m.startBlame(ctx, msg.Round)
		return
	}
	m.tryFinishBlame(ctx)
}

// peerIndexIn returns the index of member `who` in the peer ordering of
// member `of` (members sorted, self skipped), or -1.
func (m *Member) peerIndexIn(of, who proto.NodeID) int {
	idx := 0
	for _, id := range m.members {
		if id == of {
			continue
		}
		if id == who {
			return idx
		}
		idx++
	}
	return -1
}

func (m *Member) tryFinishBlame(ctx proto.Context) {
	if m.blameRound == 0 {
		return
	}
	rs := m.rounds[m.blameRound]
	if rs == nil || rs.count(inReveal) < len(m.peers) {
		return
	}
	round := m.blameRound
	m.blameRound = 0

	for i, p := range m.peers {
		if m.blamed[p] {
			continue
		}
		if culprit, reason := m.verifyReveal(rs, i, p); culprit {
			m.blamed[p] = true
			if m.cfg.OnBlame != nil {
				m.cfg.OnBlame(ctx, p)
			}
			_ = reason
		}
	}
	_ = round
	m.consecFailures = 0
}

// verifyReveal checks the opening of peer p, m.peers[i]; it returns
// whether the peer is a disruptor and a diagnostic reason.
func (m *Member) verifyReveal(rs *roundState, i int, p proto.NodeID) (bool, string) {
	in := &rs.in[i]
	rev := in.reveal
	if rev == nil {
		return true, "no reveal"
	}
	if len(rev.Shares) != len(m.peers) || len(rev.Salts) != len(m.peers) {
		return true, "malformed reveal"
	}
	// 1. Openings match commitments.
	if in.has&inCommit != 0 {
		for j := range rev.Shares {
			if !crypto.VerifyCommit(in.commits[j], rev.Shares[j], rev.Salts[j]) {
				return true, fmt.Sprintf("commitment %d mismatch", j)
			}
		}
	}
	// 2. The share p sent me matches its opening for my slot.
	myIdx := m.peerIndexIn(p, m.cfg.Self)
	if myIdx < 0 {
		return true, "self not in peer ordering"
	}
	if in.has&inShare != 0 {
		if got := in.share; len(rev.Shares[myIdx]) != len(got) || !bytesEqual(rev.Shares[myIdx], got) {
			return true, "opened share differs from received share"
		}
	}
	// 3. The contribution is admissible.
	if len(rev.Shares[0]) != rs.slot {
		return true, "wrong share size"
	}
	contrib := make([]byte, rs.slot)
	for _, sh := range rev.Shares {
		if len(sh) != rs.slot {
			return true, "ragged share sizes"
		}
		crypto.XORBytes(contrib, sh)
	}
	if isZeroSlot(contrib) {
		return false, ""
	}
	if m.cfg.Mode == ModeFixed {
		if _, ok := unpackSlot(contrib); ok {
			return false, ""
		}
	} else if rs.kind.announce {
		if _, ok := unpackAnnounce(contrib); ok {
			return false, ""
		}
	} else {
		if _, ok := crypto.CheckCRC(contrib); ok {
			return false, ""
		}
	}
	return true, "garbage contribution"
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
