package dcnet

import "repro/internal/slab"

// RoundPool lends members the buffers of their rounds: each round's share
// slab, S- and T-partial slabs and the ShareMsg, SPartialMsg and
// TPartialMsg arrays that carry them, myShares, the round state with its
// input row, and the slot-sized scratch (contribution, S, T, recovered
// value). A round's traveling data — the slabs and their messages — is
// referenced by the receiving peers' round states until their own gc and
// by the sender's reliable channel until acked, so no member can tell
// when it is free. Who can is the pool's owner, which picks one of two
// lifetimes:
//
//   - A trial pool (NewTrialPool) keeps everything it lends until Reset
//     takes all of it back at once, the Members it built included: a
//     member is valid until Reset, and the pool's NewMember builds it
//     anew afterwards, in place, keeping its maps and the backing arrays
//     of its lists and queue. Its owner calls Reset only when no member
//     it lent runs any more, no one keeps a pointer to one, and no
//     message it lent is in flight: after the network was reset or
//     rebuilt, which drops every queued message, and before new members
//     are built on it. A trial's high-water is then bounded by the
//     rounds and members the trial runs, and a second trial of the same
//     shape allocates nothing.
//   - A private pool (the zero RoundPool, which NewMember gives each
//     member) never resets: each member is built fresh, and traveling
//     data is allocated per round and left to the garbage collector, as
//     for a long-lived node.
//
// In both, gc takes back what only its member referenced — completed
// round states and their scratch — and the pool lends it again. Members
// on one pool must run on one goroutine: a simulated network's shard
// partition (core.Shared keeps one pool per partition).
type RoundPool struct {
	bytes  slab.Arena[byte]
	slices slab.Arena[[]byte]
	shares slab.Arena[ShareMsg]
	sParts slab.Arena[SPartialMsg]
	tParts slab.Arena[TPartialMsg]
	inputs slab.Arena[peerInputs]
	states slab.Arena[roundState]

	// freeStates and freeBufs hold what gc took back: round states with
	// their input rows, and scratch buffers.
	freeStates []*roundState
	freeBufs   [][]byte

	// members holds every Member a trial pool built, in lending order;
	// the first lent of them are out since Reset. A private pool keeps
	// none.
	members []*Member
	lent    int
	trial   bool
}

// NewTrialPool returns a pool that keeps what it lends until Reset.
func NewTrialPool() *RoundPool {
	return &RoundPool{
		bytes:  slab.New[byte](64 << 10),
		slices: slab.New[[]byte](1024),
		shares: slab.New[ShareMsg](512),
		sParts: slab.New[SPartialMsg](512),
		tParts: slab.New[TPartialMsg](512),
		inputs: slab.New[peerInputs](256),
		states: slab.New[roundState](64),
		trial:  true,
	}
}

// Reset takes back everything the pool lent (see RoundPool for when it
// may be called). On a private pool it only forgets what gc took back.
func (p *RoundPool) Reset() {
	p.bytes.Rewind()
	p.slices.Rewind()
	p.shares.Rewind()
	p.sParts.Rewind()
	p.tParts.Rewind()
	p.inputs.Rewind()
	p.states.Rewind()
	clear(p.freeStates)
	p.freeStates = p.freeStates[:0]
	clear(p.freeBufs)
	p.freeBufs = p.freeBufs[:0]
	p.lent = 0
}

// member returns the Member NewMember builds in place: a trial pool's
// next kept one, or a new one.
func (p *RoundPool) member() *Member {
	if !p.trial {
		return new(Member)
	}
	if p.lent == len(p.members) {
		p.members = append(p.members, new(Member))
	}
	m := p.members[p.lent]
	p.lent++
	return m
}

// state returns a round state with every field zero but an input row of
// n zeroed entries.
func (p *RoundPool) state(n int) *roundState {
	var rs *roundState
	var in []peerInputs
	if last := len(p.freeStates) - 1; last >= 0 {
		// A recycled state's row is its own; a state fresh from the arena
		// may hold a row another state now uses.
		rs, p.freeStates = p.freeStates[last], p.freeStates[:last]
		in = rs.in
	} else {
		rs = &p.states.Take(1)[0]
	}
	if cap(in) < n {
		in = p.inputs.Take(n)
	}
	in = in[:n]
	clear(in)
	*rs = roundState{in: in}
	return rs
}

// recycle takes back a round state gc dropped, with its scratch. Its
// input row is cleared so it pins no peer's buffers.
func (p *RoundPool) recycle(rs *roundState) {
	p.release(rs.s, rs.t, rs.myContrib)
	clear(rs.in)
	*rs = roundState{in: rs.in[:0]}
	p.freeStates = append(p.freeStates, rs)
}

// scratch returns a zeroed buffer of length n that only the calling
// member will reference, reusing a released one when its capacity
// suffices.
func (p *RoundPool) scratch(n int) []byte {
	for i := len(p.freeBufs) - 1; i >= 0; i-- {
		if cap(p.freeBufs[i]) >= n {
			b := p.freeBufs[i][:n]
			last := len(p.freeBufs) - 1
			p.freeBufs[i] = p.freeBufs[last]
			p.freeBufs[last] = nil
			p.freeBufs = p.freeBufs[:last]
			clear(b)
			return b
		}
	}
	b := p.bytes.Take(n)
	clear(b)
	return b
}

// release takes back scratch buffers; nil entries are ignored.
func (p *RoundPool) release(bufs ...[]byte) {
	for _, b := range bufs {
		if cap(b) > 0 {
			p.freeBufs = append(p.freeBufs, b)
		}
	}
}
