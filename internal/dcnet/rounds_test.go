package dcnet

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/proto"
)

// stubCtx is a Context for driving one Member by hand: sends are
// counted and dropped, timers never fire.
type stubCtx struct {
	self proto.NodeID
	rng  *rand.Rand
	sent int
}

func newStubCtx(self proto.NodeID) *stubCtx {
	return &stubCtx{self: self, rng: rand.New(rand.NewPCG(1, 2))}
}

func (c *stubCtx) Self() proto.NodeID                        { return c.self }
func (c *stubCtx) Now() time.Duration                        { return 0 }
func (c *stubCtx) Rand() *rand.Rand                          { return c.rng }
func (c *stubCtx) Neighbors() []proto.NodeID                 { return nil }
func (c *stubCtx) Send(proto.NodeID, proto.Message)          { c.sent++ }
func (c *stubCtx) SetTimer(time.Duration, any) proto.TimerID { return 0 }
func (c *stubCtx) CancelTimer(proto.TimerID)                 {}
func (c *stubCtx) DeliverLocal(proto.MsgID, []byte)          {}

// stubMember builds member 0 of the group {0, …, g−1} in fixed mode with
// 16-byte slots, not yet started.
func stubMember(t testing.TB, g int, mutate func(*Config)) *Member {
	t.Helper()
	all := make([]proto.NodeID, g)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	cfg := Config{Self: 0, Members: all, Mode: ModeFixed, SlotSize: 16, Interval: time.Second, Policy: PolicyNone}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewMember(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInputPresence pins what a round records per peer: a zero-length
// input is present and counts once, and a second input of the same kind
// from the same peer — whatever its content — is ignored.
func TestInputPresence(t *testing.T) {
	ctx := newStubCtx(0)
	m := stubMember(t, 4, nil)
	m.HandleMessage(ctx, 1, &ShareMsg{Round: 1, Data: nil})
	m.HandleMessage(ctx, 1, &ShareMsg{Round: 1, Data: make([]byte, 16)})
	m.HandleMessage(ctx, 2, &ShareMsg{Round: 1, Data: []byte("first")})
	m.HandleMessage(ctx, 2, &ShareMsg{Round: 1, Data: []byte("second")})
	m.HandleMessage(ctx, 3, &SPartialMsg{Round: 1, Data: []byte{}})

	rs := m.rounds[1]
	if rs == nil {
		t.Fatal("inputs created no round state")
	}
	if got := rs.count(inShare); got != 2 {
		t.Errorf("%d shares counted, want 2", got)
	}
	if got := rs.count(inSPart); got != 1 {
		t.Errorf("%d S-partials counted, want 1", got)
	}
	if got := rs.in[0].share; len(got) != 0 {
		t.Errorf("peer 1's zero-length share was replaced by %d bytes", len(got))
	}
	if got := rs.in[1].share; string(got) != "first" {
		t.Errorf("peer 2's share is %q, want the first copy", got)
	}
	if rs.in[2].has&inShare != 0 {
		t.Error("peer 3 recorded a share it never sent")
	}
	if rs.allIn(inShare) {
		t.Error("round holds every share with one peer's missing")
	}
}

// TestEvictionKeepsInputsAttributed evicts peers out from under a round's
// inputs: the peer indexes after each evicted one shift, and every input
// already received must stay with the peer that sent it.
func TestEvictionKeepsInputsAttributed(t *testing.T) {
	ctx := newStubCtx(0)
	m := stubMember(t, 5, func(cfg *Config) { cfg.EvictAfter = 1 })
	for _, p := range []proto.NodeID{1, 2, 4} {
		m.HandleMessage(ctx, p, &ShareMsg{Round: 2, Data: []byte{byte(p)}})
	}
	m.HandleMessage(ctx, 3, &SPartialMsg{Round: 2, Data: []byte{3}})

	check := func(want map[proto.NodeID][2][]byte) {
		t.Helper()
		rs := m.rounds[2]
		if len(rs.in) != len(m.peers) {
			t.Fatalf("round has %d input slots for %d peers", len(rs.in), len(m.peers))
		}
		for i, p := range m.peers {
			in := rs.in[i]
			w := want[p]
			if (in.has&inShare != 0) != (w[0] != nil) || !bytes.Equal(in.share, w[0]) {
				t.Errorf("peer %d: share %v (present %v), want %v", p, in.share, in.has&inShare != 0, w[0])
			}
			if (in.has&inSPart != 0) != (w[1] != nil) || !bytes.Equal(in.sPart, w[1]) {
				t.Errorf("peer %d: S-partial %v (present %v), want %v", p, in.sPart, in.has&inSPart != 0, w[1])
			}
		}
	}
	m.evict(ctx, 2)
	check(map[proto.NodeID][2][]byte{1: {{1}, nil}, 3: {nil, {3}}, 4: {{4}, nil}})
	m.evict(ctx, 1)
	check(map[proto.NodeID][2][]byte{3: {nil, {3}}, 4: {{4}, nil}})
	if rs := m.rounds[2]; rs.count(inShare) != 1 || rs.count(inSPart) != 1 {
		t.Errorf("after two evictions: %d shares, %d S-partials; want 1 and 1", rs.count(inShare), rs.count(inSPart))
	}
}

// TestForgedRoundsStayBounded feeds one member a stream of inputs naming
// far-future rounds from one peer. They are acked as before but create
// no state, so the member's rounds stay bounded by the gc horizon while
// the group keeps running.
func TestForgedRoundsStayBounded(t *testing.T) {
	const g = 4
	h := newGroup(t, g, func(_ int, cfg *Config) {
		cfg.RetransmitTimeout = 30 * time.Millisecond
	})
	h.runRounds(2)
	m := h.members[0]
	ctx := newStubCtx(0)
	for i := range 1000 {
		r := m.current + 1000 + uint32(i)
		switch i % 5 {
		case 0:
			m.HandleMessage(ctx, 1, &ShareMsg{Round: r, Data: make([]byte, 64)})
		case 1:
			m.HandleMessage(ctx, 1, &SPartialMsg{Round: r, Data: make([]byte, 64)})
		case 2:
			m.HandleMessage(ctx, 1, &TPartialMsg{Round: r, Data: make([]byte, 64)})
		case 3:
			m.HandleMessage(ctx, 1, &CommitMsg{Round: r, Digests: make([][32]byte, g-1)})
		case 4:
			m.HandleMessage(ctx, 1, &RevealMsg{Round: r})
		}
	}
	if ctx.sent != 1000 {
		t.Errorf("forged inputs drew %d acks, want 1000", ctx.sent)
	}
	before := m.RoundsCompleted
	h.runRounds(40)
	if m.RoundsCompleted < before+35 {
		t.Errorf("group stalled after the forged stream: %d rounds completed, want ≥ %d", m.RoundsCompleted, before+35)
	}
	if limit := 2*int(m.horizon()) + 2; len(m.rounds) > limit {
		t.Errorf("member holds %d rounds after the forged stream, want ≤ %d", len(m.rounds), limit)
	}
}

// TestRoundAllocsIndependentOfGroupSize drives one member through idle
// fixed-mode rounds by hand and counts its allocations per round: the
// messages of an exchange step share one allocation and round state is
// recycled, so a round costs the same number of objects at g = 5 and at
// g = 20.
func TestRoundAllocsIndependentOfGroupSize(t *testing.T) {
	perRound := func(g int) float64 {
		const rounds, runs = 64, 4
		m := stubMember(t, g, nil)
		ctx := newStubCtx(0)
		// Every input is an all-zero slot, prebuilt so the count is the
		// member's own: the rounds recover zero, i.e. run idle.
		zero := make([]byte, m.cfg.SlotSize)
		type inputs struct {
			share []ShareMsg
			sPart []SPartialMsg
			tPart []TPartialMsg
		}
		total := rounds * (runs + 1)
		msgs := make([]inputs, total+1)
		for r := 1; r <= total; r++ {
			in := inputs{make([]ShareMsg, g-1), make([]SPartialMsg, g-1), make([]TPartialMsg, g-1)}
			for i := range g - 1 {
				in.share[i] = ShareMsg{Round: uint32(r), Data: zero}
				in.sPart[i] = SPartialMsg{Round: uint32(r), Data: zero}
				in.tPart[i] = TPartialMsg{Round: uint32(r), Data: zero}
			}
			msgs[r] = in
		}
		next := 1
		allocs := testing.AllocsPerRun(runs, func() {
			for range rounds {
				r, in := uint32(next), &msgs[next]
				next++
				m.HandleTimer(ctx, roundTimer{round: r})
				for i, p := range m.peers {
					m.HandleMessage(ctx, p, &in.share[i])
				}
				for i, p := range m.peers {
					m.HandleMessage(ctx, p, &in.sPart[i])
				}
				for i, p := range m.peers {
					m.HandleMessage(ctx, p, &in.tPart[i])
				}
			}
		})
		if m.RoundsCompleted != total {
			t.Fatalf("g=%d: %d rounds completed, want %d", g, m.RoundsCompleted, total)
		}
		return allocs / rounds
	}
	small, large := perRound(5), perRound(20)
	if small != large {
		t.Errorf("a round allocates %.2f objects at g=5 but %.2f at g=20, want equal", small, large)
	}
}
