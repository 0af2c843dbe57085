package dcnet

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/proto"
)

// handGroup is one DC-net group driven by hand: every member's sends go
// to one FIFO that drain delivers, round timers fire only when a test
// calls round, and nothing the driver does allocates once its queue has
// grown.
type handGroup struct {
	members []*Member
	ctxs    []handCtx
	queue   []handMsg
}

type handMsg struct {
	from, to proto.NodeID
	msg      proto.Message
}

type handCtx struct {
	g    *handGroup
	self proto.NodeID
	rng  *rand.Rand
}

func (c *handCtx) Self() proto.NodeID        { return c.self }
func (c *handCtx) Now() time.Duration        { return 0 }
func (c *handCtx) Rand() *rand.Rand          { return c.rng }
func (c *handCtx) Neighbors() []proto.NodeID { return nil }
func (c *handCtx) Send(to proto.NodeID, msg proto.Message) {
	c.g.queue = append(c.g.queue, handMsg{c.self, to, msg})
}
func (c *handCtx) SetTimer(time.Duration, any) proto.TimerID { return 0 }
func (c *handCtx) CancelTimer(proto.TimerID)                 {}
func (c *handCtx) DeliverLocal(proto.MsgID, []byte)          {}

// newHandGroup builds the fixed-mode group {0, …, g−1} on pool, member
// i's random source seeded with (seed, i). onDeliver, when set, records
// every recovered message.
func newHandGroup(t testing.TB, pool *RoundPool, g int, seed uint64, onDeliver func(self proto.NodeID, round uint32, payload []byte)) *handGroup {
	t.Helper()
	all := make([]proto.NodeID, g)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	h := &handGroup{members: make([]*Member, g), ctxs: make([]handCtx, g), queue: make([]handMsg, 0, 3*g*g)}
	for i := range all {
		cfg := Config{Self: all[i], Members: all, Mode: ModeFixed, SlotSize: 64, Interval: time.Second, Policy: PolicyNone}
		if onDeliver != nil {
			self := all[i]
			cfg.OnDeliver = func(_ proto.Context, round uint32, payload []byte) { onDeliver(self, round, payload) }
		}
		m, err := pool.NewMember(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.members[i] = m
		h.ctxs[i] = handCtx{g: h, self: all[i], rng: rand.New(rand.NewPCG(seed, uint64(i)))}
	}
	return h
}

// round starts round r at every member and delivers until the group is
// quiet.
func (h *handGroup) round(r uint32) {
	for i, m := range h.members {
		m.HandleTimer(&h.ctxs[i], roundTimer{round: r})
	}
	for len(h.queue) > 0 {
		for j := 0; j < len(h.queue); j++ {
			e := h.queue[j]
			h.members[e.to].HandleMessage(&h.ctxs[e.to], e.from, e.msg)
		}
		h.queue = h.queue[:0]
	}
}

// trial queues one payload at member 1 and runs rounds 1…rounds; the
// payload goes through in round 1 and the rest run idle.
func (h *handGroup) trial(t testing.TB, payload []byte, rounds int) {
	if err := h.members[1].Queue(payload); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		h.round(uint32(r))
	}
}

// TestTrialPoolRoundsAllocateNothing runs a group's trial on a trial
// pool, resets the pool and runs same-shaped trials on it with newly
// built members: their rounds — shares, partials, messages, round
// states, input rows, scratch — take nothing from the heap. The trials
// run past the gc horizon, so recycling within a trial is exercised too.
func TestTrialPoolRoundsAllocateNothing(t *testing.T) {
	const g, rounds, runs = 6, 12, 4
	pool := NewTrialPool()
	payload := []byte("one anonymous transaction")
	// Members are built ahead: building one allocates, its rounds must
	// not. AllocsPerRun calls the function runs+1 times.
	groups := make([]*handGroup, runs+2)
	for i := range groups {
		groups[i] = newHandGroup(t, pool, g, uint64(i+1), nil)
		if err := groups[i].members[1].Queue(payload); err != nil {
			t.Fatal(err)
		}
	}
	run := func(h *handGroup) {
		for r := 1; r <= rounds; r++ {
			h.round(uint32(r))
		}
	}
	run(groups[0])
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		pool.Reset()
		run(groups[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("a same-shaped trial on a reset pool allocates %.1f times, want 0", allocs)
	}
	for i, h := range groups {
		for j, m := range h.members {
			want := 1
			if j == 1 {
				want = 0 // the sender recovers 0
			}
			if m.Delivered != want || m.RoundsCompleted != rounds {
				t.Fatalf("trial %d member %d: %d delivered, %d rounds; want %d and %d", i, j, m.Delivered, m.RoundsCompleted, want, rounds)
			}
		}
	}
}

// poison overwrites everything p lent with junk: bytes, messages naming
// another round, rows claiming every input, finished round states that
// all share one long row.
func poison(p *RoundPool) {
	junk := bytes.Repeat([]byte{0xA5}, 64)
	p.bytes.Fill(0xA5)
	p.slices.Fill(junk)
	p.shares.Fill(ShareMsg{Round: 99, Data: junk})
	p.sParts.Fill(SPartialMsg{Round: 99, Data: junk})
	p.tParts.Fill(TPartialMsg{Round: 99, Data: junk})
	in := peerInputs{share: junk, sPart: junk, tPart: junk, has: 0xff}
	p.inputs.Fill(in)
	p.states.Fill(roundState{number: 99, started: true, complete: true, sSent: true, tSent: true,
		slot: 64, myContrib: junk, s: junk, t: junk, in: slices.Repeat([]peerInputs{in}, 64)})
}

// TestTrialPoolResetLeavesNoTrace runs a trial on a trial pool, fills
// everything the pool lent with junk, resets it and runs a second trial
// on it: every member must recover exactly what the same second trial
// recovers on a fresh pool, and complete as many rounds. A member that
// read a previous trial's buffer — a share, a partial, a round state or
// its input row, uncleared scratch — would recover the junk instead.
// Each member's recovered value folds in one share from each of its
// g−1 peers; g−1 is odd, so junk that every member's shares carry alike
// does not cancel out.
func TestTrialPoolResetLeavesNoTrace(t *testing.T) {
	const g, rounds = 6, 10
	type delivery struct {
		self    proto.NodeID
		round   uint32
		payload string
	}
	second := func(pool *RoundPool) ([]delivery, []int) {
		var got []delivery
		h := newHandGroup(t, pool, g, 2, func(self proto.NodeID, round uint32, payload []byte) {
			got = append(got, delivery{self, round, string(payload)})
		})
		h.trial(t, []byte("the second trial's transaction"), rounds)
		var done []int
		for _, m := range h.members {
			done = append(done, m.RoundsCompleted, m.Collisions)
		}
		return got, done
	}
	want, wantDone := second(NewTrialPool())

	pool := NewTrialPool()
	newHandGroup(t, pool, g, 1, nil).trial(t, []byte("the first trial's transaction"), rounds)
	poison(pool)
	pool.Reset()
	got, gotDone := second(pool)

	if len(want) != g-1 {
		t.Fatalf("fresh pool: %d deliveries, want %d", len(want), g-1)
	}
	if len(got) != len(want) {
		t.Fatalf("reset pool: %d deliveries %v, fresh pool %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d: %+v on the reset pool, %+v on a fresh one", i, got[i], want[i])
		}
	}
	for i := range wantDone {
		if gotDone[i] != wantDone[i] {
			t.Errorf("member %d: rounds/collisions %v on the reset pool, %v on a fresh one", i/2, gotDone, wantDone)
			break
		}
	}
}
