package dcnet

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/relchan"
)

// handGroup is one DC-net group driven by hand: every member's sends go
// to one FIFO that drain delivers, round timers fire only when a test
// calls round, and nothing the driver does allocates once its queue has
// grown.
type handGroup struct {
	cfgs    []Config
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
	h := &handGroup{cfgs: make([]Config, g), members: make([]*Member, g), ctxs: make([]handCtx, g), queue: make([]handMsg, 0, 3*g*g)}
	for i := range all {
		cfg := Config{Self: all[i], Members: all, Mode: ModeFixed, SlotSize: 64, Interval: time.Second, Policy: PolicyNone}
		if onDeliver != nil {
			self := all[i]
			cfg.OnDeliver = func(_ proto.Context, round uint32, payload []byte) { onDeliver(self, round, payload) }
		}
		h.cfgs[i] = cfg
		h.ctxs[i] = handCtx{g: h, self: all[i], rng: rand.New(rand.NewPCG(seed, uint64(i)))}
	}
	h.build(t, pool)
	return h
}

// build makes the group's members anew on pool.
func (h *handGroup) build(t testing.TB, pool *RoundPool) {
	for i, cfg := range h.cfgs {
		m, err := pool.NewMember(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.members[i] = m
	}
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
// pool, then same-shaped trials, each on the pool reset: building the
// trial's members — the pool's kept ones, rebuilt — and running its
// rounds — shares, partials, messages, round states, input rows,
// scratch — take nothing from the heap. Only queueing the payload
// allocates between the two: Queue copies it, for the caller keeps its
// own. The trials run past the gc horizon, so recycling within a trial
// is exercised too.
func TestTrialPoolRoundsAllocateNothing(t *testing.T) {
	const g, rounds, runs = 6, 12, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool := NewTrialPool()
	payload := []byte("one anonymous transaction")
	h := newHandGroup(t, pool, g, 1, nil)
	queue := func() {
		if err := h.members[1].Queue(payload); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		for r := 1; r <= rounds; r++ {
			h.round(uint32(r))
		}
	}
	check := func(trial int) {
		for j, m := range h.members {
			want := 1
			if j == 1 {
				want = 0 // the sender recovers 0
			}
			if m.Delivered != want || m.RoundsCompleted != rounds {
				t.Fatalf("trial %d member %d: %d delivered, %d rounds; want %d and %d", trial, j, m.Delivered, m.RoundsCompleted, want, rounds)
			}
		}
	}
	queue()
	run()
	check(0)
	var built, ran uint64
	for i := 1; i <= runs; i++ {
		built += mallocs(func() {
			pool.Reset()
			h.build(t, pool)
		})
		queue()
		ran += mallocs(run)
		check(i)
	}
	// Divided as AllocsPerRun divides, so one stray runtime allocation
	// over all the trials does not count.
	if built/runs != 0 || ran/runs != 0 {
		t.Errorf("%d same-shaped trials on a reset pool allocate %d times building their members and %d running their rounds, want 0", runs, built, ran)
	}
}

// mallocs returns how many heap allocations f makes. Run it at
// GOMAXPROCS 1, as testing.AllocsPerRun runs its function, so that no
// other goroutine's allocations are counted.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// poison overwrites everything p lent with junk: bytes, messages naming
// another round, rows claiming every input, finished round states that
// all share one long row, and members with junk in every map, in their
// queue and lists to capacity, and in their counters and flags.
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
	for _, m := range p.members {
		m.rounds[99] = &roundState{number: 99, started: true, in: []peerInputs{in}}
		m.blamed[99] = true
		m.missed[99] = 3
		q := m.queue[:cap(m.queue)]
		for i := range q {
			q[i] = junk
		}
		m.queue = append(q, junk)
		for _, list := range [][]proto.NodeID{m.members[:cap(m.members)], m.peers[:cap(m.peers)]} {
			for i := range list {
				list[i] = 99
			}
		}
		m.nextKind, m.reserved, m.current, m.deferred = roundKind{announce: true, dataLen: 99}, true, 99, 99
		m.startedAt, m.running, m.stopped = time.Hour, true, true
		m.retries, m.backoff, m.consecFailures, m.blameRound, m.epoch = 9, 9, 9, 99, 9
		m.RoundsCompleted, m.Collisions, m.Delivered, m.BlamePhases, m.RoundsAbandoned, m.Evictions = 99, 99, 99, 99, 99, 99
	}
}

// stateOf is what a member's behaviour reads, for comparing members built
// on different pools: all of it but its pool, its reliable channel (which
// NewMember re-Inits) and its callbacks, with an empty queue read as nil.
func stateOf(m *Member) Member {
	c := *m
	c.pool, c.rel = nil, relchan.Channel{}
	c.cfg.OnDeliver, c.cfg.OnSendResult, c.cfg.OnBlame, c.cfg.OnDissolve = nil, nil, nil, nil
	if len(c.queue) == 0 {
		c.queue = nil
	}
	return c
}

// TestTrialPoolResetLeavesNoTrace runs a trial on a trial pool, fills
// everything the pool lent with junk, resets it and runs a second trial
// on it: the second trial's members, the first's rebuilt, must equal
// members built on a fresh pool, and every member must recover exactly
// what the same second trial recovers on a fresh pool, and complete as
// many rounds. A member that kept a previous trial's map entry, queued
// payload or list entry would differ from a fresh one; one that read a
// previous trial's buffer — a share, a partial, a round state or its
// input row, uncleared scratch — would recover the junk instead.
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
	second := func(pool *RoundPool) ([]Member, []delivery, []int) {
		var got []delivery
		h := newHandGroup(t, pool, g, 2, func(self proto.NodeID, round uint32, payload []byte) {
			got = append(got, delivery{self, round, string(payload)})
		})
		var built []Member
		for _, m := range h.members {
			built = append(built, stateOf(m))
		}
		h.trial(t, []byte("the second trial's transaction"), rounds)
		var done []int
		for _, m := range h.members {
			done = append(done, m.RoundsCompleted, m.Collisions)
		}
		return built, got, done
	}
	wantBuilt, want, wantDone := second(NewTrialPool())

	pool := NewTrialPool()
	first := newHandGroup(t, pool, g, 1, nil)
	first.trial(t, []byte("the first trial's transaction"), rounds)
	poison(pool)
	pool.Reset()
	gotBuilt, got, gotDone := second(pool)

	if len(pool.members) != g || !slices.Equal(pool.members, first.members) {
		t.Fatalf("the pool built %d members over two trials of %d, want the first trial's %d rebuilt", len(pool.members), g, g)
	}
	for i := range wantBuilt {
		if !reflect.DeepEqual(gotBuilt[i], wantBuilt[i]) {
			t.Errorf("member %d built on the reset pool differs from one built on a fresh pool:\n reset %+v\n fresh %+v", i, gotBuilt[i], wantBuilt[i])
		}
	}

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
