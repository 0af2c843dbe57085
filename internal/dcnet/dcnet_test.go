package dcnet

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// memberHandler adapts a Member to proto.Handler; drop, when set,
// discards matching incoming messages before the member sees them (the
// deterministic seeded-drop hook of the reliability tests). eager clears
// the member's collision backoff before each round timer, so a queued
// payload bids every round (the deterministic collision hook of the
// blame tests).
type memberHandler struct {
	m     *Member
	drop  func(from proto.NodeID, msg proto.Message) bool
	eager bool
}

func (h *memberHandler) Init(ctx proto.Context) { h.m.Start(ctx) }
func (h *memberHandler) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	if h.drop != nil && h.drop(from, msg) {
		return
	}
	h.m.HandleMessage(ctx, from, msg)
}
func (h *memberHandler) HandleTimer(ctx proto.Context, payload any) {
	if _, ok := payload.(roundTimer); ok && h.eager {
		h.m.backoff = 0
	}
	h.m.HandleTimer(ctx, payload)
}

// groupHarness wires n members over a clique and records outcomes.
type groupHarness struct {
	net       *sim.Network
	handlers  []*memberHandler
	members   []*Member
	received  []map[string]int // per member: payload -> delivery count
	sendOK    []int
	sendFail  []int
	blames    []map[proto.NodeID]int
	dissolved []string
}

func newGroup(t *testing.T, n int, mutate func(i int, cfg *Config)) *groupHarness {
	t.Helper()
	g, err := topology.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	h := &groupHarness{
		net:       sim.NewNetwork(g, sim.Options{Seed: 77, Latency: sim.ConstLatency(5 * time.Millisecond)}),
		handlers:  make([]*memberHandler, n),
		members:   make([]*Member, n),
		received:  make([]map[string]int, n),
		sendOK:    make([]int, n),
		sendFail:  make([]int, n),
		blames:    make([]map[proto.NodeID]int, n),
		dissolved: make([]string, n),
	}
	all := make([]proto.NodeID, n)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	h.net.SetHandlers(func(id proto.NodeID) proto.Handler {
		i := int(id)
		h.received[i] = make(map[string]int)
		h.blames[i] = make(map[proto.NodeID]int)
		cfg := Config{
			Self:     id,
			Members:  all,
			Mode:     ModeFixed,
			SlotSize: 64,
			Interval: 100 * time.Millisecond,
			Policy:   PolicyNone,
			OnDeliver: func(_ proto.Context, _ uint32, payload []byte) {
				h.received[i][string(payload)]++
			},
			OnSendResult: func(_ proto.Context, _ []byte, ok bool) {
				if ok {
					h.sendOK[i]++
				} else {
					h.sendFail[i]++
				}
			},
			OnBlame: func(_ proto.Context, culprit proto.NodeID) {
				h.blames[i][culprit]++
			},
			OnDissolve: func(_ proto.Context, reason string) {
				h.dissolved[i] = reason
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		m, err := NewMember(cfg)
		if err != nil {
			t.Fatalf("NewMember(%d): %v", i, err)
		}
		h.members[i] = m
		h.handlers[i] = &memberHandler{m: m}
		return h.handlers[i]
	})
	h.net.Start()
	return h
}

func (h *groupHarness) runRounds(rounds int) {
	h.net.RunUntil(h.net.Now() + time.Duration(rounds)*100*time.Millisecond + 50*time.Millisecond)
}

func TestSingleSenderFixedMode(t *testing.T) {
	h := newGroup(t, 5, nil)
	payload := []byte("anonymous-tx")
	if err := h.members[2].Queue(payload); err != nil {
		t.Fatal(err)
	}
	h.runRounds(3)

	for i := 0; i < 5; i++ {
		want := 1
		if i == 2 {
			want = 0 // the sender recovers 0, not its own message
		}
		if got := h.received[i][string(payload)]; got != want {
			t.Errorf("member %d delivered %d copies, want %d", i, got, want)
		}
	}
	if h.sendOK[2] != 1 {
		t.Errorf("sender success count = %d, want 1", h.sendOK[2])
	}
	if h.members[2].Pending() != 0 {
		t.Errorf("queue not drained: %d", h.members[2].Pending())
	}
}

func TestMessageComplexityPerRound(t *testing.T) {
	// §V-A: Phase 1 incurs O(k²) messages — exactly 3·g·(g−1) per round
	// without the blame extension (experiment E2's formula).
	for _, n := range []int{4, 7, 10} {
		h := newGroup(t, n, nil)
		h.runRounds(1)
		completed := h.members[0].RoundsCompleted
		if completed == 0 {
			t.Fatalf("n=%d: no round completed", n)
		}
		want := int64(3 * n * (n - 1) * completed)
		if got := h.net.TotalMessages(); got != want {
			t.Errorf("n=%d: %d messages for %d rounds, want %d", n, got, completed, want)
		}
	}
}

func TestTwoSenderCollisionAndRecovery(t *testing.T) {
	// Two members transmit in the same round: each recovers the other's
	// message (M ⊕ m_j), non-senders see garbage, and backoff separates
	// the retries until both succeed.
	h := newGroup(t, 5, nil)
	pa, pb := []byte("payload-from-a"), []byte("payload-from-b")
	if err := h.members[0].Queue(pa); err != nil {
		t.Fatal(err)
	}
	if err := h.members[1].Queue(pb); err != nil {
		t.Fatal(err)
	}
	h.runRounds(1)

	// After the colliding round: sender 0 saw b's message, sender 1 saw
	// a's, non-senders saw nothing valid.
	if h.received[0][string(pb)] != 1 {
		t.Errorf("sender 0 did not recover the colliding message")
	}
	if h.received[1][string(pa)] != 1 {
		t.Errorf("sender 1 did not recover the colliding message")
	}
	for i := 2; i < 5; i++ {
		if len(h.received[i]) != 0 {
			t.Errorf("non-sender %d delivered %v during collision", i, h.received[i])
		}
	}
	if h.members[0].Collisions == 0 || h.members[1].Collisions == 0 {
		t.Error("collision not counted by senders")
	}

	// Let backoff resolve: eventually everyone has both payloads.
	h.runRounds(80)
	for i := 0; i < 5; i++ {
		for _, p := range [][]byte{pa, pb} {
			if (i == 0 && bytes.Equal(p, pa)) || (i == 1 && bytes.Equal(p, pb)) {
				continue // own message never self-delivered
			}
			if h.received[i][string(p)] == 0 {
				t.Errorf("member %d never received %q after retries", i, p)
			}
		}
	}
	if h.sendOK[0] != 1 || h.sendOK[1] != 1 {
		t.Errorf("send successes = %d,%d, want 1,1", h.sendOK[0], h.sendOK[1])
	}
}

func TestAnnounceModeDelivery(t *testing.T) {
	h := newGroup(t, 5, func(i int, cfg *Config) {
		cfg.Mode = ModeAnnounce
	})
	payload := []byte("a somewhat longer anonymous transaction payload")
	if err := h.members[3].Queue(payload); err != nil {
		t.Fatal(err)
	}
	h.runRounds(4) // announce + data + slack

	for i := 0; i < 5; i++ {
		want := 1
		if i == 3 {
			want = 0
		}
		if got := h.received[i][string(payload)]; got != want {
			t.Errorf("member %d delivered %d copies, want %d", i, got, want)
		}
	}
	if h.sendOK[3] != 1 {
		t.Errorf("sender success = %d, want 1", h.sendOK[3])
	}
}

func TestAnnounceModeIdleBytesSmall(t *testing.T) {
	// §V-A: idle announce rounds move 8-byte slots instead of full-size
	// ones. Compare ShareMsg payload sizes: announce slots are 8 bytes.
	h := newGroup(t, 4, func(i int, cfg *Config) {
		cfg.Mode = ModeAnnounce
	})
	h.runRounds(3)
	if h.members[0].RoundsCompleted == 0 {
		t.Fatal("no rounds completed")
	}
	// All rounds idle: every exchanged buffer is the 8-byte announce slot.
	for n, rs := range h.members[0].rounds {
		if rs.complete && rs.slot != AnnounceSlotSize {
			t.Errorf("idle round %d used slot %d, want %d", n, rs.slot, AnnounceSlotSize)
		}
	}
}

func TestTimeoutDissolvesOnCrash(t *testing.T) {
	h := newGroup(t, 4, func(i int, cfg *Config) {
		cfg.Timeout = 300 * time.Millisecond
	})
	h.net.Crash(1)
	h.runRounds(8)
	for i := 0; i < 4; i++ {
		if i == 1 {
			continue
		}
		if h.dissolved[i] == "" {
			t.Errorf("member %d did not dissolve after peer crash", i)
		}
		if !h.members[i].Stopped() {
			t.Errorf("member %d still running", i)
		}
	}
}

func TestDissolvePolicyOnDisruptor(t *testing.T) {
	h := newGroup(t, 5, func(i int, cfg *Config) {
		cfg.Policy = PolicyDissolve
		cfg.FailureThreshold = 3
		if i == 4 {
			cfg.Disrupt = true
		}
	})
	h.runRounds(10)
	for i := 0; i < 4; i++ {
		if h.dissolved[i] == "" {
			t.Errorf("member %d did not dissolve under constant disruption", i)
		}
	}
}

func TestBlameIdentifiesDisruptor(t *testing.T) {
	const disruptor = 2
	h := newGroup(t, 6, func(i int, cfg *Config) {
		cfg.Policy = PolicyBlame
		cfg.FailureThreshold = 3
		if i == disruptor {
			cfg.Disrupt = true
		}
	})
	h.runRounds(12)
	for i := 0; i < 6; i++ {
		if i == disruptor {
			continue
		}
		if h.blames[i][proto.NodeID(disruptor)] == 0 {
			t.Errorf("member %d did not blame the disruptor", i)
		}
		for culprit := range h.blames[i] {
			if culprit != proto.NodeID(disruptor) {
				t.Errorf("member %d wrongly blamed honest member %d", i, culprit)
			}
		}
		if h.members[i].BlamePhases == 0 {
			t.Errorf("member %d never entered a blame phase", i)
		}
	}
}

func TestBlameSparesHonestColliders(t *testing.T) {
	// Honest members that repeatedly collide must not be blamed: their
	// openings are CRC-valid. Two senders that skip their backoff collide
	// every round, so with a threshold of 2 every member runs blame
	// phases — each checking the share every peer sent it against that
	// peer's opening.
	h := newGroup(t, 5, func(i int, cfg *Config) {
		cfg.Policy = PolicyBlame
		cfg.FailureThreshold = 2
	})
	h.handlers[0].eager, h.handlers[1].eager = true, true
	if err := h.members[0].Queue([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := h.members[1].Queue([]byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	h.runRounds(40)
	for i := 0; i < 5; i++ {
		if h.members[i].BlamePhases == 0 {
			t.Errorf("member %d never entered a blame phase", i)
		}
		for culprit, cnt := range h.blames[i] {
			if cnt > 0 {
				t.Errorf("member %d blamed honest member %d", i, culprit)
			}
		}
	}
}

func TestEncryptedChannels(t *testing.T) {
	const n = 4
	// Build pairwise channels; initiator is the smaller ID.
	kx := make([]*crypto.KeyExchange, n)
	for i := range kx {
		var err error
		kx[i], err = crypto.NewKeyExchange(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
	}
	channels := make([]map[proto.NodeID]*crypto.SecureChannel, n)
	for i := 0; i < n; i++ {
		channels[i] = make(map[proto.NodeID]*crypto.SecureChannel)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ch, err := kx[i].Channel(kx[j].PublicBytes(), i < j)
			if err != nil {
				t.Fatal(err)
			}
			channels[i][proto.NodeID(j)] = ch
		}
	}
	h := newGroup(t, n, func(i int, cfg *Config) {
		cfg.Channels = channels[i]
	})
	payload := []byte("sealed-tx")
	if err := h.members[1].Queue(payload); err != nil {
		t.Fatal(err)
	}
	h.runRounds(3)
	for i := 0; i < n; i++ {
		want := 1
		if i == 1 {
			want = 0
		}
		if got := h.received[i][string(payload)]; got != want {
			t.Errorf("member %d delivered %d copies, want %d", i, got, want)
		}
	}
}

func TestQueueValidation(t *testing.T) {
	all := []proto.NodeID{0, 1, 2}
	m, err := NewMember(Config{Self: 0, Members: all, Mode: ModeFixed, SlotSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Queue(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := m.Queue(make([]byte, 1000)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("oversized payload: %v", err)
	}
	m.Stop()
	if err := m.Queue([]byte("x")); !errors.Is(err, ErrStopped) {
		t.Errorf("stopped member accepted payload: %v", err)
	}
}

func TestNewMemberValidation(t *testing.T) {
	if _, err := NewMember(Config{Self: 0, Members: []proto.NodeID{0}}); !errors.Is(err, ErrGroupTooSmall) {
		t.Errorf("singleton group: %v", err)
	}
	if _, err := NewMember(Config{Self: 9, Members: []proto.NodeID{0, 1}}); !errors.Is(err, ErrNotMember) {
		t.Errorf("non-member self: %v", err)
	}
	if _, err := NewMember(Config{Self: 0, Members: []proto.NodeID{0, 1}, SlotSize: 4}); err == nil {
		t.Error("tiny slot accepted")
	}
}

func TestManyGroupSizesDeliver(t *testing.T) {
	// The paper's k ranges over "four and ten"; group sizes span
	// [k, 2k−1]. Exercise the whole band.
	for n := 2; n <= 12; n++ {
		n := n
		t.Run(fmt.Sprintf("g=%d", n), func(t *testing.T) {
			h := newGroup(t, n, nil)
			payload := []byte{byte(n), 0xee}
			if err := h.members[n-1].Queue(payload); err != nil {
				t.Fatal(err)
			}
			h.runRounds(3)
			for i := 0; i < n-1; i++ {
				if h.received[i][string(payload)] != 1 {
					t.Errorf("member %d missed the payload", i)
				}
			}
		})
	}
}

func TestSlotPacking(t *testing.T) {
	slot, err := packSlot([]byte("hello"), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(slot) != 32 {
		t.Fatalf("slot length = %d", len(slot))
	}
	got, ok := unpackSlot(slot)
	if !ok || string(got) != "hello" {
		t.Errorf("unpack = %q, %v", got, ok)
	}
	slot[5] ^= 1
	if _, ok := unpackSlot(slot); ok {
		t.Error("corrupted slot accepted")
	}
	if _, err := packSlot(make([]byte, 30), 32); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("oversized pack: %v", err)
	}
	// XOR of two valid slots must fail validation (collision detection).
	a, _ := packSlot([]byte("aaaa"), 32)
	b, _ := packSlot([]byte("bbbbbb"), 32)
	crypto.XORBytes(a, b)
	if _, ok := unpackSlot(a); ok {
		t.Error("collided slots accepted")
	}
}

func TestAnnouncePacking(t *testing.T) {
	slot := packAnnounce(1234)
	l, ok := unpackAnnounce(slot)
	if !ok || l != 1234 {
		t.Errorf("unpackAnnounce = %d, %v", l, ok)
	}
	slot[1] ^= 0xff
	if _, ok := unpackAnnounce(slot); ok {
		t.Error("corrupted announce accepted")
	}
	if _, ok := unpackAnnounce([]byte{1, 2, 3}); ok {
		t.Error("short announce accepted")
	}
}

// dropFirst builds a drop filter discarding the first `count` incoming
// messages from `from` whose kind matches.
func dropFirst(from proto.NodeID, kind uint8, count int) func(proto.NodeID, proto.Message) bool {
	return func(src proto.NodeID, msg proto.Message) bool {
		if src != from || count <= 0 {
			return false
		}
		var k uint8
		switch msg.(type) {
		case *ShareMsg:
			k = KindShare
		case *SPartialMsg:
			k = KindSPartial
		case *TPartialMsg:
			k = KindTPartial
		default:
			return false
		}
		if k != kind {
			return false
		}
		count--
		return true
	}
}

// TestRetransmitTimeoutStateMachine is the reliability-layer table: for
// every share position (sender a → receiver b in a group of 4) and every
// exchange kind, a seeded drop of the first copy must either be repaired
// by retransmission (budget ≥ 1: the round completes and delivers
// exactly once everywhere) or fail deterministically (budget 0: the
// round stalls and the dissolve policy fires at every member).
func TestRetransmitTimeoutStateMachine(t *testing.T) {
	const g = 4
	kinds := []struct {
		name string
		kind uint8
	}{{"share", KindShare}, {"s-partial", KindSPartial}, {"t-partial", KindTPartial}}
	for _, budget := range []int{0, 1, 3} {
		for _, kd := range kinds {
			for a := 0; a < g; a++ {
				for b := 0; b < g; b++ {
					if a == b {
						continue
					}
					budget, kd, a, b := budget, kd, a, b
					t.Run(fmt.Sprintf("budget=%d/%s/%d to %d", budget, kd.name, a, b), func(t *testing.T) {
						h := newGroup(t, g, func(i int, cfg *Config) {
							cfg.RetransmitTimeout = 30 * time.Millisecond
							cfg.RetryBudget = budget
							cfg.Timeout = 320 * time.Millisecond
							cfg.Policy = PolicyDissolve
						})
						h.handlers[b].drop = dropFirst(proto.NodeID(a), kd.kind, 1)
						payload := []byte("loss-tolerant-tx")
						if err := h.members[0].Queue(payload); err != nil {
							t.Fatal(err)
						}
						h.runRounds(6)

						if budget == 0 {
							// No repair allowed: the stalled round times out
							// and the policy fires at every member, rather
							// than some members hanging forever.
							for i := 0; i < g; i++ {
								if h.dissolved[i] == "" {
									t.Errorf("member %d did not dissolve with retry budget 0", i)
								}
							}
							return
						}
						for i := 1; i < g; i++ {
							if got := h.received[i][string(payload)]; got != 1 {
								t.Errorf("member %d delivered %d copies, want 1", i, got)
							}
						}
						if h.sendOK[0] != 1 {
							t.Errorf("sender success = %d, want 1", h.sendOK[0])
						}
						if h.members[a].Retransmits() == 0 {
							t.Errorf("dropped %s from %d was never retransmitted", kd.name, a)
						}
						for i := 0; i < g; i++ {
							if h.dissolved[i] != "" {
								t.Errorf("member %d dissolved (%q) despite successful repair", i, h.dissolved[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestNackPullsRetransmission pins the fast path: with a retransmit
// timeout far beyond the round interval, recovery must come from the
// receiver's deferral nack, not the sender's timer.
func TestNackPullsRetransmission(t *testing.T) {
	h := newGroup(t, 4, func(i int, cfg *Config) {
		cfg.RetransmitTimeout = 5 * time.Second // never fires inside the test
		cfg.RetryBudget = 2
	})
	h.handlers[2].drop = dropFirst(1, KindShare, 1)
	payload := []byte("nack-recovered")
	if err := h.members[0].Queue(payload); err != nil {
		t.Fatal(err)
	}
	h.runRounds(6)
	for i := 1; i < 4; i++ {
		if got := h.received[i][string(payload)]; got != 1 {
			t.Errorf("member %d delivered %d copies, want 1", i, got)
		}
	}
	if h.members[2].Nacks() == 0 {
		t.Error("stalled member sent no nacks")
	}
	if h.members[1].Retransmits() != 1 {
		t.Errorf("sender retransmits = %d, want exactly 1 (nack-pulled)", h.members[1].Retransmits())
	}
}

// TestReliabilityPreservesBlame ensures the ack/retransmit layer does
// not break the §V-C machinery: a disruptor is still identified under
// PolicyBlame with reliability on.
func TestReliabilityPreservesBlame(t *testing.T) {
	const disruptor = 2
	h := newGroup(t, 5, func(i int, cfg *Config) {
		cfg.Policy = PolicyBlame
		cfg.FailureThreshold = 3
		cfg.RetransmitTimeout = 30 * time.Millisecond
		cfg.RetryBudget = 2
		if i == disruptor {
			cfg.Disrupt = true
		}
	})
	h.runRounds(12)
	for i := 0; i < 5; i++ {
		if i == disruptor {
			continue
		}
		if h.blames[i][proto.NodeID(disruptor)] == 0 {
			t.Errorf("member %d did not blame the disruptor", i)
		}
		for culprit := range h.blames[i] {
			if culprit != proto.NodeID(disruptor) {
				t.Errorf("member %d wrongly blamed honest member %d", i, culprit)
			}
		}
	}
}

// TestFailoverEvictsCrashedMember is the failover happy path: a member
// that crashes goes silent, accumulates EvictAfter misses, and is
// evicted by every survivor — which then re-key (epoch bump, shrunk
// membership) and deliver traffic again.
func TestFailoverEvictsCrashedMember(t *testing.T) {
	const g, victim = 5, 3
	for _, crashAt := range []time.Duration{
		10 * time.Millisecond,  // before the first round
		105 * time.Millisecond, // mid-exchange of round 1
		250 * time.Millisecond, // between later rounds
	} {
		crashAt := crashAt
		t.Run(crashAt.String(), func(t *testing.T) {
			h := newGroup(t, g, func(i int, cfg *Config) {
				cfg.RetransmitTimeout = 30 * time.Millisecond
				cfg.RetryBudget = 2
				cfg.EvictAfter = 2
				cfg.Timeout = 150 * time.Millisecond
				cfg.MinMembers = 3
				cfg.Policy = PolicyNone
			})
			h.net.At(crashAt, victim, func() { h.net.Crash(victim) })
			h.runRounds(12)

			for i := 0; i < g; i++ {
				if i == victim {
					continue
				}
				m := h.members[i]
				if m.GroupSize() != g-1 {
					t.Errorf("member %d group size %d after eviction, want %d", i, m.GroupSize(), g-1)
				}
				if m.Epoch() != 1 {
					t.Errorf("member %d epoch %d, want 1 (re-key)", i, m.Epoch())
				}
				if m.Stopped() {
					t.Errorf("member %d stopped; failover should keep the group alive", i)
				}
				for _, id := range m.Members() {
					if id == victim {
						t.Errorf("member %d still lists the victim", i)
					}
				}
			}

			// The shrunk group still carries traffic.
			payload := []byte{byte(crashAt / time.Millisecond), 0x5e}
			if err := h.members[0].Queue(payload); err != nil {
				t.Fatal(err)
			}
			h.runRounds(8)
			for i := 1; i < g; i++ {
				if i == victim {
					continue
				}
				if got := h.received[i][string(payload)]; got != 1 {
					t.Errorf("member %d delivered %d copies post-eviction, want 1", i, got)
				}
			}
		})
	}
}

// TestFailoverFloorDissolves pins the floor: when eviction would shrink
// the group below MinMembers, it dissolves instead of running under the
// configured anonymity floor.
func TestFailoverFloorDissolves(t *testing.T) {
	const g, victim = 4, 1
	h := newGroup(t, g, func(i int, cfg *Config) {
		cfg.RetransmitTimeout = 30 * time.Millisecond
		cfg.RetryBudget = 2
		cfg.EvictAfter = 2
		cfg.Timeout = 150 * time.Millisecond
		cfg.MinMembers = g // any eviction goes below the floor
		cfg.Policy = PolicyNone
	})
	h.net.Crash(victim)
	h.runRounds(12)
	for i := 0; i < g; i++ {
		if i == victim {
			continue
		}
		if m := h.members[i]; m.Epoch() != 1 || slices.Contains(m.Members(), victim) {
			t.Errorf("member %d did not evict the crashed member (epoch %d, members %v)", i, m.Epoch(), m.Members())
		}
		if h.dissolved[i] == "" {
			t.Errorf("member %d did not dissolve below the floor", i)
		}
		if !h.members[i].Stopped() {
			t.Errorf("member %d still running below the floor", i)
		}
	}
}

// TestFailoverSparesLossyPeer ensures eviction needs total silence, not
// bad luck: a peer whose messages are dropped but repaired (alive and
// acking) must never be evicted even while rounds are slow.
func TestFailoverSparesLossyPeer(t *testing.T) {
	const g, lossyPeer = 4, 2
	h := newGroup(t, g, func(i int, cfg *Config) {
		cfg.RetransmitTimeout = 30 * time.Millisecond
		cfg.RetryBudget = 3
		cfg.EvictAfter = 2
		cfg.Timeout = 150 * time.Millisecond
		cfg.MinMembers = 3
		cfg.Policy = PolicyNone
	})
	// Drop the lossy peer's first share toward everyone, every round for
	// a while: rounds limp but the peer is audibly alive (acks, nacked
	// retransmissions), so no one may charge it a miss.
	for i := 0; i < g; i++ {
		if i != lossyPeer {
			h.handlers[i].drop = dropFirst(lossyPeer, KindShare, 4)
		}
	}
	h.runRounds(20)
	for i := 0; i < g; i++ {
		if m := h.members[i]; m.GroupSize() != g || m.Epoch() != 0 {
			t.Errorf("member %d evicted (members %v, epoch %d); lossy-but-alive peers must be spared", i, m.Members(), m.Epoch())
		}
		if h.dissolved[i] != "" {
			t.Errorf("member %d dissolved: %q", i, h.dissolved[i])
		}
	}
	if h.members[0].RoundsCompleted == 0 {
		t.Error("no rounds completed under repairable loss")
	}
}
