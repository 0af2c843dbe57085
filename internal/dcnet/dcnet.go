// Package dcnet implements Phase 1 of the paper: the dining-cryptographers
// network of Fig. 4. A group of g ∈ [k, 2k−1] members runs synchronized
// rounds of three pairwise XOR exchanges; any single member can transmit
// one anonymous message per round, collisions are detected by CRC and
// resolved with randomized backoff, and the group recovers
//
//	T ⊕ S = M ⊕ m_j
//
// at member j, where M is the XOR of all contributions — so with a unique
// sender every other member recovers the message and the sender recovers 0
// (its success signal).
//
// Two round modes exist. ModeFixed sends a full-size slot every round.
// ModeAnnounce implements the §V-A optimization: idle rounds shrink to an
// 8-byte announcement slot ("an integer representing the length of the
// next message … protected by CRC bits"); a valid announcement reserves
// the next round as a data round of exactly the announced size.
//
// The stronger-attacker extension of §V-C is available as Policy settings:
// PolicyBlame runs a von-Ahn-style commitment/reveal protocol that
// identifies a disruptor after repeated collisions; PolicyDissolve simply
// reports the group as burned so the membership layer can re-form it.
//
// A member reads each received input only while its round runs: peers'
// shares at steps 4–5 (S = ⊕ sᵢ, then S ⊕ sᵢ back to each), and again
// in a blame phase's reveal check; S-partials at steps 7–8; T-partials
// only by presence and length, because step 9 recovers T ⊕ S from the
// member's own accumulators, so no member reads a T-partial's content.
// Every round buffer comes from a RoundPool, whose owner decides how long
// what it lends lives (see RoundPool).
package dcnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/crypto"
	"repro/internal/proto"
	"repro/internal/relchan"
)

// Mode selects the round layout.
type Mode int

// Round modes.
const (
	// ModeFixed sends a fixed-size slot every round.
	ModeFixed Mode = iota + 1
	// ModeAnnounce alternates 8-byte announcement rounds with exact-size
	// data rounds (§V-A optimization).
	ModeAnnounce
)

// Policy selects the reaction to repeated round failures (§V-C).
type Policy int

// Failure policies.
const (
	// PolicyNone ignores repeated failures (pure honest-but-curious).
	PolicyNone Policy = iota + 1
	// PolicyDissolve reports the group as burned after the threshold.
	PolicyDissolve
	// PolicyBlame runs the commitment/reveal protocol to identify the
	// disruptor, then reports it. Adds one CommitMsg per peer per round.
	PolicyBlame
)

// Config parametrizes one group member.
type Config struct {
	// Self is this member's node ID; it must appear in Members.
	Self proto.NodeID
	// Members is the full group, in any order (sorted internally).
	Members []proto.NodeID
	// Mode selects fixed or announce rounds (default ModeAnnounce).
	Mode Mode
	// SlotSize is the fixed-mode slot size in bytes, including the
	// 8-byte framing overhead (default 256).
	SlotSize int
	// Interval is the nominal spacing of round starts (default 2s),
	// "chosen suitably for the expected activity in the network" (§V-A).
	Interval time.Duration
	// MaxRounds, when positive, stops the member from starting any round
	// beyond this number. Because every member counts rounds identically,
	// the group's total message and byte cost becomes a deterministic
	// function of MaxRounds — the property the differential parity
	// harness relies on to compare a wall-clock run against a virtual-time
	// simulation without "however many idle rounds happened to fit"
	// noise. Zero (the default) keeps rounds unbounded.
	MaxRounds int
	// Timeout bounds a stalled round. Without failover (EvictAfter = 0)
	// it aborts the group (crashed member); with failover it abandons
	// the round and charges silent peers a miss. Zero disables — except
	// under failover, where it defaults to 1.5× Interval (off the round
	// grid, so abandon and round-start events never tie).
	Timeout time.Duration
	// RetransmitTimeout enables the reliability layer: every exchange
	// message is tracked until acked and retransmitted after this long,
	// up to RetryBudget times. It must exceed the worst-case network
	// round trip (data + ack), or in-flight messages trigger spurious
	// retransmissions. Zero disables (the pre-reliability protocol,
	// byte-for-byte).
	RetransmitTimeout time.Duration
	// RetryBudget bounds retransmissions per message (0: track acks but
	// never retransmit — the round then fails deterministically on any
	// loss, which the policy machinery handles).
	RetryBudget int
	// EvictAfter enables failover: a peer completely silent for this
	// many consecutive abandoned rounds is evicted and the group
	// re-keys around the survivors. Zero disables (a stalled round
	// dissolves the group via Timeout, as before).
	EvictAfter int
	// MinMembers is the failover floor (default 2): an eviction that
	// would shrink the group below it dissolves the group instead —
	// the caller's anonymity budget, typically the paper's k.
	MinMembers int
	// Policy is the failure reaction (default PolicyDissolve).
	Policy Policy
	// FailureThreshold is the number of consecutive failed rounds that
	// triggers the policy (default 4).
	FailureThreshold int
	// Channels optionally provides pairwise AEAD channels keyed by peer;
	// when set, shares are encrypted in transit.
	Channels map[proto.NodeID]*crypto.SecureChannel
	// Disrupt makes this member contribute random garbage every round —
	// an attacker for experiments (E11); it still follows the message
	// flow (honest-but-curious form, malicious content).
	Disrupt bool

	// OnDeliver receives each recovered anonymous message. Duplicates
	// are possible across retries; callers dedup by content.
	OnDeliver func(ctx proto.Context, round uint32, payload []byte)
	// OnSendResult reports whether a queued payload went through.
	OnSendResult func(ctx proto.Context, payload []byte, ok bool)
	// OnBlame reports an identified disruptor (PolicyBlame).
	OnBlame func(ctx proto.Context, culprit proto.NodeID)
	// OnDissolve reports that the group burned (policy or timeout).
	OnDissolve func(ctx proto.Context, reason string)
}

// maxPayload bounds a single anonymous message: one slot's payload in
// fixed mode, 64 KiB in announce mode.
func (c *Config) maxPayload() int {
	if c.Mode == ModeFixed {
		return c.SlotSize - SlotOverhead
	}
	return 64 << 10
}

// ApplyDefaults fills every unset field with its default and reports a
// configuration no member can run. NewMember applies it to its copy.
func (c *Config) ApplyDefaults() error {
	if c.Mode == 0 {
		c.Mode = ModeAnnounce
	}
	if c.SlotSize == 0 {
		c.SlotSize = 256
	}
	if c.SlotSize < SlotOverhead+1 {
		return fmt.Errorf("dcnet: SlotSize %d below minimum %d", c.SlotSize, SlotOverhead+1)
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Policy == 0 {
		c.Policy = PolicyDissolve
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 4
	}
	if c.RetransmitTimeout < 0 || c.RetryBudget < 0 || c.EvictAfter < 0 {
		return fmt.Errorf("dcnet: negative reliability parameter")
	}
	if c.EvictAfter > 0 && c.Timeout <= 0 {
		c.Timeout = c.Interval + c.Interval/2
	}
	if c.MinMembers < 2 {
		c.MinMembers = 2
	}
	return nil
}

// Queue/lifecycle errors.
var (
	// ErrStopped indicates the member dissolved or was stopped.
	ErrStopped = errors.New("dcnet: member stopped")
	// ErrNotMember indicates Self was missing from Members.
	ErrNotMember = errors.New("dcnet: Self not in Members")
	// ErrGroupTooSmall indicates fewer than two members.
	ErrGroupTooSmall = errors.New("dcnet: group needs at least 2 members")
)

// roundKind is the layout of one round.
type roundKind struct {
	announce bool
	dataLen  int // valid when !announce in ModeAnnounce
}

// Presence bits of one peer's inputs to one round (peerInputs.has).
const (
	inShare uint8 = 1 << iota
	inSPart
	inTPart
	inCommit
	inReveal
	// inHeard marks any per-round activity (data or ack) from the peer —
	// the failover layer's liveness signal.
	inHeard
)

// peerInputs is what one peer sent this member for one round. Presence
// is kept apart from the data, so a zero-length input still counts.
type peerInputs struct {
	share, sPart, tPart []byte
	commits             [][32]byte
	reveal              *RevealMsg
	has                 uint8
}

// roundState tracks one round's exchanges.
type roundState struct {
	number  uint32
	kind    roundKind
	started bool
	slot    int // slot size in bytes

	sent      bool   // I contributed a non-zero slot
	myContrib []byte // my slot contribution (zeros if idle)
	myShares  [][]byte
	mySalts   [][]byte
	// in holds each peer's inputs, indexed like Member.peers: an eviction
	// deletes the evicted peer's entry from every round, so the indexes
	// of the peers after it shift with Member.peers.
	in []peerInputs

	s, t       []byte
	sSent      bool
	tSent      bool
	complete   bool
	failed     bool
	timeoutID  proto.TimerID
	hasTimeout bool
}

// Timer payloads.
type roundTimer struct{ round uint32 }
type timeoutTimer struct{ round uint32 }

// Member is one node's participation in one DC-net group. It is driven
// by a proto.Context via Start/HandleMessage/HandleTimer and is not safe
// for concurrent use (runtimes serialize handler calls).
type Member struct {
	cfg     Config
	members []proto.NodeID // sorted, includes self
	peers   []proto.NodeID // sorted, excludes self

	rounds    map[uint32]*roundState
	nextKind  roundKind
	reserved  bool // I won the announcement; next data round is mine
	current   uint32
	deferred  uint32 // round whose timer fired before current completed
	startedAt time.Duration
	running   bool
	stopped   bool

	queue   [][]byte
	retries int
	backoff int

	consecFailures int
	blameRound     uint32 // nonzero while a blame phase is active
	blamed         map[proto.NodeID]bool

	// Reliability layer: the reusable ack/retransmit channel, bound to
	// this package's (round, kind) identity and ack encodings.
	rel relchan.Channel
	// Failover layer: consecutive totally-silent abandoned rounds per
	// peer, and the membership epoch (bumped on every eviction).
	missed map[proto.NodeID]int
	epoch  int

	// pool lends every round buffer. What travels inside messages —
	// shares and partials — lives as long as the pool's lifetime says
	// (receivers hold it by reference until their own round gc); gc
	// gives back only what this member alone referenced: round states
	// and the slot-sized scratch (contribution, S, T, recovered value).
	pool *RoundPool

	// Stats, exposed for experiments. Retransmits/Nacks live on the
	// channel; see the accessor methods in reliable.go.
	RoundsCompleted int
	Collisions      int
	Delivered       int
	BlamePhases     int
	RoundsAbandoned int
	Evictions       int
}

// NewMember validates the configuration and returns a Member with a
// private RoundPool.
func NewMember(cfg Config) (*Member, error) {
	return new(RoundPool).NewMember(cfg)
}

// NewMember validates the configuration and returns a Member whose round
// buffers come from p. A trial pool lends the Member itself too: it is
// valid until p's Reset, after which p builds it anew for another caller
// (see RoundPool).
func (p *RoundPool) NewMember(cfg Config) (*Member, error) {
	if err := cfg.ApplyDefaults(); err != nil {
		return nil, err
	}
	if len(cfg.Members) < 2 {
		return nil, ErrGroupTooSmall
	}
	if !slices.Contains(cfg.Members, cfg.Self) {
		return nil, ErrNotMember
	}
	m := p.member()
	// A kept member's lists, maps and queue are reused, emptied; a new
	// member's are nil and made here.
	members := append(m.members[:0], cfg.Members...)
	slices.Sort(members)
	members = slices.Compact(members)
	peers := m.peers[:0]
	if cap(peers) < len(members)-1 {
		peers = make([]proto.NodeID, 0, len(members)-1)
	}
	for _, id := range members {
		if id != cfg.Self {
			peers = append(peers, id)
		}
	}
	rounds, blamed, missed := m.rounds, m.blamed, m.missed
	if rounds == nil {
		rounds = make(map[uint32]*roundState)
		blamed = make(map[proto.NodeID]bool)
		missed = make(map[proto.NodeID]int)
		// A map allocates its first slots on first insert; make that now,
		// so that a member's rounds take nothing from the heap once the
		// pool is warm. Round numbers start at 1.
		rounds[0] = nil
		delete(rounds, 0)
	} else {
		clear(rounds)
		clear(blamed)
		clear(missed)
	}
	queue := m.queue[:cap(m.queue)]
	clear(queue)
	*m = Member{
		cfg:      cfg,
		members:  members,
		peers:    peers,
		rounds:   rounds,
		nextKind: initialKind(cfg.Mode),
		blamed:   blamed,
		missed:   missed,
		queue:    queue[:0],
		pool:     p,
	}
	m.rel.Init(relConfig(&cfg))
	return m, nil
}

func initialKind(mode Mode) roundKind {
	if mode == ModeAnnounce {
		return roundKind{announce: true}
	}
	return roundKind{}
}

// GroupSize returns the number of members including self.
func (m *Member) GroupSize() int { return len(m.members) }

// Members returns a copy of the sorted group membership.
func (m *Member) Members() []proto.NodeID { return slices.Clone(m.members) }

// MembersView returns the sorted group membership without copying it:
// the member's own list, which the caller must not change. An eviction
// rewrites it in place, so read it before the member handles its next
// message or timer.
func (m *Member) MembersView() []proto.NodeID { return m.members }

// Pending returns the number of queued outbound payloads.
func (m *Member) Pending() int { return len(m.queue) }

// Epoch returns the membership epoch: 0 at formation, incremented by
// every failover eviction (the "re-key" counter).
func (m *Member) Epoch() int { return m.epoch }

// DrainQueue removes and returns the queued outbound payloads — the
// hook a dissolving group's owner uses to re-route undelivered traffic
// (e.g. the composed protocol's direct Phase-2 injection fallback).
func (m *Member) DrainQueue() [][]byte {
	q := m.queue
	m.queue = nil
	return q
}

// Stopped reports whether the member has dissolved or been stopped.
func (m *Member) Stopped() bool { return m.stopped }

// Start begins round scheduling. Call once from the handler's Init.
func (m *Member) Start(ctx proto.Context) {
	if m.running || m.stopped {
		return
	}
	m.running = true
	m.startedAt = ctx.Now()
	m.scheduleRound(ctx, 1)
}

// Stop permanently halts participation.
func (m *Member) Stop() {
	m.stopped = true
	m.running = false
	m.rel.Stop()
}

// Queue submits a payload for anonymous transmission. It will be sent in
// the next free slot, possibly after collisions and backoff.
func (m *Member) Queue(payload []byte) error {
	if m.stopped {
		return ErrStopped
	}
	if len(payload) == 0 {
		return errors.New("dcnet: empty payload")
	}
	if limit := m.cfg.maxPayload(); len(payload) > limit {
		return fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(payload), limit)
	}
	m.queue = append(m.queue, slices.Clone(payload))
	return nil
}

func (m *Member) scheduleRound(ctx proto.Context, round uint32) {
	nominal := m.startedAt + time.Duration(round)*m.cfg.Interval
	delay := nominal - ctx.Now()
	ctx.SetTimer(delay, roundTimer{round: round})
}

// HandleTimer processes this package's timers; it reports whether the
// payload belonged to it.
func (m *Member) HandleTimer(ctx proto.Context, payload any) bool {
	switch t := payload.(type) {
	case roundTimer:
		if m.stopped {
			return true
		}
		if t.round > 1 {
			if prev := m.rounds[t.round-1]; prev != nil && !prev.complete {
				// Previous round still in flight: start as soon as it
				// finishes to preserve announce/data alternation — and
				// nack the peers it is still waiting on, so a dropped
				// message is re-pulled without waiting out the sender's
				// retransmit timeout.
				m.deferred = t.round
				m.nackMissing(ctx, prev)
				return true
			}
		}
		m.startRound(ctx, t.round)
		return true
	case timeoutTimer:
		if m.stopped {
			return true
		}
		rs := m.rounds[t.round]
		if rs != nil && !rs.complete {
			if m.failover() {
				m.abandonRound(ctx, rs)
			} else {
				m.dissolve(ctx, fmt.Sprintf("round %d timed out", t.round))
			}
		}
		return true
	default:
		return m.rel.HandleTimer(ctx, payload)
	}
}

// HandleMessage processes DC-net messages; it reports whether the message
// was consumed.
func (m *Member) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) bool {
	switch mm := msg.(type) {
	case *ShareMsg:
		m.onShare(ctx, from, mm)
	case *SPartialMsg:
		m.onSPartial(ctx, from, mm)
	case *TPartialMsg:
		m.onTPartial(ctx, from, mm)
	case *CommitMsg:
		m.onCommit(ctx, from, mm)
	case *RevealMsg:
		m.onReveal(ctx, from, mm)
	case *AckMsg:
		m.onAck(ctx, from, mm)
	case *NackMsg:
		m.onNack(ctx, from, mm)
	default:
		return false
	}
	return true
}

// peerIndex returns id's index in m.peers (sorted), or -1 for a non-peer.
func (m *Member) peerIndex(id proto.NodeID) int {
	if i, ok := slices.BinarySearch(m.peers, id); ok {
		return i
	}
	return -1
}

// round returns round n's state, taking a new one from the pool if
// absent.
func (m *Member) round(n uint32) *roundState {
	rs := m.rounds[n]
	if rs != nil {
		return rs
	}
	rs = m.pool.state(len(m.peers))
	rs.number = n
	m.rounds[n] = rs
	return rs
}

// horizon is how many rounds state outlives its completion (gc), and
// how far past the highest round started a peer's input may name.
func (m *Member) horizon() uint32 { return uint32(m.cfg.FailureThreshold + 2) }

// inputRound returns the state of the round a peer's input names, or nil
// when that round lies more than the horizon past the highest round this
// member started. Honest peers run at most a round or two ahead; gc
// never frees a round at or above its cutoff, so state made for a forged
// far-future round number would be pinned for good.
func (m *Member) inputRound(n uint32) *roundState {
	if n > m.current+m.horizon() {
		return nil
	}
	return m.round(n)
}

// slotSizeFor resolves the slot size of the upcoming round.
func (m *Member) slotSizeFor(kind roundKind) int {
	if m.cfg.Mode == ModeFixed {
		return m.cfg.SlotSize
	}
	if kind.announce {
		return AnnounceSlotSize
	}
	return kind.dataLen
}

// wantsAnnounce reports whether this member should bid in an announce
// round (has traffic and is not backing off).
func (m *Member) wantsAnnounce() bool {
	return len(m.queue) > 0 && m.backoff == 0
}

func (m *Member) startRound(ctx proto.Context, n uint32) {
	if m.cfg.MaxRounds > 0 && n > uint32(m.cfg.MaxRounds) {
		return
	}
	rs := m.round(n)
	if rs.started {
		return
	}
	rs.started = true
	rs.kind = m.nextKind
	rs.slot = m.slotSizeFor(rs.kind)
	m.current = n

	// Decide contribution.
	contrib := m.pool.scratch(rs.slot)
	switch {
	case m.cfg.Disrupt:
		// Attacker: random garbage every round (liveness attack, §V-C).
		fillRandom(ctx, contrib)
		rs.sent = true
	case m.cfg.Mode == ModeFixed:
		if len(m.queue) > 0 {
			if m.backoff > 0 {
				m.backoff--
			} else if packSlotInto(contrib, m.queue[0]) == nil {
				rs.sent = true
			}
		}
	case rs.kind.announce:
		if m.wantsAnnounce() {
			dataLen := len(m.queue[0]) + crypto.CRCSize
			copy(contrib, packAnnounce(uint32(dataLen)))
			rs.sent = true
		} else if len(m.queue) > 0 && m.backoff > 0 {
			m.backoff--
		}
	default: // data round
		if m.reserved && len(m.queue) > 0 {
			data := crypto.AppendCRC(m.queue[0])
			if len(data) == rs.slot {
				copy(contrib, data)
				rs.sent = true
			}
		}
	}
	rs.myContrib = contrib

	// Split the contribution into len(peers) shares XOR-ing to it, cut
	// from one slab the pool lends. Every share but the last is filled
	// with randomness; the last accumulates the others in place, so no
	// separate scratch accumulator is needed.
	rs.myShares = m.pool.slices.Take(len(m.peers))
	slab := m.pool.bytes.Take(len(m.peers) * rs.slot)
	last := slab[(len(m.peers)-1)*rs.slot:]
	clear(last)
	for i := 0; i < len(m.peers)-1; i++ {
		sh := slab[i*rs.slot : (i+1)*rs.slot]
		fillRandom(ctx, sh)
		rs.myShares[i] = sh
		crypto.XORBytes(last, sh)
	}
	crypto.XORBytes(last, contrib)
	rs.myShares[len(m.peers)-1] = last

	// Blame mode: commit to the shares before sending them.
	if m.cfg.Policy == PolicyBlame {
		rs.mySalts = make([][]byte, len(m.peers))
		saltSlab := make([]byte, len(m.peers)*crypto.SaltSize)
		digests := make([][32]byte, len(m.peers))
		for i := range m.peers {
			salt := saltSlab[i*crypto.SaltSize : (i+1)*crypto.SaltSize]
			fillRandom(ctx, salt)
			rs.mySalts[i] = salt
			digests[i] = crypto.Commit(rs.myShares[i], salt)
		}
		commit := &CommitMsg{Round: n, Digests: digests}
		for _, p := range m.peers {
			m.sendReliable(ctx, p, commit, n, KindCommit)
		}
	}

	// Step 2: send share rᵢ to gᵢ.
	msgs := m.pool.shares.Take(len(m.peers))
	for i, p := range m.peers {
		data := rs.myShares[i]
		if ch := m.cfg.Channels[p]; ch != nil {
			sealed, err := ch.Seal(data, shareAAD(n))
			if err != nil {
				m.dissolve(ctx, fmt.Sprintf("sealing share: %v", err))
				return
			}
			data = sealed
		}
		msgs[i] = ShareMsg{Round: n, Data: data}
		m.sendReliable(ctx, p, &msgs[i], n, KindShare)
	}

	if m.cfg.Timeout > 0 {
		rs.timeoutID = ctx.SetTimer(m.cfg.Timeout, timeoutTimer{round: n})
		rs.hasTimeout = true
	}
	m.scheduleRound(ctx, n+1)
	m.tryAdvance(ctx, rs)
}

func shareAAD(round uint32) []byte {
	return []byte{byte(round), byte(round >> 8), byte(round >> 16), byte(round >> 24), 0x01}
}

// fillRandom fills b from the node's deterministic random source, eight
// bytes per PCG step — share splitting draws a full slot of randomness
// per peer per round, so the word-wise fill is ~8× cheaper than the
// byte-at-a-time loop it replaced. (The change redefines the consumed
// random stream; the recorded experiment tables were refreshed with it.)
// Real deployments seed the runtime with crypto/rand-derived entropy.
func fillRandom(ctx proto.Context, b []byte) {
	rng := ctx.Rand()
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	if i < len(b) {
		v := rng.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

func (m *Member) onShare(ctx proto.Context, from proto.NodeID, msg *ShareMsg) {
	i := m.peerIndex(from)
	if m.stopped || i < 0 {
		return
	}
	m.ackIncoming(ctx, i, from, msg.Round, KindShare)
	rs := m.inputRound(msg.Round)
	if rs == nil || rs.in[i].has&inShare != 0 {
		return
	}
	data := msg.Data
	if ch := m.cfg.Channels[from]; ch != nil {
		pt, err := ch.Open(data, shareAAD(msg.Round))
		if err != nil {
			m.dissolve(ctx, fmt.Sprintf("share from %d failed auth: %v", from, err))
			return
		}
		data = pt
	}
	in := &rs.in[i]
	in.share, in.has = data, in.has|inShare
	m.tryAdvance(ctx, rs)
}

func (m *Member) onSPartial(ctx proto.Context, from proto.NodeID, msg *SPartialMsg) {
	i := m.peerIndex(from)
	if m.stopped || i < 0 {
		return
	}
	m.ackIncoming(ctx, i, from, msg.Round, KindSPartial)
	rs := m.inputRound(msg.Round)
	if rs == nil || rs.in[i].has&inSPart != 0 {
		return
	}
	in := &rs.in[i]
	in.sPart, in.has = msg.Data, in.has|inSPart
	m.tryAdvance(ctx, rs)
}

func (m *Member) onTPartial(ctx proto.Context, from proto.NodeID, msg *TPartialMsg) {
	i := m.peerIndex(from)
	if m.stopped || i < 0 {
		return
	}
	m.ackIncoming(ctx, i, from, msg.Round, KindTPartial)
	rs := m.inputRound(msg.Round)
	if rs == nil || rs.in[i].has&inTPart != 0 {
		return
	}
	in := &rs.in[i]
	in.tPart, in.has = msg.Data, in.has|inTPart
	m.tryAdvance(ctx, rs)
}

// tryAdvance drives the round state machine as inputs arrive. Steps 3–9
// of Fig. 4.
func (m *Member) tryAdvance(ctx proto.Context, rs *roundState) {
	if !rs.started || rs.complete || m.stopped {
		return
	}
	n := len(m.peers)
	// Step 4: S = ⊕ sᵢ once all shares are in; step 5: send S ⊕ sᵢ.
	// The per-peer partials and their messages come from one slab each;
	// the accumulator is scratch recycled at round gc.
	if !rs.sSent && rs.allIn(inShare) {
		rs.s = m.pool.scratch(rs.slot)
		for i := range rs.in {
			crypto.XORBytes(rs.s, rs.in[i].share)
		}
		outs := m.pool.bytes.Take(n * rs.slot)
		msgs := m.pool.sParts.Take(n)
		for i, p := range m.peers {
			out := outs[i*rs.slot : (i+1)*rs.slot]
			copy(out, rs.s)
			crypto.XORBytes(out, rs.in[i].share)
			msgs[i] = SPartialMsg{Round: rs.number, Data: out}
			m.sendReliable(ctx, p, &msgs[i], rs.number, KindSPartial)
		}
		rs.sSent = true
	}
	// Step 7: T = ⊕ tᵢ; step 8: send T ⊕ tᵢ.
	if rs.sSent && !rs.tSent && rs.allIn(inSPart) {
		rs.t = m.pool.scratch(rs.slot)
		for i := range rs.in {
			crypto.XORBytes(rs.t, rs.in[i].sPart)
		}
		outs := m.pool.bytes.Take(n * rs.slot)
		msgs := m.pool.tParts.Take(n)
		for i, p := range m.peers {
			out := outs[i*rs.slot : (i+1)*rs.slot]
			copy(out, rs.t)
			crypto.XORBytes(out, rs.in[i].sPart)
			msgs[i] = TPartialMsg{Round: rs.number, Data: out}
			m.sendReliable(ctx, p, &msgs[i], rs.number, KindTPartial)
		}
		rs.tSent = true
	}
	// Step 9: recover m = T ⊕ S once the final exchange closes.
	if rs.tSent && !rs.complete && rs.allIn(inTPart) {
		rs.complete = true
		if rs.hasTimeout {
			ctx.CancelTimer(rs.timeoutID)
		}
		recovered := m.pool.scratch(rs.slot)
		copy(recovered, rs.t)
		crypto.XORBytes(recovered, rs.s)
		m.finishRound(ctx, rs, recovered)
		m.pool.release(recovered)
	}
}

// allIn reports whether every peer's input of one exchange kind (inShare,
// inSPart or inTPart) arrived, each exactly one slot long.
func (rs *roundState) allIn(kind uint8) bool {
	for i := range rs.in {
		in := &rs.in[i]
		b := in.share
		switch kind {
		case inSPart:
			b = in.sPart
		case inTPart:
			b = in.tPart
		}
		if in.has&kind == 0 || len(b) != rs.slot {
			return false
		}
	}
	return true
}

// count returns how many peers' input of the given kind arrived.
func (rs *roundState) count(kind uint8) int {
	c := 0
	for i := range rs.in {
		if rs.in[i].has&kind != 0 {
			c++
		}
	}
	return c
}

// finishRound interprets the recovered value, updates collision and
// policy state, and rolls the round sequence forward.
func (m *Member) finishRound(ctx proto.Context, rs *roundState, recovered []byte) {
	m.RoundsCompleted++
	if m.failover() {
		// A round only completes when every peer's inputs arrived:
		// everyone is demonstrably alive, so silence streaks reset.
		clear(m.missed)
	}

	failed := false
	nextKind := initialKind(m.cfg.Mode)
	wasReserved := m.reserved
	m.reserved = false

	switch {
	case m.cfg.Mode == ModeFixed:
		failed = m.finishFixed(ctx, rs, recovered)
	case rs.kind.announce:
		failed, nextKind = m.finishAnnounce(ctx, rs, recovered)
	default:
		failed = m.finishData(ctx, rs, recovered, wasReserved)
	}
	if m.cfg.Mode == ModeAnnounce {
		m.nextKind = nextKind
	}

	if failed {
		rs.failed = true
		m.consecFailures++
		m.Collisions++
	} else {
		m.consecFailures = 0
	}

	if m.consecFailures >= m.cfg.FailureThreshold {
		m.consecFailures = 0
		switch m.cfg.Policy {
		case PolicyDissolve:
			m.dissolve(ctx, fmt.Sprintf("%d consecutive failed rounds", m.cfg.FailureThreshold))
			return
		case PolicyBlame:
			m.startBlame(ctx, rs.number)
		}
	}

	m.gc(rs.number)
	if m.deferred == rs.number+1 {
		next := m.deferred
		m.deferred = 0
		m.startRound(ctx, next)
	}
}

// finishFixed handles a fixed-mode round outcome; reports failure.
func (m *Member) finishFixed(ctx proto.Context, rs *roundState, recovered []byte) bool {
	if rs.sent && !m.cfg.Disrupt {
		if isZeroSlot(recovered) {
			m.sendSucceeded(ctx)
			return false
		}
		// Collision: if exactly one other member sent, their message is
		// recoverable here (M ⊕ m_j); deliver it, then back off and retry.
		if payload, ok := unpackSlot(recovered); ok {
			m.deliver(ctx, rs.number, payload)
		}
		m.sendFailed(ctx)
		return true
	}
	if isZeroSlot(recovered) {
		return false // idle round
	}
	if payload, ok := unpackSlot(recovered); ok {
		m.deliver(ctx, rs.number, payload)
		return false
	}
	return true // collision garbage
}

// finishAnnounce handles an announcement round; returns (failed, next kind).
func (m *Member) finishAnnounce(ctx proto.Context, rs *roundState, recovered []byte) (bool, roundKind) {
	if rs.sent && !m.cfg.Disrupt {
		if isZeroSlot(recovered) {
			// My announcement went through alone: the next round is my
			// data round.
			dataLen := len(m.queue[0]) + crypto.CRCSize
			m.reserved = true
			return false, roundKind{dataLen: dataLen}
		}
		m.sendFailed(ctx)
		return true, roundKind{announce: true}
	}
	if isZeroSlot(recovered) {
		return false, roundKind{announce: true}
	}
	if l, ok := unpackAnnounce(recovered); ok && l > 0 && int(l) <= m.cfg.maxPayload()+crypto.CRCSize {
		return false, roundKind{dataLen: int(l)}
	}
	return true, roundKind{announce: true}
}

// finishData handles a data round; reports failure.
func (m *Member) finishData(ctx proto.Context, rs *roundState, recovered []byte, mine bool) bool {
	if mine && rs.sent && !m.cfg.Disrupt {
		if isZeroSlot(recovered) {
			m.sendSucceeded(ctx)
			return false
		}
		m.sendFailed(ctx)
		return true
	}
	if isZeroSlot(recovered) {
		// Reserved sender went silent; not a collision, just wasted.
		return false
	}
	if payload, ok := crypto.CheckCRC(recovered); ok {
		m.deliver(ctx, rs.number, payload)
		return false
	}
	return true
}

func (m *Member) deliver(ctx proto.Context, round uint32, payload []byte) {
	m.Delivered++
	if m.cfg.OnDeliver != nil {
		m.cfg.OnDeliver(ctx, round, slices.Clone(payload))
	}
}

func (m *Member) sendSucceeded(ctx proto.Context) {
	payload := m.queue[0]
	m.queue[0] = nil // a kept member's queue must not pin sent payloads
	m.queue = m.queue[1:]
	m.retries = 0
	m.backoff = 0
	if m.cfg.OnSendResult != nil {
		m.cfg.OnSendResult(ctx, payload, true)
	}
}

// maxBackoffExp caps the collision backoff window at 2^6 rounds.
const maxBackoffExp = 6

func (m *Member) sendFailed(ctx proto.Context) {
	m.retries++
	exp := min(m.retries, maxBackoffExp)
	// Uniform backoff over [0, 2^exp) eligible rounds.
	m.backoff = ctx.Rand().IntN(1 << exp)
}

func (m *Member) dissolve(ctx proto.Context, reason string) {
	if m.stopped {
		return
	}
	m.Stop()
	if m.cfg.OnDissolve != nil {
		m.cfg.OnDissolve(ctx, reason)
	}
}

// gc drops round state old enough to be outside any blame window.
func (m *Member) gc(completed uint32) {
	horizon := m.horizon()
	if completed <= horizon {
		return
	}
	cutoff := completed - horizon
	for n, rs := range m.rounds {
		if n >= cutoff || (m.blameRound != 0 && n == m.blameRound) {
			continue
		}
		if !rs.complete && rs.started {
			continue
		}
		// A complete round, or input-only state for a round this member
		// never ran — a late retransmission recreated it after an
		// earlier gc, or the round number was skipped across an eviction
		// epoch. The state, its input row and its scratch — what only
		// this member ever referenced — go back to the pool; the shares
		// and partials it sent live on in peers' round states.
		delete(m.rounds, n)
		m.pool.recycle(rs)
	}
}
