// Package sim implements the deterministic discrete-event runtime the
// experiments run on: an event engine (virtual clock + monotone radix
// queue with deliveries stored inline) and a Network that hosts one
// proto.Handler per topology node, delivers messages with a configurable
// latency model, counts messages and bytes per type, and supports failure
// injection (drops, crashed nodes) and observation taps for the adversary
// framework.
//
// Determinism contract: a Network built from the same topology, seed and
// options replays the exact same event sequence. All randomness flows from
// the seed; events at equal virtual times fire in a deterministic order
// that is additionally *shard-invariant* (see below).
//
// Event ordering. Every event is keyed by (at, src, seq): the fire time,
// the scheduling context (the node whose handler scheduled it, or ctlSrc
// for engine-level control events), and a per-context counter. Within one
// context the counter rises with schedule time, so each context's events
// fire in the order it scheduled them (the FIFO the protocols rely on);
// same-instant ties between contexts break by node ID, with control
// events (crash/restore injection) first. The key is a pure function of
// who scheduled what — never of execution interleaving or of how events
// are distributed over queues — which is what lets the sharded runtime
// (shard.go) split the node set across K independent engines and still
// pop every node's events in exactly the single-queue order.
//
// Event queue (DESIGN §2). Every schedule path computes its fire time as
// now plus a non-negative delay — Schedule and timers clamp negative
// delays, a send adds a link delay and the per-link FIFO clamp only moves
// arrivals later, a cross-shard arrival lies beyond the window its
// destination just executed — so the queue is monotone: nothing is pushed
// earlier than the last pop. The queue exploits that as a radix heap over
// ticks of 2^tickBits ns. An entry whose tick differs from the one being
// executed (lastTick) goes to bucket bits.Len64(tick ^ lastTick); when the
// current tick is exhausted the lowest non-empty bucket is redistributed
// once: entries of its earliest tick become the run — one contiguous
// slice sorted once by (at, tag) and consumed by index — and the rest
// drop into strictly lower buckets. Entries pushed into the tick being
// executed (or, should a caller ever break monotonicity, below it) go to
// a small 4-ary heap that pop merges with the run. Bucket geometry thus
// only decides *when* an entry is sorted, never how: pops follow the
// exact total order (at, src, seq) whatever is pushed, and monotonicity
// is a performance assumption, not a correctness one.
//
// The engine is allocation-free in steady state: chunks, the run buffer
// and the in-tick heap are reused, a message delivery — the hot path — is
// carried entirely inside its queue entry, and the two cancellable event
// kinds (callbacks and node timers) keep their payload in a slot arena
// recycled through a free list. Timer handles are generation-counted so
// cancelling after the slot has been recycled is a safe no-op.
package sim

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/proto"
)

// eventKind discriminates the payload of an arena slot.
type eventKind uint8

const (
	// evFree marks a recycled slot sitting on the free list.
	evFree eventKind = iota
	// evFunc is a generic callback (Engine.Schedule).
	evFunc
	// evTimer fires a node timer (Context.SetTimer).
	evTimer
)

// ctlSrc is the scheduling-context ID of engine-level control events
// (Engine.Schedule: churn injection, driver callbacks). It sorts before
// every node ID, so a control event fires ahead of same-instant node
// events — crash/restore at time T precedes deliveries arriving at T,
// exactly as the Start-time schedule order used to guarantee.
const ctlSrc proto.NodeID = -1

// event is one arena slot: the payload and cancellation/generation state
// of an event that handed out a Timer handle. Deliveries never get one.
type event struct {
	gen      uint32 // bumped on release; stale Timer handles miss
	kind     eventKind
	canceled bool

	fn func() // evFunc

	node    *simNode      // evTimer
	timerID proto.TimerID // evTimer
	payload any           // evTimer
}

// evKey is the deterministic, shard-invariant ordering tail of one event:
// scheduling context and per-context sequence number.
type evKey struct {
	src proto.NodeID
	seq uint32
}

// entry is one queued event: the full ordering key plus either a message
// delivery, carried inline, or the arena slot of a cancellable event. The
// (src, seq) tail is packed into one word so a same-instant tie — the
// common case under constant link latency, where a whole broadcast wave
// lands on the same nanosecond — resolves in a single compare; a
// delivery's sender is that word's high half.
type entry struct {
	at  time.Duration
	tag uint64        // (src+1) in the high word, seq in the low
	msg proto.Message // delivery payload
	dst proto.NodeID  // delivery destination; arenaEvent for an arena slot
	idx int32         // arena slot when dst == arenaEvent
}

// arenaEvent in entry.dst marks an entry whose payload lives in the arena.
const arenaEvent proto.NodeID = -1

// keyTag packs an ordering key's provenance tail. NodeIDs are int32-
// ranged (ctlSrc = -1 maps to 0, sorting first), so the shifted word is
// exact and uint64 order equals (src, seq) lexicographic order.
func keyTag(src proto.NodeID, seq uint32) uint64 {
	return uint64(uint32(src+1))<<32 | uint64(seq)
}

// tagSrc recovers the scheduling context from a packed tag.
func tagSrc(tag uint64) proto.NodeID { return proto.NodeID(uint32(tag>>32)) - 1 }

func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.tag < b.tag
}

// Queue geometry. tickBits is not a tuning knob: 13, 17 and 20 measured
// within 10 % of each other on the soak workload (DESIGN §2). A tick
// index has 64-tickBits significant bits, so bits.Len64 of a tick
// difference — the bucket index — ranges over 0..64-tickBits.
const (
	tickBits   = 17
	numBuckets = 64 - tickBits + 1
	chunkLen   = 128

	// warmAhead is how many entries ahead pop touches a delivery's
	// destination cell; 4, 8 and 16 measured alike on the N=1M flood.
	warmAhead = 8
)

func tickOf(at time.Duration) uint64 { return uint64(at) >> tickBits }

// chunk is the unit buckets grow by. Chunks cycle through one per-engine
// free list, so the queue's footprint is its peak population, not the sum
// of every bucket's own high-water mark as virtual time crosses
// power-of-two boundaries.
type chunk struct {
	next *chunk
	n    int
	ents [chunkLen]entry
}

// bucket is an unordered chunk list: top is the chunk being filled, full
// ones follow. lo is the earliest fire time inside (valid when top != nil).
type bucket struct {
	top *chunk
	lo  time.Duration
}

// Arena geometry: events live in fixed-size blocks so growing the arena
// never copies or re-zeroes existing slots. Blocks are kept small so that
// the many short-lived networks the experiments build stay cheap.
const (
	arenaBlockBits = 8
	arenaBlockSize = 1 << arenaBlockBits
	arenaBlockMask = arenaBlockSize - 1
)

type arenaBlock [arenaBlockSize]event

// Engine is a single-threaded discrete-event executor. Under the sharded
// runtime each shard owns one Engine; engines never touch each other's
// state — cross-shard events are handed over between windows while every
// engine is idle.
type Engine struct {
	now    time.Duration
	ctlSeq uint32 // per-engine counter for control events (src = ctlSrc)
	steps  uint64

	// curTag/curSub identify the event currently being dispatched: the
	// packed ordering tag of the executing event and a counter over the
	// observation callbacks it has emitted so far. Together with e.now
	// they form the key the sharded observation log (obs.go) orders
	// entries by, so the merged tap stream replays in exactly the
	// single-loop order. Maintained unconditionally — two word stores
	// per event — because the network cannot know at dispatch time
	// whether a tap will be registered later in the run.
	curTag uint64
	curSub uint32

	// net is the hosting network and nodes its table of hot cells, which
	// delivery entries index (nil for a bare engine, which never sees a
	// delivery). warmed only keeps pop's look-ahead load alive.
	net    *Network
	nodes  []simNode
	warmed uint32

	// The queue: run[head:] is the sorted remainder of tick lastTick,
	// late the heap of entries pushed at or below it since, buckets the
	// future. pending counts all three.
	lastTick   uint64
	run        []entry
	head       int
	late       []entry
	buckets    [numBuckets]bucket
	nonEmpty   uint64 // bit b set iff buckets[b].top != nil
	freeChunks *chunk
	pending    int

	// Queue cost counters, bumped per refill rather than per event:
	// refills, entries moved to a lower bucket, largest single-tick run.
	refills uint64
	moves   uint64
	maxRun  int

	blocks []*arenaBlock
	next   int32   // first never-used slot index
	free   []int32 // recycled arena slots
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Reset rewinds the engine to virtual time zero for a fresh run while
// keeping the arena blocks, chunks and run buffer, so a reset engine
// behaves exactly like a new one without re-allocating. All pending
// events are dropped along with every message and payload reference the
// queue or the arena still holds; every outstanding Timer handle must be
// discarded by the caller (generations restart, so a stale handle could
// otherwise cancel an unrelated new event).
func (e *Engine) Reset() {
	e.now, e.ctlSeq, e.steps = 0, 0, 0
	e.curTag, e.curSub = 0, 0
	e.refills, e.moves, e.maxRun = 0, 0, 0
	for i := range e.buckets {
		for c := e.buckets[i].top; c != nil; {
			next := c.next
			e.freeChunk(c)
			c = next
		}
	}
	e.buckets = [numBuckets]bucket{}
	// Chunks, run and heap are not scrubbed as they drain (the next push
	// overwrites them), so scrub all of it here, capacity included.
	for c := e.freeChunks; c != nil; c = c.next {
		c.ents = [chunkLen]entry{}
	}
	clear(e.run[:cap(e.run)])
	clear(e.late[:cap(e.late)])
	e.run, e.late = e.run[:0], e.late[:0]
	e.lastTick, e.head, e.nonEmpty, e.pending = 0, 0, 0, 0
	e.free = e.free[:0]
	// Zero the used prefix of the arena: drops payload references and
	// restarts generations, making reset state indistinguishable from a
	// fresh engine.
	for b := 0; b <= int(e.next-1)>>arenaBlockBits && b < len(e.blocks); b++ {
		*e.blocks[b] = arenaBlock{}
	}
	e.next = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of scheduled (possibly canceled) events.
func (e *Engine) Pending() int { return e.pending }

// nextAt returns the fire time of the earliest pending event. ok is
// false when the queue is empty. It never restructures the queue, so a
// peek between windows cannot change any later pop. Canceled events
// still count — they are only discovered (and released) when popped,
// which at worst makes a lookahead window conservative, never wrong.
func (e *Engine) nextAt() (time.Duration, bool) {
	if e.head < len(e.run) {
		at := e.run[e.head].at
		if len(e.late) > 0 && e.late[0].at < at {
			at = e.late[0].at
		}
		return at, true
	}
	if len(e.late) > 0 {
		return e.late[0].at, true
	}
	if e.nonEmpty != 0 {
		return e.buckets[bits.TrailingZeros64(e.nonEmpty)].lo, true
	}
	return 0, false
}

// push enqueues an entry. Ticks at or below the one being executed go to
// the in-tick heap; later ones to the bucket of their highest bit that
// differs from lastTick, which orders buckets by tick.
func (e *Engine) push(ent entry) {
	e.pending++
	tick := tickOf(ent.at)
	if tick <= e.lastTick {
		e.late = heapPush(e.late, ent)
		return
	}
	e.bucketPush(bits.Len64(tick^e.lastTick), &ent)
}

func (e *Engine) bucketPush(b int, ent *entry) {
	bk := &e.buckets[b]
	c := bk.top
	if c == nil || c.n == chunkLen {
		if c == nil {
			bk.lo = ent.at
			e.nonEmpty |= 1 << b
		}
		c = e.freeChunks
		if c == nil {
			c = new(chunk)
		} else {
			e.freeChunks = c.next
		}
		c.next, bk.top = bk.top, c
	}
	c.ents[c.n] = *ent
	c.n++
	if ent.at < bk.lo {
		bk.lo = ent.at
	}
}

func (e *Engine) freeChunk(c *chunk) {
	c.n = 0
	c.next, e.freeChunks = e.freeChunks, c
}

// refill advances lastTick to the earliest tick of the lowest non-empty
// bucket and redistributes that bucket: the entries of that tick become
// the sorted run, the rest fall into strictly lower buckets (their
// highest bit differing from the new lastTick lies below the bucket's
// own). Called only with run and in-tick heap exhausted and a bucket
// non-empty.
func (e *Engine) refill() {
	b := bits.TrailingZeros64(e.nonEmpty)
	bk := &e.buckets[b]
	c := bk.top
	last := tickOf(bk.lo)
	*bk = bucket{}
	e.nonEmpty &^= 1 << b
	e.lastTick = last
	run := e.run[:0]
	for c != nil {
		for i := range c.ents[:c.n] {
			ent := &c.ents[i]
			if tick := tickOf(ent.at); tick != last {
				e.bucketPush(bits.Len64(tick^last), ent)
				e.moves++
				continue
			}
			if len(run) == cap(run) {
				// Double explicitly: Go's 1.25× growth policy for large
				// slices would copy ~4× the final size.
				run = slices.Grow(run, max(chunkLen, len(run)))
			}
			run = append(run, *ent)
		}
		next := c.next
		e.freeChunk(c)
		c = next
	}
	sortRun(run, 2*bits.Len(uint(len(run))))
	e.run, e.head = run, 0
	e.refills++
	e.maxRun = max(e.maxRun, len(run))
}

// pop removes and returns the earliest pending entry; the queue must not
// be empty.
func (e *Engine) pop() entry {
	if e.head == len(e.run) && len(e.late) == 0 {
		e.refill()
	}
	e.pending--
	if e.head < len(e.run) && (len(e.late) == 0 || e.run[e.head].before(&e.late[0])) {
		// The run is sorted and consumed by index, so the deliveries a few
		// pops ahead are known: load one's hot cell now and the miss
		// overlaps the handlers in between instead of stalling step.
		if i := e.head + warmAhead; i < len(e.run) {
			if dst := e.run[i].dst; dst != arenaEvent {
				e.warmed += e.nodes[dst].schedSeq
			}
		}
		e.head++
		return e.run[e.head-1]
	}
	ent := e.late[0]
	e.late = heapPopRoot(e.late)
	return ent
}

// slot returns the arena cell for an index.
func (e *Engine) slot(idx int32) *event {
	return &e.blocks[idx>>arenaBlockBits][idx&arenaBlockMask]
}

// alloc takes a slot from the free list, growing the arena by one block
// when empty.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	if int(e.next)>>arenaBlockBits == len(e.blocks) {
		e.blocks = append(e.blocks, new(arenaBlock))
	}
	idx := e.next
	e.next++
	return idx
}

// release recycles a slot: references are dropped so the arena never
// pins handler objects, and the generation is bumped so outstanding
// Timer handles go stale.
func (e *Engine) release(idx int32) {
	ev := e.slot(idx)
	*ev = event{gen: ev.gen + 1}
	e.free = append(e.free, idx)
}

// scheduleArena allocates a slot for a cancellable event firing at the
// absolute time `at` under the given ordering key and queues it. The
// caller fills the payload fields.
func (e *Engine) scheduleArena(at time.Duration, key evKey) (int32, *event) {
	idx := e.alloc()
	e.push(entry{at: at, tag: keyTag(key.src, key.seq), dst: arenaEvent, idx: idx})
	return idx, e.slot(idx)
}

// scheduleFunc enqueues a callback at absolute time `at` under the given
// key — Engine.Schedule with its own control counter, the sharded
// network's control stream with the network's (Network.scheduleCtl).
func (e *Engine) scheduleFunc(at time.Duration, key evKey, fn func()) Timer {
	idx, ev := e.scheduleArena(at, key)
	ev.kind = evFunc
	ev.fn = fn
	return Timer{e: e, idx: idx, gen: ev.gen}
}

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero. The returned handle can cancel the event.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	e.ctlSeq++
	return e.scheduleFunc(e.now+delay, evKey{src: ctlSrc, seq: e.ctlSeq}, fn)
}

// scheduleDeliver enqueues a message delivery at absolute arrival time
// `at` — the Network hot path; the entry is the whole event. The key
// carries the sender's provenance, so the event sorts identically
// whether it was pushed by the sender's own shard or handed over at a
// window barrier.
func (e *Engine) scheduleDeliver(at time.Duration, key evKey, dst proto.NodeID, msg proto.Message) {
	e.push(entry{at: at, tag: keyTag(key.src, key.seq), msg: msg, dst: dst})
}

// scheduleTimer enqueues a typed node-timer event (Context.SetTimer),
// keyed to the node's own schedule stream.
func (e *Engine) scheduleTimer(delay time.Duration, node *simNode, id proto.TimerID, payload any) Timer {
	if delay < 0 {
		delay = 0
	}
	if delay == 0 {
		// A same-instant child may carry a smaller ordering tag than the
		// event creating it; mark the creator in the observation log so
		// the barrier merge replays taps in true execution order
		// (see the availability invariant in obs.go).
		node.net.tapMark(node)
	}
	node.schedSeq++
	idx, ev := e.scheduleArena(e.now+delay, evKey{src: node.id, seq: node.schedSeq})
	ev.kind = evTimer
	ev.node = node
	ev.timerID = id
	ev.payload = payload
	return Timer{e: e, idx: idx, gen: ev.gen}
}

// Timer is a cancellable handle on a scheduled event. The zero Timer is
// inert. Handles are generation-counted: cancelling after the event has
// fired — even if the arena slot has since been reused by a different
// event — is a safe no-op.
type Timer struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Safe to call multiple times,
// after the event has fired, and on the zero Timer.
func (t Timer) Cancel() {
	if t.e == nil {
		return
	}
	ev := t.e.slot(t.idx)
	if ev.gen == t.gen && ev.kind != evFree {
		ev.canceled = true
	}
}

// Run executes events until the queue is empty or maxEvents have fired.
// maxEvents ≤ 0 means no limit. It returns the number of events executed.
func (e *Engine) Run(maxEvents uint64) uint64 {
	return e.runUntil(time.Duration(math.MaxInt64), maxEvents)
}

// RunUntil executes events with timestamps ≤ deadline. Events scheduled at
// exactly the deadline do fire; the virtual clock then advances to the
// deadline even if no events occupied the window, so repeated
// RunUntil(Now()+step) calls always make progress.
func (e *Engine) RunUntil(deadline time.Duration) uint64 {
	n := e.runUntil(deadline, 0)
	if deadline > e.now {
		e.now = deadline
	}
	return n
}

// runUntil executes events with at ≤ deadline (inclusive bound).
func (e *Engine) runUntil(deadline time.Duration, maxEvents uint64) uint64 {
	var executed uint64
	for {
		at, ok := e.nextAt()
		if !ok || at > deadline {
			break
		}
		if !e.step() {
			continue
		}
		executed++
		if maxEvents > 0 && executed >= maxEvents {
			break
		}
	}
	return executed
}

// runBefore executes events with at < horizon (exclusive bound) — the
// sharded window form: the horizon is minNext+lookahead, and events at
// exactly the horizon must wait for the barrier because a cross-shard
// message may still arrive at that instant and sort ahead of them.
func (e *Engine) runBefore(horizon time.Duration) uint64 {
	var executed uint64
	for {
		at, ok := e.nextAt()
		if !ok || at >= horizon {
			break
		}
		if e.step() {
			executed++
		}
	}
	return executed
}

// step pops and executes the earliest event; it reports whether a live
// event actually ran (false for canceled slots).
func (e *Engine) step() bool {
	ent := e.pop()
	if ent.dst != arenaEvent {
		e.now = ent.at
		e.curTag, e.curSub = ent.tag, 0
		if node := &e.nodes[ent.dst]; !node.crashed {
			// Delivery-side taps fire here, in the engine's dispatch,
			// so both the single-loop and sharded send paths (whose
			// cross-shard outboxes funnel through scheduleDeliver into
			// this branch) report arrivals identically. Under a sharded
			// run the observation is parked in the shard's log and
			// replayed in merged global order at the next barrier
			// (obs.go).
			src := tagSrc(ent.tag)
			if len(e.net.taps) > 0 {
				e.net.tapRecv(node, ent.at, src, ent.msg)
			}
			node.handler.HandleMessage(node, src, ent.msg)
		}
		e.steps++
		return true
	}
	ev := e.slot(ent.idx)
	if ev.canceled {
		e.release(ent.idx)
		return false
	}
	e.now = ent.at
	e.curTag, e.curSub = ent.tag, 0
	// Copy the payload out and recycle the slot before dispatching: the
	// callback may schedule new events that reuse it.
	if ev.kind == evFunc {
		fn := ev.fn
		e.release(ent.idx)
		fn()
	} else {
		node, id, payload := ev.node, ev.timerID, ev.payload
		e.release(ent.idx)
		node.onTimerFire(id, payload)
	}
	e.steps++
	return true
}

// sortRun sorts one tick's entries by (at, tag): a quicksort with the
// compare inlined (a comparison func through slices.SortFunc costs the
// small-wave workloads 5 %), insertion sort below 12 entries. Keys are
// unique, so the result is the one total order whatever the pivots; depth
// bounds the recursion, falling back to the library's guaranteed
// O(n log n) on an adversarial input.
func sortRun(a []entry, depth int) {
	for len(a) > 12 {
		if depth == 0 {
			slices.SortFunc(a, func(x, y entry) int {
				if x.before(&y) {
					return -1
				}
				return 1
			})
			return
		}
		depth--
		// Median of three into a[mid], leaving a[0] ≤ pivot ≤ a[hi] as
		// sentinels for the two scans.
		mid, hi := len(a)/2, len(a)-1
		if a[mid].before(&a[0]) {
			a[mid], a[0] = a[0], a[mid]
		}
		if a[hi].before(&a[0]) {
			a[hi], a[0] = a[0], a[hi]
		}
		if a[hi].before(&a[mid]) {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := entry{at: a[mid].at, tag: a[mid].tag}
		i, j := 0, hi
		for {
			for i++; a[i].before(&pivot); i++ {
			}
			for j--; pivot.before(&a[j]); j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		// a[:i] ≤ pivot ≤ a[i:], both non-empty; recurse into the smaller.
		if i < len(a)-i {
			sortRun(a[:i], depth)
			a = a[i:]
		} else {
			sortRun(a[i:], depth)
			a = a[:i]
		}
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && x.before(&a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

// 4-ary min-heap over entries, for the few pushed into the tick being
// executed. Flatter than a binary heap: half the levels.

func heapPush(h []entry, ent entry) []entry {
	h = append(h, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPopRoot(h []entry) []entry {
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n == 0 {
		return h
	}
	// Percolate the hole at the root down, writing `last` once at the end
	// instead of swapping at every level.
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for c++; c < end; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
	return h
}
