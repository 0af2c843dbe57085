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
// earlier than the last pop. The queue exploits that with ticks of
// 2^tickBits ns in two tiers. The page holds one slot per tick of the
// 2^pageBits-tick page the tick being executed (lastTick) lies on: an
// entry whose tick differs from lastTick only in its low pageBits bits
// goes straight to its tick's slot and is never moved again. Every later
// entry goes to radix bucket bits.Len64(tick ^ lastTick), always above
// pageBits. When the current tick is exhausted, refill takes the lowest
// occupied slot, whose entries all share one tick and become the run —
// one contiguous slice consumed by index — as they lie; only when the
// page is empty does it take the lowest bucket, whose entries of its
// earliest tick become the run while the rest drop onto the new page or
// into strictly lower buckets. The run is ordered by (at, tag) without
// sorting entries: the pass compacts them in place into the drained
// chunks, each gets an 8-byte key of the bits of (at, src, seq) that vary
// over the run plus its chunk slot, an LSD radix sort orders the keys,
// and one gather copies every entry from its chunk to its place
// (sortRun). Runs that fit one chunk, or whose key would not fit a word,
// take a comparison sort. Entries pushed into the tick being executed
// (or, should a caller ever break monotonicity, below it) go to a small
// 4-ary heap that pop merges with the run. Page and bucket geometry thus
// only decide *when* an entry is sorted, never how: pops follow the exact
// total order (at, src, seq) whatever is pushed, and monotonicity is a
// performance assumption, not a correctness one.
//
// The engine is allocation-free in steady state: chunks, the run buffer,
// the sort's keys and the in-tick heap are reused, a message delivery —
// the hot path — is carried entirely inside its queue entry, and the two
// cancellable event kinds (callbacks and node timers) keep their payload
// in a slot arena recycled through a free list. Timer handles are
// generation-counted so cancelling after the slot has been recycled is a
// safe no-op.
package sim

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/prefetch"
	"repro/internal/proto"
)

// eventKind discriminates the payload of an arena slot.
type eventKind uint8

const (
	// evFree marks a recycled slot sitting on the free list.
	evFree eventKind = iota
	// evFunc is a generic callback (Network.At, Engine.Schedule).
	evFunc
	// evTimer fires a node timer (Context.SetTimer).
	evTimer
)

// ctlSrc is the scheduling-context ID of control events (Network.At:
// churn injection, driver callbacks; Engine.Schedule). It sorts before
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
// within 10 % of each other on the soak workload (DESIGN §2), and with
// the page in front of the buckets a tick only sets how finely a slot's
// run is cut. pageBits is not one either: a page spans 2^(17+10) ns ≈
// 134 ms, a WAN hop plus its jitter, so a jittered arrival lands on the
// page of the tick that sent it unless it crosses a page turn; the page
// costs 16 KB per engine. A tick index has 64-tickBits significant bits,
// so bits.Len64 of a tick difference — the bucket index — ranges over
// 0..64-tickBits. Buckets 1..pageBits stay empty, the page covers those
// ticks, and bucket 0, which no tick above lastTick maps to, stands for
// the page in nonEmpty and nextAt.
const (
	tickBits   = 17
	numBuckets = 64 - tickBits + 1
	pageBits   = 10
	pageLen    = 1 << pageBits
	pageMask   = pageLen - 1
	chunkLen   = 128

	// warmAhead is how many entries ahead pop prefetches a delivery's
	// destination cell; 4, 8 and 16 measured alike on the N=1M flood
	// (with the plain load the prefetch replaced).
	warmAhead = 8
)

func tickOf(at time.Duration) uint64 { return uint64(at) >> tickBits }

// chunk is the unit buckets grow by. Chunks cycle through one per-engine
// free list, so the queue's footprint is its peak population, not the sum
// of every bucket's own high-water mark as virtual time crosses
// power-of-two boundaries.
type chunk struct {
	next  *chunk
	n     int
	clean bool // a spare known to hold no entry (Engine.freeChunks)
	ents  [chunkLen]entry
}

// bucket is an unordered chunk list — a radix bucket or a page slot: top
// is the chunk being filled, full ones follow. lo is the earliest fire
// time inside (valid when top != nil).
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
// state — cross-shard events are handed over in chunk lists at the
// barrier between windows, while every engine is idle (shard.go).
type Engine struct {
	now    time.Duration
	ctlSeq uint32 // Schedule's control counter; a network keys At on its own
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
	// delivery).
	net   *Network
	nodes []simNode

	// The queue: run[head:] is the sorted remainder of tick lastTick,
	// late the heap of entries pushed at or below it since, the page the
	// later ticks of lastTick's page, buckets the ticks past it. pending
	// counts all four. freeChunks is the stack of spare chunks, dirty ones
	// over clean ones: a chunk freed after use may still hold entries, and
	// so messages, and goes on top; a chunk known to hold none — scrubbed
	// by Reset, or by the shard that drained it as an inbox (shard.go) —
	// joins at the bottom, after freeTail, which is valid while the stack
	// is not empty. Pushes take from the top, so Reset scrubs down to the
	// first clean chunk and stops there.
	lastTick   uint64
	run        []entry
	head       int
	runHeld    *chunk // the chunk run lives in, when it fits one
	late       []entry
	buckets    [numBuckets]bucket // buckets[0] stands for the page: only its lo is used
	nonEmpty   uint64             // bit b set iff buckets[b] holds entries
	pageWords  uint64             // bit w set iff pageOcc[w] != 0
	pageOcc    [pageLen / 64]uint64
	freeChunks *chunk
	freeTail   *chunk
	pending    int

	// The run refill is building, in engine fields rather than locals so
	// that the mover path — bucketPush, several calls per event under
	// jitter — carries as little across its call as it did before: the
	// drained chunks the run is compacted into (all full but the last,
	// runTop, which holds runFill entries) and which of its key bits vary.
	// runChunks and runTop hold no chunk between refills.
	runChunks []*chunk
	runFirst  [16]*chunk // runChunks' first backing: no growth below 2048 entries
	runTop    *chunk
	runFill   int
	runSpan   runSpan
	scratch   *scratchRef // the run sort's scratch, once a run outgrew a chunk

	// Queue cost counters, bumped per refill rather than per event:
	// refills, entries moved to a lower bucket, largest single-tick run.
	refills uint64
	moves   uint64
	maxRun  int

	blocks []*arenaBlock
	next   int32   // first never-used slot index
	free   []int32 // recycled arena slots

	// page[s] holds the entries of the tick on lastTick's page whose low
	// pageBits bits are s (bit s of pageOcc set iff it holds any). Last,
	// so that its 16 KB lie past every other field pop and push read.
	page [pageLen]bucket
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{scratch: new(scratchRef)}
	e.runChunks = e.runFirst[:0]
	runtime.AddCleanup(e, releaseScratch, e.scratch)
	return e
}

// Reset rewinds the engine to virtual time zero for a fresh run while
// keeping the arena blocks, chunks, run buffer and sort keys, so a reset
// engine behaves exactly like a new one without re-allocating. All pending
// events are dropped along with every message and payload reference the
// queue or the arena still holds; every outstanding Timer handle must be
// discarded by the caller (generations restart, so a stale handle could
// otherwise cancel an unrelated new event).
func (e *Engine) Reset() {
	e.now, e.ctlSeq, e.steps = 0, 0, 0
	e.curTag, e.curSub = 0, 0
	e.refills, e.moves, e.maxRun = 0, 0, 0
	for e.pageWords != 0 {
		e.freeList(e.takeSlot().top)
	}
	for i := range e.buckets {
		e.freeList(e.buckets[i].top)
	}
	e.buckets = [numBuckets]bucket{}
	if e.runHeld != nil {
		e.freeChunk(e.runHeld)
		e.runHeld = nil
	}
	// Chunks, run and heap are not scrubbed as they drain (the next push
	// overwrites them), so scrub all of it here, capacity included: every
	// spare chunk above the clean ones (freeChunks).
	for c := e.freeChunks; c != nil && !c.clean; c = c.next {
		c.ents = [chunkLen]entry{}
		c.clean = true
	}
	if sc := e.scratch.sc; sc != nil {
		clear(sc.run[:cap(sc.run)])
	}
	clear(e.late[:cap(e.late)])
	e.run, e.late = nil, e.late[:0]
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
// the in-tick heap, later ones to place.
func (e *Engine) push(ent entry) {
	e.pending++
	tick := tickOf(ent.at)
	if tick <= e.lastTick {
		e.late = heapPush(e.late, ent)
		return
	}
	e.place(tick, &ent)
}

// place files an entry whose tick lies above lastTick: a tick on
// lastTick's page goes to its slot, a later one to the bucket of its
// highest bit that differs from lastTick, which orders buckets by tick.
func (e *Engine) place(tick uint64, ent *entry) {
	if d := tick ^ e.lastTick; d>>pageBits != 0 {
		b := bits.Len64(d)
		if e.bucketPush(&e.buckets[b], ent) {
			e.nonEmpty |= 1 << b
		}
		return
	}
	s := tick & pageMask
	if e.bucketPush(&e.page[s], ent) {
		e.pageOcc[s/64] |= 1 << (s % 64)
		e.pageWords |= 1 << (s / 64)
	}
	if pg := &e.buckets[0]; e.nonEmpty&1 == 0 || ent.at < pg.lo {
		pg.lo = ent.at
		e.nonEmpty |= 1
	}
}

// bucketPush appends an entry to a bucket or slot and reports whether it
// was empty before.
func (e *Engine) bucketPush(bk *bucket, ent *entry) bool {
	c := bk.top
	first := c == nil
	if first || c.n == chunkLen {
		if first {
			bk.lo = ent.at
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
	return first
}

// firstSlot returns the lowest occupied page slot; the page must not be
// empty.
func (e *Engine) firstSlot() int {
	w := bits.TrailingZeros64(e.pageWords)
	return w*64 + bits.TrailingZeros64(e.pageOcc[w])
}

// takeSlot empties the lowest occupied page slot and returns what it
// held; the page must not be empty.
func (e *Engine) takeSlot() bucket {
	s := e.firstSlot()
	bk := e.page[s]
	e.page[s] = bucket{}
	if e.pageOcc[s/64] &^= 1 << (s % 64); e.pageOcc[s/64] == 0 {
		e.pageWords &^= 1 << (s / 64)
	}
	if e.pageWords == 0 {
		e.nonEmpty &^= 1
	} else {
		e.buckets[0].lo = e.page[e.firstSlot()].lo
	}
	return bk
}

func (e *Engine) freeChunk(c *chunk) {
	if e.freeChunks == nil {
		e.freeTail = c
	}
	c.n, c.clean = 0, false
	c.next, e.freeChunks = e.freeChunks, c
}

// freeList returns a whole chunk list, such as a bucket's, to the free
// list.
func (e *Engine) freeList(c *chunk) {
	for c != nil {
		next := c.next
		e.freeChunk(c)
		c = next
	}
}

// freeClean puts a list of clean chunks, top to tail, at the bottom of
// the free list in one splice.
func (e *Engine) freeClean(top, tail *chunk) {
	if top == nil {
		return
	}
	if e.freeChunks == nil {
		e.freeChunks = top
	} else {
		e.freeTail.next = top
	}
	e.freeTail = tail
}

// refill advances lastTick to the next tick that holds entries and makes
// them the sorted run: the lowest occupied page slot, whose entries all
// share its tick, or, with the page empty, the earliest tick of the
// lowest non-empty bucket, the rest of which drop onto the new page or
// into strictly lower buckets (their highest bit differing from the new
// lastTick lies below the bucket's own). Called only with run and in-tick
// heap exhausted and the page or a bucket non-empty.
//
// The one pass over the slot or bucket compacts the run's entries, in
// place, into a prefix of the drained chunks (e.runChunks, all full but
// the last) and frees every other drained chunk as soon as it is read, so
// the movers reuse them and the queue's footprint stays its peak
// population. The full chunks go first and the partial top chunk last:
// when nothing moves — every slot, and a constant-latency wave at a page
// turn — every entry stays where it is.
func (e *Engine) refill() {
	var bk bucket
	if b := bits.TrailingZeros64(e.nonEmpty); b == 0 {
		bk = e.takeSlot()
	} else {
		bk = e.buckets[b]
		e.buckets[b] = bucket{}
		e.nonEmpty &^= 1 << b
	}
	top := bk.top
	last := tickOf(bk.lo)
	e.lastTick = last
	if e.runHeld != nil {
		// The run is consumed: its chunk goes back for the movers.
		e.freeChunk(e.runHeld)
		e.runHeld = nil
	}

	e.runTop, e.runFill, e.runSpan = nil, chunkLen, newRunSpan()
	for c, done := top.next, false; !done; {
		if c == nil {
			c, done = top, true
		}
		for i := range c.ents[:c.n] {
			ent := &c.ents[i]
			if tick := tickOf(ent.at); tick != last {
				e.place(tick, ent)
				e.moves++
				continue
			}
			// Compact the entry into the next free slot of the run's
			// chunks (state in e: see runChunks).
			if e.runFill == chunkLen {
				e.takeRunChunk(c)
			}
			e.runSpan.add(ent)
			if w := e.runTop; w != c || e.runFill != i {
				w.ents[e.runFill] = *ent
			}
			e.runFill++
		}
		next := c.next
		if c != e.runTop {
			e.freeChunk(c)
		}
		c = next
	}

	n := (len(e.runChunks)-1)*chunkLen + e.runFill
	if n <= chunkLen {
		// A run that fits one chunk is sorted in place, and the chunk
		// backs it until the next refill.
		c := e.runChunks[0]
		e.run, e.runHeld = c.ents[:n:n], c
		sortEntries(e.run, 2*bits.Len(uint(n)))
		e.runChunks[0] = nil
	} else {
		e.sortRun(n)
		for i, c := range e.runChunks {
			e.freeChunk(c)
			e.runChunks[i] = nil
		}
	}
	e.runChunks, e.runTop, e.head = e.runChunks[:0], nil, 0
	e.refills++
	e.maxRun = max(e.maxRun, n)
}

// takeRunChunk starts a new run chunk once the last is full. The writer
// never passes the reader: it takes the chunk being read, whose entries
// at and before the current one have all been read.
func (e *Engine) takeRunChunk(c *chunk) {
	e.runChunks = append(e.runChunks, c)
	e.runTop, e.runFill = c, 0
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
		// pops ahead are known: prefetch one's hot cell now and the miss
		// resolves behind the handlers in between instead of stalling step.
		if i := e.head + warmAhead; i < len(e.run) {
			if dst := e.run[i].dst; dst != arenaEvent {
				prefetch.Line(&e.nodes[dst])
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
// key — Engine.Schedule with its own control counter, Network.At with
// the network's.
func (e *Engine) scheduleFunc(at time.Duration, key evKey, fn func()) Timer {
	idx, ev := e.scheduleArena(at, key)
	ev.kind = evFunc
	ev.fn = fn
	return Timer{e: e, idx: idx, gen: ev.gen}
}

// Schedule runs fn after delay of virtual time on a standalone engine (a
// network's engines take driver work through Network.At). A negative
// delay is treated as zero. The returned handle can cancel the event.
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
// window barrier (Network.send builds the same entry for an outbox).
func (e *Engine) scheduleDeliver(at time.Duration, key evKey, dst proto.NodeID, msg proto.Message) {
	e.push(entry{at: at, tag: keyTag(key.src, key.seq), msg: msg, dst: dst})
}

// scheduleTimer enqueues a typed node-timer event (Context.SetTimer),
// keyed to the node's own schedule stream.
func (e *Engine) scheduleTimer(delay time.Duration, node *simNode, id proto.TimerID, payload any) Timer {
	if delay < 0 {
		delay = 0
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
			// cross-shard inboxes are pushed onto this queue) report
			// arrivals identically. Under a sharded run the observation
			// is parked in the shard's log and replayed in merged global
			// order at the next barrier (obs.go). Only a watched node or
			// an unscoped tap wants it.
			src := tagSrc(ent.tag)
			if node.watched || len(e.net.unscoped) > 0 {
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

// runSpan records which bits of the ordering fields vary over one run:
// a bit set in or and clear in and differs between two entries. Every
// bit above the highest varying one is common to the run, so a field
// orders the run exactly as its bits up to that one do.
type runSpan struct {
	atOr, atAnd   uint64
	tagOr, tagAnd uint64
}

func newRunSpan() runSpan { return runSpan{atAnd: math.MaxUint64, tagAnd: math.MaxUint64} }

func (s *runSpan) add(ent *entry) {
	s.atOr |= uint64(ent.at)
	s.atAnd &= uint64(ent.at)
	s.tagOr |= ent.tag
	s.tagAnd &= ent.tag
}

// Run sort geometry (DESIGN §2 has the measurements behind it): a digit
// is at most radixMaxDigit bits, and narrower on short runs (radixPlan).
const radixMaxDigit = 12

// radixPlan decides whether an n-entry run longer than a chunk, whose key
// fields vary over width bits, is sorted by key. That pays only when the
// key fits a word and the radix sort makes fewer passes over 8-byte keys
// than a comparison sort makes levels, log2(n), over 40-byte entries.
// Its digits are at most radixMaxDigit bits wide, its counting tables
// have no more bins than half the keys, and the fewest passes that
// allows share the width evenly.
func radixPlan(n, width int) (passes, digit int, ok bool) {
	dmax := min(max(bits.Len(uint(n))-2, 4), radixMaxDigit)
	passes = (width + dmax - 1) / dmax
	if passes > 0 {
		digit = (width + passes - 1) / passes
	}
	ok = width+bits.Len(uint(n-1)) <= 64 && passes < bits.Len(uint(n))
	return passes, digit, ok
}

// runScratch is the run sort's working space: the buffer a run longer
// than a chunk is sorted into, the keys and their ping-pong half, and the
// digit counts of every pass. An engine borrows one from scratchPool the
// first time a run outgrows a chunk and keeps it, so its steady state
// never touches the pool; the cleanup NewEngine registers hands it back
// once the engine is unreachable, so networks built for one call each (a
// one-shot simulate.Run, an experiment trial that keeps no network)
// reuse the buffers of the ones before them instead of growing their own.
type runScratch struct {
	run  []entry
	keys []uint64
	// count holds one table of 2^d bins per pass, back to back;
	// passes·2^d peaks at 6·2^12 (a 64-bit field in 12-bit digits).
	count [1 << 15]uint32
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// scratchRef is the engine's hold on its scratch, apart from the engine
// so that the cleanup can reach the scratch without keeping the engine.
type scratchRef struct{ sc *runScratch }

// releaseScratch returns a dead engine's scratch to the pool, its run
// buffer scrubbed so the pool pins no handler's messages.
func releaseScratch(r *scratchRef) {
	if sc := r.sc; sc != nil {
		clear(sc.run[:cap(sc.run)])
		scratchPool.Put(sc)
	}
}

// sortRun orders the run refill compacted into e.runChunks — slot s is
// runChunks[s/chunkLen].ents[s%chunkLen], n > chunkLen of them — by
// (at, tag) into e.run. Each entry gets a one-word key, at | src | seq |
// slot, each field cut to its bits that vary (e.runSpan). An LSD radix
// sort orders the keys on every bit above the slot, and one gather then
// copies each entry once, from its chunk to its place in the run. Keys
// are unique without the slot, so this is the one total order. Fire
// times are never negative, so the at field orders as its unsigned bits
// do.
//
// A run radixPlan turns down is copied to the run buffer and sorted by
// sortEntries. refill sorts a run that fits one chunk itself, in place.
// Either way the run buffer is the engine's scratch (see runScratch).
func (e *Engine) sortRun(n int) {
	chunks, sp := e.runChunks, e.runSpan
	tagVary := sp.tagOr ^ sp.tagAnd
	aBits := bits.Len64(sp.atOr ^ sp.atAnd)
	sBits := bits.Len32(uint32(tagVary >> 32))
	qBits := bits.Len32(uint32(tagVary))
	slotBits := bits.Len(uint(n - 1))
	passes, digit, ok := radixPlan(n, aBits+sBits+qBits)
	sc := e.scratch.sc
	if sc == nil {
		sc = scratchPool.Get().(*runScratch)
		e.scratch.sc = sc
	}
	if cap(sc.run) < n {
		// Sized to the chunks the run came from, not doubled: a flood's
		// waves grow ×7 at a time. At least a quarter more, though, so
		// runs that creep up a few entries per tick regrow only
		// logarithmically often.
		sc.run = make([]entry, 0, max(len(chunks)*chunkLen, cap(sc.run)*5/4))
	}
	run := sc.run[:n]
	e.run = run
	if !ok {
		for i, c := range chunks {
			copy(run[i*chunkLen:], c.ents[:])
		}
		sortEntries(run, 2*bits.Len(uint(n)))
		return
	}
	if cap(sc.keys) < 2*n {
		sc.keys = make([]uint64, 0, max(2*n, cap(sc.keys)*5/4))
	}
	keys, tmp := sc.keys[:n], sc.keys[n:2*n]
	aMask := uint64(1)<<aBits - 1
	sMask := uint64(1)<<sBits - 1
	qMask := uint64(1)<<qBits - 1
	qShift := slotBits
	sShift := qShift + qBits
	aShift := sShift + sBits
	for i, c := range chunks {
		base := i * chunkLen
		ents := c.ents[:min(chunkLen, n-base)]
		ks := keys[base:][:len(ents)]
		for j := range ents {
			ent := &ents[j]
			ks[j] = uint64(ent.at)&aMask<<aShift |
				ent.tag>>32&sMask<<sShift |
				ent.tag&qMask<<qShift |
				uint64(base+j)
		}
	}
	keys = sc.sort(keys, tmp, slotBits, passes, digit)
	slot := uint64(1)<<slotBits - 1
	run = run[:len(keys)]
	for i, k := range keys {
		s := k & slot
		run[i] = chunks[s/chunkLen].ents[s%chunkLen]
	}
}

// sort orders keys by their bits [lo, lo+passes·d) with LSD counting
// passes of d-bit digits, every pass's digit counts read off one
// histogram pass up front, and returns whichever of keys and tmp holds
// the result. Each pass is stable, so together they sort on the whole
// field; a pass whose digit is the same in every key is skipped.
func (sc *runScratch) sort(keys, tmp []uint64, lo, passes, d int) []uint64 {
	const countMask = len(runScratch{}.count) - 1
	mask := uint64(1)<<d - 1
	count := &sc.count
	clear(count[:passes<<d])
	for _, k := range keys {
		k >>= lo & 63
		for p := 0; p < passes; p++ {
			count[(p<<d|int(k&mask))&countMask]++
			k >>= d & 63
		}
	}
	for p := 0; p < passes; p++ {
		cnt := count[p<<d : (p+1)<<d]
		sh := (lo + p*d) & 63
		if cnt[keys[0]>>sh&mask] == uint32(len(keys)) {
			continue
		}
		var sum uint32
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
		for _, k := range keys {
			i := (p<<d | int(k>>sh&mask)) & countMask
			tmp[count[i]] = k
			count[i]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// sortEntries sorts entries by (at, tag): a quicksort with the compare
// inlined (a comparison func through slices.SortFunc costs the small-wave
// workloads 5 %), insertion sort below 12 entries. Keys are unique, so
// the result is the one total order whatever the pivots; depth bounds the
// recursion, falling back to the library's guaranteed O(n log n) on an
// adversarial input.
func sortEntries(a []entry, depth int) {
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
			sortEntries(a[:i], depth)
			a = a[i:]
		} else {
			sortEntries(a[i:], depth)
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
