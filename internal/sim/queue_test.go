package sim

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
)

// The oracle: the 4-ary heap of (at, tag, idx) keys the engine ran on
// before the radix queue, kept verbatim. Its pop order is the definition
// of the event order.

type heapEntry struct {
	at  time.Duration
	tag uint64
	idx int32
}

func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.tag < b.tag
}

type oracleHeap struct{ heap []heapEntry }

func (e *oracleHeap) heapPush(ent heapEntry) {
	h := append(e.heap, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

func (e *oracleHeap) heapPopRoot() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return
	}
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
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
}

// queueMsg is a delivery payload carrying the driver's event id.
type queueMsg int32

func (queueMsg) Type() proto.MsgType { return 0 }

const queueNodes = 4

// queueDiff drives an Engine (through a tiny hosting Network, so all
// three event kinds are real) and the oracle with the same operations
// and compares everything observable after each one.
type queueDiff struct {
	t   testing.TB
	net *Network
	e   *Engine

	fired []int32 // ids the engine executed since the last check
	want  []int32 // ids the oracle executed since the last check

	oracle   oracleHeap
	now      time.Duration
	steps    uint64
	ctlSeq   uint32
	schedSeq [queueNodes]uint32
	synth    map[proto.NodeID]uint32 // sequence of senders outside the network
	state    []evState               // per event id
	handles  []queueHandle
}

type evState struct {
	src      proto.NodeID // expected HandleMessage sender (deliveries)
	done     bool         // popped or canceled
	canceled bool
}

// queueHandle is what the driver keeps to cancel an event later: an
// Engine.Schedule handle, or a node timer.
type queueHandle struct {
	id    int32
	timer Timer
	node  proto.NodeID // ≥ 0 for a node timer
	tid   proto.TimerID
}

// queueRecorder is the handler installed at every node.
type queueRecorder struct{ d *queueDiff }

func (queueRecorder) Init(proto.Context) {}

func (r queueRecorder) HandleMessage(_ proto.Context, from proto.NodeID, msg proto.Message) {
	id := int32(msg.(queueMsg))
	if want := r.d.state[id].src; from != want {
		r.d.t.Fatalf("delivery %d handed over with sender %d, want %d", id, from, want)
	}
	r.d.fired = append(r.d.fired, id)
}

func (r queueRecorder) HandleTimer(_ proto.Context, payload any) {
	r.d.fired = append(r.d.fired, payload.(int32))
}

func newQueueDiff(t testing.TB) *queueDiff {
	g, err := topology.Complete(queueNodes)
	if err != nil {
		t.Fatal(err)
	}
	d := &queueDiff{t: t, net: NewNetwork(g, Options{Seed: 1})}
	d.e = d.net.engine
	d.start()
	return d
}

func (d *queueDiff) start() {
	d.net.SetHandlers(func(proto.NodeID) proto.Handler { return queueRecorder{d} })
	d.net.Start()
}

// reset rewinds both sides; every handle is discarded, as Engine.Reset
// requires.
func (d *queueDiff) reset() {
	d.net.Reset(1)
	d.start()
	d.oracle.heap = d.oracle.heap[:0]
	d.now, d.steps, d.ctlSeq, d.schedSeq = 0, 0, 0, [queueNodes]uint32{}
	d.handles = d.handles[:0]
	d.check("reset")
}

func (d *queueDiff) newID(src proto.NodeID) int32 {
	d.state = append(d.state, evState{src: src})
	return int32(len(d.state) - 1)
}

// at turns a delay into an absolute time, saturating at MaxInt64.
func (d *queueDiff) at(delay time.Duration) time.Duration {
	if delay > math.MaxInt64-d.now {
		return math.MaxInt64
	}
	return d.now + delay
}

func (d *queueDiff) pushFunc(delay time.Duration) {
	id := d.newID(ctlSrc)
	d.ctlSeq++
	d.oracle.heapPush(heapEntry{at: d.at(delay), tag: keyTag(ctlSrc, d.ctlSeq), idx: id})
	tm := d.e.Schedule(d.at(delay)-d.now, func() { d.fired = append(d.fired, id) })
	d.handles = append(d.handles, queueHandle{id: id, timer: tm, node: -1})
}

func (d *queueDiff) pushTimer(node proto.NodeID, delay time.Duration) {
	id := d.newID(node)
	d.schedSeq[node]++
	d.oracle.heapPush(heapEntry{at: d.at(delay), tag: keyTag(node, d.schedSeq[node]), idx: id})
	tid := d.net.nodes[node].SetTimer(d.at(delay)-d.now, id)
	d.handles = append(d.handles, queueHandle{id: id, node: node, tid: tid})
}

// key draws the next ordering key of src, as Network.send does.
func (d *queueDiff) key(src proto.NodeID) evKey {
	d.schedSeq[src]++
	d.net.nodes[src].schedSeq++
	return evKey{src: src, seq: d.schedSeq[src]}
}

// pushDeliver schedules a delivery at an absolute time — which may lie
// below now: the engine promises exact order for that too.
func (d *queueDiff) pushDeliver(at time.Duration, key evKey, dst proto.NodeID) {
	id := d.newID(key.src)
	d.oracle.heapPush(heapEntry{at: at, tag: keyTag(key.src, key.seq), idx: id})
	d.e.scheduleDeliver(at, key, dst, queueMsg(id))
}

// wave schedules n same-instant deliveries whose keys arrive shuffled.
func (d *queueDiff) wave(n int, delay time.Duration, shuffle uint64) {
	keys := make([]evKey, n)
	for i := range keys {
		keys[i] = d.key(proto.NodeID(i % queueNodes))
	}
	rand.New(rand.NewPCG(shuffle, 5)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	at := d.at(delay)
	for i, k := range keys {
		d.pushDeliver(at, k, proto.NodeID(i%queueNodes))
	}
}

func (d *queueDiff) cancel(i int) {
	if len(d.handles) == 0 {
		return
	}
	h := d.handles[i%len(d.handles)]
	if st := &d.state[h.id]; !st.done {
		st.done, st.canceled = true, true
	}
	if h.node >= 0 {
		d.net.nodes[h.node].CancelTimer(h.tid)
	} else {
		h.timer.Cancel()
	}
}

// oracleRun pops the oracle while its root satisfies ok, up to max live
// events (0: no limit).
func (d *queueDiff) oracleRun(ok func(at time.Duration) bool, max int) {
	for ran := 0; len(d.oracle.heap) > 0 && ok(d.oracle.heap[0].at); {
		root := d.oracle.heap[0]
		d.oracle.heapPopRoot()
		st := &d.state[root.idx]
		if st.canceled {
			continue
		}
		st.done = true
		d.now = root.at
		d.steps++
		d.want = append(d.want, root.idx)
		if ran++; ran == max {
			break
		}
	}
}

func (d *queueDiff) popOne() {
	d.oracleRun(func(time.Duration) bool { return true }, 1)
	d.e.Run(1)
	d.check("Run(1)")
}

func (d *queueDiff) runUntil(delay time.Duration) {
	deadline := d.at(delay)
	d.oracleRun(func(at time.Duration) bool { return at <= deadline }, 0)
	d.now = max(d.now, deadline)
	d.e.RunUntil(deadline)
	d.check("RunUntil")
}

func (d *queueDiff) runBefore(delay time.Duration) {
	horizon := d.at(delay)
	d.oracleRun(func(at time.Duration) bool { return at < horizon }, 0)
	d.e.runBefore(horizon)
	d.check("runBefore")
}

func (d *queueDiff) drain() {
	d.oracleRun(func(time.Duration) bool { return true }, 0)
	d.e.Run(0)
	d.check("Run(0)")
}

func (d *queueDiff) peek() {
	at, ok := d.e.nextAt()
	if wantOK := len(d.oracle.heap) > 0; ok != wantOK || ok && at != d.oracle.heap[0].at {
		d.t.Fatalf("nextAt = %v, %t; oracle has %d pending, root %v", at, ok, len(d.oracle.heap), d.oracle.heap)
	}
}

func (d *queueDiff) check(op string) {
	d.t.Helper()
	if !slices.Equal(d.fired, d.want) {
		d.t.Fatalf("%s: pop sequence diverged from the heap oracle:\n got  %v\n want %v", op, clip(d.fired), clip(d.want))
	}
	d.fired, d.want = d.fired[:0], d.want[:0]
	if d.e.Now() != d.now || d.e.Steps() != d.steps || d.e.Pending() != len(d.oracle.heap) {
		d.t.Fatalf("%s: now/steps/pending = %v/%d/%d, oracle %v/%d/%d", op,
			d.e.Now(), d.e.Steps(), d.e.Pending(), d.now, d.steps, len(d.oracle.heap))
	}
}

// clip shortens a sequence for a failure message; the head is where a
// divergence shows first.
func clip(s []int32) []int32 { return s[:min(len(s), 32)] }

// queueClasses is the number of delay classes queueDelay tells apart.
const queueClasses = 14

// queueDelay maps a class and a magnitude byte onto the delays the queue
// geometry cares about.
func (d *queueDiff) queueDelay(class, m byte) time.Duration {
	const tick = time.Duration(1) << tickBits
	const page = tick << pageBits
	switch class % queueClasses {
	case 0: // the instant being executed
		return 0
	case 1: // inside one tick
		return time.Duration(m)*500 + 1
	case 2: // exactly on one of the next tick boundaries
		return (d.now/tick+1+time.Duration(m%4))*tick - d.now
	case 3: // the last instant before a power-of-two tick crossing
		return max(time.Duration(1)<<(tickBits+1+m%44)-1-d.now, 0)
	case 4: // the first instant after it
		return max(time.Duration(1)<<(tickBits+1+m%44)-d.now, 0)
	case 5: // far future
		return time.Duration(1)<<40 + time.Duration(m)<<32
	case 6: // the end of time
		return math.MaxInt64 - d.now
	case 7: // a few ticks
		return time.Duration(m) * tick / 8
	case 8: // the last instant of the current page, or of one of the next two
		return (d.now/page+1+time.Duration(m%3))*page - 1 - d.now
	case 9: // the first instant of the next page, or of the one after
		return (d.now/page+1+time.Duration(m%3))*page - d.now
	default: // link-latency scale
		return time.Duration(m) * 300 * time.Microsecond
	}
}

// runQueueOps interprets a byte-coded operation stream: one opcode byte,
// then the argument bytes that op reads (missing ones read as zero).
func runQueueOps(t testing.TB, data []byte) {
	d := newQueueDiff(t)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 {
		switch op := next(); op % 16 {
		case 0, 1, 2, 3: // push one event of some kind
			kind, delay := next(), d.queueDelay(next(), next())
			node := proto.NodeID(kind / 4 % queueNodes)
			switch kind % 3 {
			case 0:
				d.pushFunc(delay)
			case 1:
				d.pushTimer(node, delay)
			default:
				d.pushDeliver(d.at(delay), d.key(node), proto.NodeID(kind/16%queueNodes))
			}
		case 4: // same-instant wave
			sizes := [...]int{1, 127, 128, 129, 10_000, 3, 40, 700}
			d.wave(sizes[next()%8], d.queueDelay(next(), next()), uint64(op))
		case 5, 6:
			d.popOne()
		case 7:
			d.runUntil(d.queueDelay(next(), next()))
		case 8:
			d.runBefore(d.queueDelay(next(), next()))
		case 9, 10:
			d.peek()
		case 11, 12:
			d.cancel(int(next()))
		case 13: // below now: breaks monotonicity, must still pop in order
			back := d.queueDelay(next(), next())
			d.pushDeliver(max(d.now-back, 0), d.key(0), 1)
		case 14:
			if next()%4 == 0 {
				d.reset()
			}
		case 15:
			d.drain()
		}
	}
	d.peek()
	d.drain()
}

// TestQueueDifferential replays seeded random operation streams against
// the engine and the heap oracle.
func TestQueueDifferential(t *testing.T) {
	streams := 24
	if testing.Short() {
		streams = 6
	}
	for seed := uint64(1); seed <= uint64(streams); seed++ {
		rng := rand.New(rand.NewPCG(seed, 15))
		data := make([]byte, 3000)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		runQueueOps(t, data)
	}
}

// TestQueueScenarios walks the cases the queue geometry singles out, one
// at a time: every delay class for every event kind, chunk-boundary
// waves, a driver scheduling at `now` after a peek looked further ahead,
// cancellation before and after the slot is recycled, and Reset with
// events in every part of the queue.
func TestQueueScenarios(t *testing.T) {
	d := newQueueDiff(t)
	for class := byte(0); class < queueClasses; class++ {
		for kind := 0; kind < 3; kind++ {
			for _, m := range []byte{0, 1, 7, 255} {
				delay := d.queueDelay(class, m)
				switch kind {
				case 0:
					d.pushFunc(delay)
				case 1:
					d.pushTimer(2, delay)
				default:
					d.pushDeliver(d.at(delay), d.key(1), 3)
				}
				d.peek()
			}
		}
		if class == 5 {
			d.popOne()
			d.peek()
		}
	}
	d.drain()
	if d.now != math.MaxInt64 {
		t.Fatalf("clock ended at %v, want the end of time", d.now)
	}

	d.reset()
	for i, n := range []int{1, 127, 128, 129, 10_000} {
		d.wave(n, 50*time.Millisecond, uint64(i))
		d.wave(n, 50*time.Millisecond+1, uint64(i)) // same tick, next instant
		d.peek()
		for j := 0; j < 3; j++ {
			d.popOne()
			d.peek()
		}
		d.runBefore(50*time.Millisecond + 1)
	}
	d.drain()

	// Between windows: the queue has only far-future events, a peek looks
	// at them, then the driver schedules at now — below the tick the peek
	// saw — and that event must come first.
	d.pushDeliver(d.at(80*time.Millisecond), d.key(0), 1)
	d.pushDeliver(d.at(90*time.Millisecond), d.key(1), 2)
	d.runBefore(10 * time.Millisecond)
	d.peek()
	d.pushFunc(0)
	d.pushTimer(3, 0)
	d.peek()
	d.popOne()
	d.popOne()
	d.popOne()

	// Cancel before the event fires, after it fired, and after its slot
	// was recycled into a different event.
	d.pushFunc(time.Millisecond)
	d.pushFunc(time.Millisecond)
	early, late := len(d.handles)-2, len(d.handles)-1
	d.cancel(early)
	d.drain()
	d.cancel(late) // fired: no-op
	d.pushFunc(time.Millisecond)
	d.pushTimer(1, time.Millisecond)
	d.cancel(late)  // slot now belongs to one of the two new events
	d.cancel(early) // likewise
	d.drain()

	// Reset with entries in the run, the in-tick heap and three buckets.
	d.wave(300, time.Millisecond, 9)
	d.popOne()
	d.pushFunc(0)
	d.pushTimer(0, time.Second)
	d.pushFunc(time.Hour)
	d.reset()
	d.peek()
	d.pushFunc(time.Millisecond)
	d.drain()
}

// FuzzQueueOrder is the differential driver over arbitrary op streams.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 2, 8, 9, 4, 1, 8, 0, 5, 9, 13, 7, 1, 15})
	f.Add([]byte{4, 4, 3, 20, 4, 4, 4, 20, 5, 7, 2, 0, 9, 0, 0, 0, 1, 5, 11, 0, 14, 0, 4, 2, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		runQueueOps(t, data)
	})
}

// synthKey draws the next ordering key of a sender outside the hosting
// network's four nodes: the engine orders any int32 sender, and how far
// apart the senders of a run lie decides how its keys are sorted.
func (d *queueDiff) synthKey(src proto.NodeID) evKey {
	if d.synth == nil {
		d.synth = map[proto.NodeID]uint32{}
	}
	d.synth[src]++
	return evKey{src: src, seq: d.synth[src]}
}

// groupWave schedules a same-instant wave the way a flood produces one:
// each of `senders` spread-out senders sends `fanout` deliveries with
// ascending sequence numbers, the senders' groups in shuffled order.
func (d *queueDiff) groupWave(senders, fanout int, delay time.Duration, seed uint64) {
	at := d.at(delay)
	for _, s := range rand.New(rand.NewPCG(seed, 7)).Perm(senders) {
		src := proto.NodeID(s*37 + 5)
		for j := 0; j < fanout; j++ {
			d.pushDeliver(at, d.synthKey(src), proto.NodeID(j%queueNodes))
		}
	}
}

// TestQueueWaveGroups holds the key sort to the oracle on the runs a
// constant-latency flood makes: same-instant waves of 10 k to 300 k
// entries in per-sender ascending groups. After three pops a second wave
// lands on the instant being executed (the in-tick heap, merged with the
// run) and a third one hop later.
func TestQueueWaveGroups(t *testing.T) {
	d := newQueueDiff(t)
	for i, c := range []struct{ senders, fanout int }{
		{10_000 / 7, 7}, {30_000, 1}, {2_000, 50}, {100_000 / 7, 7}, {300_000 / 7, 7},
	} {
		if testing.Short() && c.senders*c.fanout > 100_000 {
			continue
		}
		d.groupWave(c.senders, c.fanout, 50*time.Millisecond, uint64(i))
		d.peek()
		for j := 0; j < 3; j++ {
			d.popOne()
		}
		d.groupWave(c.senders/2, c.fanout, 0, uint64(i+100))
		d.groupWave(c.senders/3, c.fanout, 50*time.Millisecond, uint64(i+200))
		d.drain()
	}
}

// TestQueueJitterRuns holds the sort to the oracle on runs whose fire
// times spread over one tick, at lengths on both sides of a chunk, where
// the sort switches from in place to by key, and longer.
func TestQueueJitterRuns(t *testing.T) {
	const tick = time.Duration(1) << tickBits
	d := newQueueDiff(t)
	rng := rand.New(rand.NewPCG(3, 3))
	for _, n := range []int{1, 2, 64, 127, 128, 129, 130, 200, 255, 256, 257, 511, 512, 700, 2000, 20_000} {
		base := (d.now/tick + 3) * tick
		for i := 0; i < n; i++ {
			at := base + time.Duration(rng.Int64N(int64(tick)))
			d.pushDeliver(at, d.synthKey(proto.NodeID(rng.IntN(100_000))), proto.NodeID(i%queueNodes))
		}
		// A few from the hosting nodes, one at the tick's last instant.
		d.pushDeliver(base+tick-1, d.key(1), 2)
		d.pushDeliver(base, d.key(3), 0)
		d.peek()
		d.popOne()
		d.drain()
	}
}

// TestQueueMovedIntoRun sorts one tick whose entries arrive by both
// routes: pushed early into a bucket past the page and moved onto the
// page by the refill that turns it, and pushed later straight into the
// slot they were moved to. Only the page turn moves anything.
func TestQueueMovedIntoRun(t *testing.T) {
	const tick = time.Duration(1) << tickBits
	d := newQueueDiff(t)
	at := (2*pageLen+952)*tick + 5 // tick 3000, two pages on
	d.groupWave(3000, 7, at, 1)
	// Two ticks earlier and in the same bucket: its refill turns the page
	// and moves the wave onto it.
	d.pushDeliver(at-2*tick, d.synthKey(9), 1)
	if b := bits.Len64(tickOf(at) ^ d.e.lastTick); d.e.nonEmpty != 1<<b || d.e.pageWords != 0 {
		t.Fatalf("buckets %b, page words %b: want the wave and the early event in bucket %d only", d.e.nonEmpty, d.e.pageWords, b)
	}
	d.runUntil(at - 2*tick)
	if got := d.e.moves; got != 3000*7 {
		t.Fatalf("the refill of the early event moved %d entries, want the wave's %d", got, 3000*7)
	}
	d.groupWave(2000, 7, at-d.now, 2)
	for i := 0; i < 500; i++ {
		d.pushDeliver(at+time.Duration(i*97), d.synthKey(proto.NodeID(i)), 3)
	}
	if d.e.nonEmpty != 1 || d.e.pageWords == 0 {
		t.Fatalf("buckets %b, page words %b: want every entry on the page", d.e.nonEmpty, d.e.pageWords)
	}
	d.drain()
	if got := d.e.moves; got != 3000*7 {
		t.Fatalf("%d moves after the drain, want the page turn's %d only", got, 3000*7)
	}
}

// TestQueueKeyFallback drives runs whose key spans do not fit one word —
// a sender near 2³¹, a sequence number near 2³², fire times across the
// whole tick — so the comparison sort takes runs the key sort would
// otherwise own.
func TestQueueKeyFallback(t *testing.T) {
	const tick = time.Duration(1) << tickBits
	d := newQueueDiff(t)
	rng := rand.New(rand.NewPCG(4, 4))
	for _, n := range []int{129, 5000} {
		base := (d.now/tick + 2) * tick
		for i := 0; i < n; i++ {
			key := evKey{src: proto.NodeID(rng.IntN(1000)), seq: uint32(i)}
			switch i % 4 {
			case 0:
				key.src = math.MaxInt32 - proto.NodeID(i)
			case 1:
				key.seq = math.MaxUint32 - uint32(i)
			}
			d.pushDeliver(base+time.Duration(rng.Int64N(int64(tick))), key, proto.NodeID(i%queueNodes))
		}
		d.pushDeliver(base, evKey{src: ctlSrc, seq: 1}, 0)
		d.pushDeliver(base+tick-1, evKey{src: math.MaxInt32, seq: math.MaxUint32}, 1)
		d.drain()
	}
}

// sortAsRun has e sort ents as refill would after compacting them into
// run chunks, and returns the run.
func sortAsRun(e *Engine, ents []entry) []entry {
	if len(ents) <= chunkLen {
		run := slices.Clone(ents)
		sortEntries(run, 2*bits.Len(uint(len(run))))
		return run
	}
	e.runChunks, e.runSpan = e.runChunks[:0], newRunSpan()
	for i := range ents {
		if i%chunkLen == 0 {
			e.runChunks = append(e.runChunks, new(chunk))
		}
		e.runChunks[i/chunkLen].ents[i%chunkLen] = ents[i]
		e.runSpan.add(&ents[i])
	}
	e.sortRun(len(ents))
	return e.run
}

// spanEntries draws n entries with unique keys whose at, src+1 and seq
// fields vary over exactly aBits, sBits and qBits bits above random
// common high bits; idx numbers them so a lost or doubled entry shows.
func spanEntries(rng *rand.Rand, n, aBits, sBits, qBits int) []entry {
	field := func(bits, width int) (base, span uint64) {
		span = uint64(1)<<bits - 1
		if bits < width {
			base = rng.Uint64() & (uint64(1)<<(width-bits) - 1) << bits
		}
		return base, span
	}
	atBase, atSpan := field(aBits, 63)
	srcBase, srcSpan := field(sBits, 32)
	seqBase, seqSpan := field(qBits, 32)
	n = min(n, 1<<min(aBits+sBits+qBits, 20))
	seen := make(map[[2]uint64]bool, n)
	ents := make([]entry, 0, n)
	for len(ents) < n {
		r := [3]uint64{rng.Uint64() & atSpan, rng.Uint64() & srcSpan, rng.Uint64() & seqSpan}
		switch len(ents) {
		case 0: // pin each span's extremes
			r = [3]uint64{}
		case 1:
			r = [3]uint64{atSpan, srcSpan, seqSpan}
		}
		at, tag := atBase|r[0], (srcBase|r[1])<<32|seqBase|r[2]
		if seen[[2]uint64{at, tag}] {
			continue
		}
		seen[[2]uint64{at, tag}] = true
		ents = append(ents, entry{at: time.Duration(at), tag: tag, dst: proto.NodeID(len(ents) % 7), idx: int32(len(ents))})
	}
	return ents
}

func checkRunSorted(t testing.TB, ents, run []entry) {
	t.Helper()
	want := slices.Clone(ents)
	slices.SortFunc(want, func(x, y entry) int {
		if x.before(&y) {
			return -1
		}
		if y.before(&x) {
			return 1
		}
		return 0
	})
	if !slices.Equal(run, want) {
		for i := range want {
			if run[i] != want[i] {
				t.Fatalf("%d-entry run differs from slices.SortFunc at %d: got %+v, want %+v", len(ents), i, run[i], want[i])
			}
		}
		t.Fatalf("%d-entry run has %d entries", len(ents), len(run))
	}
}

// TestQueueRunSort checks the run sort on runs either side of each line
// it draws: one chunk, then radixPlan's pass count against log2 n and a
// key that no longer fits a word.
func TestQueueRunSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	e := NewEngine()
	for _, c := range []struct {
		n, aBits, sBits, qBits int
		key                    bool // sorted by key
	}{
		{128, 0, 17, 3, false},
		{129, 0, 17, 3, true},
		{129, 17, 17, 8, true},   // 7 passes of 6 bits
		{129, 17, 17, 9, false},  // 8 passes: log2 n levels
		{1000, 17, 20, 17, true}, // 54 + 10 slot bits
		{1000, 17, 20, 18, false},
		{5000, 17, 31, 32, false},
		{300_000, 0, 20, 4, true},
		{40_000, 17, 17, 10, true},
	} {
		_, _, key := radixPlan(c.n, c.aBits+c.sBits+c.qBits)
		if key = key && c.n > chunkLen; key != c.key {
			t.Fatalf("radixPlan(%d, %d) takes the key sort: %t, want %t", c.n, c.aBits+c.sBits+c.qBits, key, c.key)
		}
		ents := spanEntries(rng, c.n, c.aBits, c.sBits, c.qBits)
		checkRunSorted(t, ents, sortAsRun(e, ents))
	}
}

// FuzzRunSort checks the run sort against slices.SortFunc on arbitrary
// entry sets: a length, three field spans and a seed pick one.
func FuzzRunSort(f *testing.F) {
	f.Add(uint16(1), uint8(0), uint8(0), uint8(0), uint64(1))
	f.Add(uint16(3000), uint8(0), uint8(20), uint8(4), uint64(2))
	f.Add(uint16(700), uint8(17), uint8(10), uint8(13), uint64(3))
	f.Add(uint16(129), uint8(17), uint8(17), uint8(9), uint64(4))
	f.Add(uint16(4095), uint8(63), uint8(32), uint8(32), uint64(5))
	e := NewEngine()
	f.Fuzz(func(t *testing.T, n uint16, aBits, sBits, qBits uint8, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 6))
		ents := spanEntries(rng, int(n%4096)+1, int(aBits%64), int(sBits%33), int(qBits%33))
		checkRunSorted(t, ents, sortAsRun(e, ents))
	})
}

// queueFlood is a reusable flooding network for the reuse tests below.
type queueFlood struct {
	net    *Network
	shared *flood.Shared
}

func newQueueFlood(t testing.TB, n int, opts Options) *queueFlood {
	g, err := topology.RandomRegular(n, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	f := &queueFlood{net: NewNetwork(g, opts), shared: flood.NewShared(n)}
	f.shared.Partition(max(opts.Shards, 1))
	return f
}

// start resets the network and originates one broadcast.
func (f *queueFlood) start(t testing.TB, seed uint64) {
	f.net.Reset(seed)
	f.shared.Reset()
	f.net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(f.shared, id) })
	f.net.Start()
	if _, err := f.net.Originate(0, []byte{byte(seed), byte(seed >> 8)}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueWarmFloodAllocs pins what Engine.Reserve used to stand for: a
// warm network floods again without the queue allocating — chunks, the
// run buffer and the in-tick heap are reused — and without its handlers
// allocating — flood.NewAt, called afresh for every node of every flood,
// hands out the partition cell's one Protocol — so allocations per flood
// are a small number that does not grow with N (a sharded run pays a few
// per barrier window, and the deeper flood has a window or two more).
func TestQueueWarmFloodAllocs(t *testing.T) {
	jitter := netem.Profile{Latency: netem.Const(50 * time.Millisecond), Jitter: netem.Uniform{Hi: 20 * time.Millisecond}}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"const/single", Options{Latency: ConstLatency(50 * time.Millisecond)}},
		{"const/shards4", Options{Latency: ConstLatency(50 * time.Millisecond), Shards: 4}},
		{"jitter/single", Options{Netem: &jitter}},
		{"jitter/shards4", Options{Netem: &jitter, Shards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			for i, n := range []int{500, 4000} {
				f := newQueueFlood(t, n, tc.opts)
				// Two warm-up floods on the seeds measured below: the
				// queue's footprint is then at its high-water mark.
				seed := uint64(0)
				flood := func() {
					seed = seed%2 + 1
					f.start(t, seed)
					f.net.Run(0)
				}
				flood()
				flood()
				allocs[i] = testing.AllocsPerRun(4, flood)
				if got := f.net.ShardCount(); got != max(tc.opts.Shards, 1) {
					t.Fatalf("resolved %d shards", got)
				}
			}
			t.Logf("allocs per warm flood: N=500 %.0f, N=4000 %.0f", allocs[0], allocs[1])
			if allocs[0] > 400 || allocs[1] > allocs[0]+100 {
				t.Errorf("warm flood allocates %.0f at N=500 and %.0f at N=4000; want a small count independent of N", allocs[0], allocs[1])
			}
		})
	}
}

// TestQueueMovesPerEvent holds the queue's moves per event, read through
// ShardStats, to what the page promises: a constant-latency flood, whose
// waves cross page turns, moves nothing at all, and a jittered one moves
// fewer entries than it executes events — only those whose arrival lies
// past a page turn move, as a rule once.
func TestQueueMovesPerEvent(t *testing.T) {
	const pageSpan = time.Duration(1) << (tickBits + pageBits)
	shaped := netem.Profile{ // BenchmarkNetworkFloodShaped's
		Latency: netem.Const(20 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 15 * time.Millisecond},
		Loss:    0.02,
	}
	for _, tc := range []struct {
		name     string
		n        int
		opts     Options
		turns    time.Duration // page turns the flood must cross
		maxMoves float64       // per event
	}{
		{"const/single", 4000, Options{Latency: ConstLatency(50 * time.Millisecond)}, 2, 0},
		{"const/shards2", 4000, Options{Latency: ConstLatency(50 * time.Millisecond), Shards: 2}, 2, 0},
		{"shaped/single", 1000, Options{Netem: &shaped}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newQueueFlood(t, tc.n, tc.opts)
			for seed := uint64(1); seed <= 2; seed++ {
				f.start(t, seed)
				f.net.Run(0)
				var events, moves uint64
				for _, st := range f.net.ShardStats() {
					events += st.Events
					moves += st.QueueMoves
					if st.Clock < tc.turns*pageSpan {
						t.Fatalf("shard %d ended at %v: the flood crossed fewer than %d page turns", st.Shard, st.Clock, tc.turns)
					}
				}
				perEvent := float64(moves) / float64(events)
				t.Logf("seed %d: %d events, %d moves (%.3f per event)", seed, events, moves, perEvent)
				if perEvent > tc.maxMoves {
					t.Errorf("seed %d: %.3f moves per event, want at most %g", seed, perEvent, tc.maxMoves)
				}
			}
		})
	}
}

// TestQueueScratchAcrossNetworks builds and drops per-call networks on
// two goroutines with collections in between, so the run sort's scratch
// passes from dead engines back through scratchPool to new ones while
// other engines sort: run under -race, it checks that hand-over.
func TestQueueScratchAcrossNetworks(t *testing.T) {
	const n = 2000
	g, err := topology.RandomRegular(n, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				shards := 1 + i%2
				net := NewNetwork(g, Options{Seed: uint64(i + 1), Latency: ConstLatency(50 * time.Millisecond), Shards: shards})
				shared := flood.NewShared(n)
				shared.Partition(shards)
				net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
				net.Start()
				if _, err := net.Originate(0, []byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					return
				}
				net.Run(0)
				if net.Steps() < n || net.engine.scratch.sc == nil {
					t.Errorf("flood %d: %d steps, sorted by key: %t", i, net.Steps(), net.engine.scratch.sc != nil)
				}
				runtime.GC()
			}
		}()
	}
	wg.Wait()
}

// TestQueueResetDropsReferences extends the arena's "never pins handler
// objects" contract to the queue: after Reset nothing a handler handed
// to the engine — message, timer payload, callback — is reachable from a
// chunk, the run buffer, the in-tick heap or the arena, used or spare;
// and the chunk table a refill sorts from holds no chunk after a refill
// or a Reset.
func TestQueueResetDropsReferences(t *testing.T) {
	jitter := netem.Profile{Latency: netem.Const(50 * time.Millisecond), Jitter: netem.Uniform{Hi: 20 * time.Millisecond}}
	for _, opts := range []Options{
		{Latency: ConstLatency(50 * time.Millisecond)},
		{Netem: &jitter, Shards: 2},
	} {
		f := newQueueFlood(t, 500, opts)
		f.start(t, 1)
		f.net.Run(0)
		// Stop the second flood mid-way, with events pending everywhere.
		f.start(t, 2)
		f.net.RunUntil(170 * time.Millisecond)
		runBufCap := make([]int, len(f.net.shards))
		for _, sh := range f.net.shards {
			e := sh.eng
			checkNoRunChunks(t, e, "a refill")
			e.Schedule(time.Second, func() {})
			f.net.nodes[sh.lo].SetTimer(time.Second, "payload")
			// An entry inside the tick being executed lands in the
			// in-tick heap.
			e.scheduleDeliver(time.Duration(e.lastTick<<tickBits), evKey{src: ctlSrc}, proto.NodeID(sh.lo), queueMsg(1))
			if entriesZero(e.run) || len(e.late) == 0 || e.pageWords == 0 || e.nonEmpty&^1 == 0 {
				t.Fatalf("shard %d: run %d, in-tick heap %d, page words %b, buckets %b: want references in all four before Reset",
					sh.index, len(e.run), len(e.late), e.pageWords, e.nonEmpty)
			}
			runBufCap[sh.index] = cap(runBuffer(e))
			// Mid-run, too, the free list is dirty chunks over clean ones,
			// and a clean one holds nothing: under sharding these are the
			// inboxes their shard drained, which Reset never visits.
			seenClean := false
			for c := e.freeChunks; c != nil; c = c.next {
				if seenClean && !c.clean {
					t.Fatalf("shard %d: a dirty free chunk lies below a clean one", sh.index)
				}
				seenClean = c.clean
				if c.clean && !entriesZero(c.ents[:]) {
					t.Fatalf("shard %d: a clean free chunk holds entries", sh.index)
				}
			}
		}
		f.net.Reset(3)
		for _, sh := range f.net.shards {
			e := sh.eng
			if e.Pending() != 0 || e.nonEmpty != 0 {
				t.Errorf("shard %d: %d pending, buckets %b after Reset", sh.index, e.Pending(), e.nonEmpty)
			}
			for i, bk := range e.buckets {
				if bk.top != nil {
					t.Errorf("shard %d: bucket %d keeps a chunk after Reset", sh.index, i)
				}
			}
			for s, bk := range e.page {
				if bk != (bucket{}) || e.pageWords != 0 || e.pageOcc[s/64] != 0 {
					t.Fatalf("shard %d: page slot %d keeps %+v (words %b) after Reset", sh.index, s, bk, e.pageWords)
				}
			}
			checkNoRunChunks(t, e, "Reset")
			if len(e.run) != 0 || e.runHeld != nil {
				t.Errorf("shard %d: Reset kept a run of %d (in a chunk: %t)", sh.index, len(e.run), e.runHeld != nil)
			}
			chunks := 0
			for c := e.freeChunks; c != nil; c = c.next {
				chunks++
				if c.n != 0 || !c.clean || !entriesZero(c.ents[:]) {
					t.Fatalf("shard %d: free chunk %d not scrubbed by Reset", sh.index, chunks)
				}
			}
			run := runBuffer(e)
			if chunks == 0 || cap(run) != runBufCap[sh.index] || cap(e.late) == 0 {
				t.Errorf("shard %d: Reset kept %d chunks, run buffer cap %d of %d, heap cap %d; want all retained",
					sh.index, chunks, cap(run), runBufCap[sh.index], cap(e.late))
			}
			if !entriesZero(run[:cap(run)]) || !entriesZero(e.late[:cap(e.late)]) {
				t.Fatalf("shard %d: run buffer or in-tick heap not scrubbed by Reset", sh.index)
			}
			for _, blk := range e.blocks {
				for i := range blk {
					if ev := &blk[i]; ev.fn != nil || ev.node != nil || ev.payload != nil {
						t.Fatalf("shard %d: arena slot keeps a reference after Reset: %+v", sh.index, *ev)
					}
				}
			}
		}
		if opts.Shards == 0 && runBufCap[0] == 0 {
			t.Errorf("the constant-latency flood never sorted a run by key")
		}
	}
}

// runBuffer is the engine's run buffer: nil until a run outgrew a chunk.
func runBuffer(e *Engine) []entry {
	if e.scratch.sc == nil {
		return nil
	}
	return e.scratch.sc.run
}

// checkNoRunChunks fails if the chunk table a refill sorts from still
// holds a chunk, spare capacity included.
func checkNoRunChunks(t *testing.T, e *Engine, after string) {
	t.Helper()
	if e.runTop != nil || slices.ContainsFunc(e.runChunks[:cap(e.runChunks)], func(c *chunk) bool { return c != nil }) {
		t.Fatalf("the run's chunk table holds a chunk after %s", after)
	}
}

func entriesZero(ents []entry) bool {
	for i := range ents {
		if e := &ents[i]; e.at != 0 || e.tag != 0 || e.msg != nil || e.dst != 0 || e.idx != 0 {
			return false
		}
	}
	return true
}
