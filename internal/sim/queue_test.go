package sim

import (
	"math"
	"math/rand/v2"
	"slices"
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
	state    []evState // per event id
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
	d.e = d.net.Engine()
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

// queueDelay maps a class and a magnitude byte onto the delays the queue
// geometry cares about.
func (d *queueDiff) queueDelay(class, m byte) time.Duration {
	const tick = time.Duration(1) << tickBits
	switch class % 12 {
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
	for class := byte(0); class < 12; class++ {
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

// TestQueueResetDropsReferences extends the arena's "never pins handler
// objects" contract to the queue: after Reset nothing a handler handed
// to the engine — message, timer payload, callback — is reachable from a
// chunk, the run buffer, the in-tick heap or the arena, used or spare.
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
		for _, sh := range f.net.shards {
			e := sh.eng
			e.Schedule(time.Second, func() {})
			f.net.nodes[sh.lo].SetTimer(time.Second, "payload")
			// An entry inside the tick being executed lands in the
			// in-tick heap.
			e.scheduleDeliver(time.Duration(e.lastTick<<tickBits), evKey{src: ctlSrc}, proto.NodeID(sh.lo), queueMsg(1))
			if entriesZero(e.run[:cap(e.run)]) || len(e.late) == 0 || e.nonEmpty == 0 {
				t.Fatalf("shard %d: run cap %d, in-tick heap %d, buckets %b: want references in all three before Reset",
					sh.index, cap(e.run), len(e.late), e.nonEmpty)
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
			chunks := 0
			for c := e.freeChunks; c != nil; c = c.next {
				chunks++
				if c.n != 0 || !entriesZero(c.ents[:]) {
					t.Fatalf("shard %d: free chunk %d not scrubbed by Reset", sh.index, chunks)
				}
			}
			if chunks == 0 || cap(e.run) == 0 || cap(e.late) == 0 {
				t.Errorf("shard %d: Reset kept %d chunks, run cap %d, heap cap %d; want all retained", sh.index, chunks, cap(e.run), cap(e.late))
			}
			if !entriesZero(e.run[:cap(e.run)]) || !entriesZero(e.late[:cap(e.late)]) {
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
