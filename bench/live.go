package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	liveNodes   = 16
	liveDegree  = 4
	livePayload = 256
	liveWindow  = 16
	liveRate    = 2000 // open-loop transactions per second
	// liveFramesPerTx is what one flood costs: the origin sends to all
	// its neighbours, every other node to all but the one it heard from.
	liveFramesPerTx = liveDegree + (liveNodes-1)*(liveDegree-1)
	// liveStall is how long a phase waits without any transaction
	// completing before it counts the rest as failed.
	liveStall = 10 * time.Second
	// liveBacklog caps the transactions in flight in the open loop. The
	// transport drops, for good, a frame that does not fit the 256-frame
	// queue of its peer, and a flood puts at most one frame per
	// transaction on a directed link: below 256 in flight no stall of
	// the host, however long, can lose a transaction. A generator the cap
	// holds back runs late, and that counts, since latency is taken from
	// the due time. At the set rate some 2–4 are in flight.
	liveBacklog = 128
)

// liveCluster is 16 transport nodes on real loopback TCP running
// map-backed flood handlers.
type liveCluster struct {
	epoch    time.Time
	nodes    []*liveNode
	handlers []broadcaster
	traced   []*tracedHandler // mounted only in a -trace 1 run
	on       atomic.Bool      // traced handlers time calls while set
	mailbox  []callStat       // per origin: Inject call → fn start, while on
	track    atomic.Pointer[txTrack]
	refused  atomic.Int64 // Broadcast calls that returned an error
	template []byte
}

// txTrack follows the transactions of one phase to every node.
type txTrack struct {
	first int       // global index of the phase's first transaction
	due   []int64   // ns since epoch: when the tx was due (open loop) or injected (closed)
	at    [][]int64 // [node][tx] local delivery, ns since epoch; a node's loop writes only its row
	left  []atomic.Int32
	done  chan struct{} // one per tx delivered at every node; buffered for the whole phase so no loop ever blocks on it
}

func newLiveCluster(seed uint64, traced bool) (*liveCluster, error) {
	g, err := randomRegular(liveNodes, liveDegree, seed)
	if err != nil {
		return nil, fmt.Errorf("building %d-regular overlay on %d nodes: %w", liveDegree, liveNodes, err)
	}
	c := &liveCluster{epoch: time.Now(), mailbox: make([]callStat, liveNodes), template: make([]byte, livePayload)}
	rng := rand.New(rand.NewPCG(seed, 4))
	for i := range c.template {
		c.template[i] = byte(rng.Uint32())
	}
	cd := floodCodec()
	for i := 0; i < liveNodes; i++ {
		h := floodLive()
		if traced {
			th := &tracedHandler{inner: h, on: &c.on}
			c.traced = append(c.traced, th)
			h = th
		}
		node, err := listenLive(nodeID(i), g.Neighbors(nodeID(i)), cd, h, seed+uint64(i), func(_ msgID, payload []byte) { c.delivered(i, payload) })
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes, c.handlers = append(c.nodes, node), append(c.handlers, h)
	}
	for _, a := range c.nodes {
		for j, b := range c.nodes {
			a.SetAddr(nodeID(j), b.Addr())
		}
	}
	// One transaction from every node dials every directed link, so no
	// timed transaction pays a connect.
	origins := make([]int, liveNodes)
	for i := range origins {
		origins[i] = i
	}
	if p := c.closedLoop(-liveNodes, origins); p.incomplete > 0 {
		c.close()
		return nil, fmt.Errorf("warm-up: %d of %d transactions did not reach every node", p.incomplete, liveNodes)
	}
	return c, nil
}

func (c *liveCluster) close() {
	for _, n := range c.nodes {
		_ = n.Close() // always nil
	}
}

// delivered is node's OnDeliver callback; it runs on that node's loop.
func (c *liveCluster) delivered(node int, payload []byte) {
	t := c.track.Load()
	if t == nil || len(payload) < 8 {
		return
	}
	tx := int(int64(binary.LittleEndian.Uint64(payload))) - t.first
	if tx < 0 || tx >= len(t.due) {
		return
	}
	t.at[node][tx] = int64(time.Since(c.epoch))
	if t.left[tx].Add(-1) == 0 {
		t.done <- struct{}{}
	}
}

// completed returns when tx reached the last of the nodes, if it has
// reached them all.
func (t *txTrack) completed(tx int) (last int64, ok bool) {
	if t.left[tx].Load() != 0 {
		return 0, false
	}
	for node := range t.at {
		last = max(last, t.at[node][tx])
	}
	return last, true
}

func (c *liveCluster) startPhase(first, n int) *txTrack {
	t := &txTrack{first: first, due: make([]int64, n), at: make([][]int64, liveNodes), left: make([]atomic.Int32, n), done: make(chan struct{}, n)}
	for i := range t.at {
		t.at[i] = make([]int64, n)
	}
	for i := range t.left {
		t.left[i].Store(liveNodes)
	}
	c.track.Store(t)
	return t
}

// inject hands transaction tx of the phase to its origin's event loop.
func (c *liveCluster) inject(t *txTrack, tx, origin int) {
	payload := slices.Clone(c.template)
	binary.LittleEndian.PutUint64(payload, uint64(int64(t.first+tx)))
	timing := c.on.Load()
	t0 := time.Now()
	c.nodes[origin].Inject(func(ctx nodeCtx) {
		if timing {
			c.mailbox[origin].since(t0)
		}
		if _, err := c.handlers[origin].Broadcast(ctx, payload); err != nil {
			c.refused.Add(1)
		}
	})
}

// barrier returns once every node's loop has run everything queued
// before the call, which orders the loops' counters before the caller.
func (c *liveCluster) barrier() {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		n.Inject(func(nodeCtx) { wg.Done() })
	}
	wg.Wait()
}

// livePhase is the outcome of one phase.
type livePhase struct {
	track      *txTrack
	elapsed    time.Duration
	incomplete int           // transactions that had not reached every node when the phase gave up
	maxLate    time.Duration // open loop: how far behind schedule the generator fell
}

// await waits for n more transactions to complete and reports whether
// they did; it gives up when none completes for liveStall.
func (p *livePhase) await(n int) bool {
	stall := time.NewTimer(liveStall)
	defer stall.Stop()
	for ; n > 0; n-- {
		select {
		case <-p.track.done:
			p.incomplete--
			stall.Reset(liveStall)
		case <-stall.C:
			return false
		}
	}
	return true
}

// inFlight is how many of the first `injected` transactions are still
// on their way, after taking in the completions already signalled.
func (p *livePhase) inFlight(injected int) int {
	for {
		select {
		case <-p.track.done:
			p.incomplete--
		default:
			return injected - (len(p.track.due) - p.incomplete)
		}
	}
}

// closedLoop keeps liveWindow transactions in flight, injecting the next
// when one has reached every node.
func (c *liveCluster) closedLoop(first int, origins []int) livePhase {
	p := livePhase{track: c.startPhase(first, len(origins)), incomplete: len(origins)}
	start := time.Now()
	for tx, origin := range origins {
		if tx >= liveWindow && !p.await(1) {
			return p
		}
		p.track.due[tx] = int64(time.Since(c.epoch))
		c.inject(p.track, tx, origin)
	}
	p.await(min(liveWindow, len(origins)))
	p.elapsed = time.Since(start)
	return p
}

// openLoop injects on a fixed schedule whatever the cluster does, short
// of liveBacklog in flight; every latency is taken from the instant the
// transaction was due, so a stall counts against everything queued
// behind it.
func (c *liveCluster) openLoop(first int, origins []int) livePhase {
	p := livePhase{track: c.startPhase(first, len(origins)), incomplete: len(origins)}
	start := time.Now()
	for tx, origin := range origins {
		due := start.Add(time.Duration(tx) * time.Second / liveRate)
		time.Sleep(time.Until(due))
		for p.inFlight(tx) >= liveBacklog {
			if !p.await(1) {
				return p
			}
		}
		p.maxLate = max(p.maxLate, time.Since(due))
		p.track.due[tx] = int64(due.Sub(c.epoch))
		c.inject(p.track, tx, origin)
	}
	p.await(p.inFlight(len(origins)))
	p.elapsed = time.Since(start)
	return p
}

// latencies returns, for the phase's completed transactions, due →
// delivery at each node (pooled) and due → delivery at the last node.
func (p livePhase) latencies() (perNode, perTx []float64) {
	t := p.track
	for tx := range t.due {
		last, ok := t.completed(tx)
		if !ok {
			continue
		}
		for node := range t.at {
			perNode = append(perNode, float64(t.at[node][tx]-t.due[tx])/1e6)
		}
		perTx = append(perTx, float64(last-t.due[tx])/1e9)
	}
	slices.Sort(perNode)
	return perNode, perTx
}

// livePass is phase A then phase B and the wire counters across both.
type livePass struct {
	a, b          livePhase
	frames, bytes int64
	dropped       int64
	agg           layerAgg
	mailbox       callStat
}

func (c *liveCluster) stats() (s liveStats) {
	for _, n := range c.nodes {
		o := liveStatsOf(n)
		s.txFrames += o.txFrames
		s.txFrameBytes += o.txFrameBytes
		s.txDropped += o.txDropped
	}
	return s
}

func (c *liveCluster) pass(first int, originsA, originsB []int, traced bool) livePass {
	c.barrier()
	before := c.stats()
	for _, th := range c.traced {
		th.reset()
	}
	clear(c.mailbox)
	c.on.Store(traced)
	var out livePass
	out.a = c.closedLoop(first, originsA)
	out.b = c.openLoop(first+len(originsA), originsB)
	c.on.Store(false)
	c.barrier()
	after := c.stats()
	out.frames, out.bytes, out.dropped = after.txFrames-before.txFrames, after.txFrameBytes-before.txFrameBytes, after.txDropped-before.txDropped
	for _, th := range c.traced {
		out.agg.merge(th.agg())
	}
	for _, m := range c.mailbox {
		out.mailbox.merge(m)
	}
	return out
}

// runLive16 is the only workload on real sockets: wire codec, transport
// peer writer and the kernel's loopback all run, and nothing else of the
// repository does.
func runLive16(o runOpts, rec *recorder) (*result, error) {
	setups, txA, secondsB := 15, 20_000, 5.0
	if o.small {
		setups, txA, secondsB = 1, 100, 0.1
	}
	res := newResult()
	var c *liveCluster
	setup, err := medianSetup(setups, rec, func(int) error {
		var err error
		c, err = newLiveCluster(o.seed, o.trace)
		return err
	}, func() { c.close() })
	if err != nil {
		return nil, err
	}
	defer c.close()
	res.setupS = setup.Seconds()

	share := float64(o.seconds) / 10
	if o.trace {
		share /= 2
	}
	nA := max(int(float64(txA)*share), liveWindow)
	nB := max(int(secondsB*share*liveRate), liveWindow)
	rng := rand.New(rand.NewPCG(o.seed, 5))
	origins := make([]int, nA+nB)
	for i := range origins {
		origins[i] = rng.IntN(liveNodes)
	}
	res.note("loopback TCP, %d nodes, %d-regular, %d B payloads; phase A closed loop window %d, %d tx; phase B open loop %d tx/s, %d tx, at most %d in flight, timed from due time; %d set-ups",
		liveNodes, liveDegree, livePayload, liveWindow, nA, liveRate, nB, liveBacklog, setups)

	plain := c.pass(0, origins[:nA], origins[nA:], false)
	check := func(p livePass, name string) {
		res.attempted += nA + nB
		refused := int(c.refused.Swap(0))
		if bad := p.a.incomplete + p.b.incomplete + int(p.dropped) + refused; bad > 0 {
			res.failed += bad
			res.note("%s pass: %d phase-A and %d phase-B transactions short of 16/16 nodes, %d frames dropped at a full send queue, %d broadcasts refused",
				name, p.a.incomplete, p.b.incomplete, p.dropped, refused)
		}
		if want := int64(nA+nB) * liveFramesPerTx; p.frames != want && p.a.incomplete+p.b.incomplete == 0 {
			res.fail("%s pass sent %d frames, want %d per tx = %d", name, p.frames, liveFramesPerTx, want)
		}
	}
	check(plain, "untraced")
	res.fingerprint = digest(fmt.Sprint(origins, plain.frames, plain.bytes))
	if res.failed > 0 {
		return res, nil
	}
	perNode, perTx := plain.b.latencies()
	if !o.trace {
		res.set("wall_s", median(perTx))
		res.set("events_per_s", float64(plain.frames)*float64(nA)/float64(nA+nB)/plain.a.elapsed.Seconds())
		res.set("broadcasts_per_s", float64(nA)/plain.a.elapsed.Seconds())
		res.set("sim_msgs_per_node_tx", float64(plain.frames)/liveNodes/float64(nA+nB))
		return res, nil
	}

	traced := c.pass(nA+nB, origins[:nA], origins[nA:], true)
	check(traced, "traced")
	if traced.frames != plain.frames || traced.bytes != plain.bytes {
		res.fail("traced pass put %d frames, %d B on the wire, untraced %d, %d", traced.frames, traced.bytes, plain.frames, plain.bytes)
	}
	shift := c.epoch.Sub(rec.epoch)
	for tx, origin := range origins {
		t, i := traced.a.track, tx
		if tx >= nA {
			t, i = traced.b.track, tx-nA
		}
		if last, ok := t.completed(i); ok {
			rec.add(span{Name: "live.tx", Start: time.Duration(t.due[i]) + shift, End: time.Duration(last) + shift, Parent: -1, ID: tx, Lane: 1 + origin})
		}
	}

	res.set("transport.frames", float64(plain.frames))
	res.set("transport.tx_dropped", float64(plain.dropped))
	res.set("wire.bytes_per_tx", float64(plain.bytes)/float64(nA+nB))
	res.set("flood.dup_share", 1-float64((liveNodes-1)*(nA+nB))/float64(plain.frames))
	// The live.* numbers are end-to-end in kind, so they come from the
	// untraced pass like every end-to-end number.
	res.set("live.tx_per_s", float64(nA)/plain.a.elapsed.Seconds())
	res.set("live.deliver_p50_ms", percentile(perNode, 0.50))
	res.set("live.deliver_p99_ms", percentile(perNode, 0.99))
	res.set("live.gen_late_ms", ms(plain.b.maxLate))
	res.set("transport.send_ns_per_msg", traced.agg.send.perCall())
	res.set("transport.handler_ns_per_msg", traced.agg.handler.perCall())
	res.set("flood.handler_self_ns_per_msg", traced.agg.handlerSelf().perCall())
	res.set("transport.mailbox_wait_us", traced.mailbox.perCall()/1e3)
	res.set("trace_overhead_pct", (traced.a.elapsed.Seconds()/plain.a.elapsed.Seconds()-1)*100)
	res.note("traced pass, summed over %d loops: handler %v of which ctx.Send %v, ctx.DeliverLocal %v; phase A %v, phase B %v",
		liveNodes, time.Duration(traced.agg.handler.ns), time.Duration(traced.agg.send.ns), time.Duration(traced.agg.deliver.ns), traced.a.elapsed, traced.b.elapsed)

	calls := 200_000
	if o.small {
		calls = 2000
	}
	for _, size := range []int{64, 256, 4096} {
		m, u, a := microWire(size, calls)
		res.set(fmt.Sprintf("wire.marshal_ns_%d", size), m)
		res.set(fmt.Sprintf("wire.unmarshal_ns_%d", size), u)
		res.set(fmt.Sprintf("wire.allocs_per_msg_%d", size), a)
	}
	return res, nil
}
