package sim

import (
	"math"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/topology"
)

// Sharded execution: the node set splits into contiguous ID ranges
// (topology.ShardBounds), each range owning a private Engine, and the
// loops advance in lockstep windows under conservative lookahead — the
// minimum possible link delay L. A cross-shard delivery is appended, as
// the queue's own entry, to the sender shard's outbox toward its
// destination: a chunk list of the sending engine that tracks its
// earliest arrival as a bucket does. Each barrier round, with every
// engine idle, moves only pointers:
//
//  1. each inbox, drained and scrubbed in the window just run, returns
//     its chunks to the engine that filled them, below that engine's
//     dirty spares, and each outbox becomes its destination's inbox;
//  2. the globally earliest pending time B is found over every engine's
//     next event and every inbox's earliest arrival;
//  3. every shard, concurrently, pushes its inboxes onto its own engine
//     and executes its events with at < B+L.
//
// A run that stops with arrivals past its deadline pushes them into
// their engines before it returns, so between runs every event sits in
// an engine; Reset returns every outbox and inbox chunk to its owner.
//
// Safety: an event executing in the window can only schedule cross-shard
// arrivals at ≥ B+L (its own time is ≥ B, the link adds ≥ L, and the
// FIFO clamp only moves arrivals later), i.e. at or beyond the window's
// exclusive bound — so no shard can receive a message that should have
// sorted inside a window it already executed. Events at exactly B+L wait
// for the next barrier because an arrival AT B+L may still be in flight
// and must win a same-instant tie via the ordering key, not via
// execution luck.
//
// Determinism: every event carries the shard-invariant key
// (at, src, seq) — fire time, scheduling node, per-node counter (see
// engine.go). The key is a total order and a pure function of event
// provenance, so however deliveries are distributed across engine
// queues and inboxes, and in whatever order they are pushed, each node
// executes its events in exactly the single-loop order. Counters merge
// as exact integer sums; a delivery set needs no merge, because each
// shard writes only its own nodes' cells, each first delivery in time
// order. Every observable is therefore bit-identical at any shard count.

const maxDuration = time.Duration(math.MaxInt64)

// shardState is everything one shard's goroutine owns during a window:
// its engine, its node range, its accounting cells, its observation log,
// and its outboxes toward and inboxes from every other shard.
type shardState struct {
	index  int32
	lo, hi int32 // node-ID range [lo, hi)
	eng    *Engine

	// Accounting (mirrors the pre-shard Network fields; summed on read).
	counters     [256]*counterPage
	totalMsgs    int64
	totalByte    int64
	netemDropped int64

	// lastID/lastSet cache the delivery set this shard looked up last
	// (Network.deliverySet).
	lastID  proto.MsgID
	lastSet *DeliverySet

	// obsLog is the shard's observation log: tap callbacks (and
	// availability markers) parked during a window, keyed by the
	// executing event, k-way merged and replayed into the taps at the
	// barrier (obs.go). Bounded by one window's events.
	obsLog []obsEntry

	// out[j] collects the window's deliveries to shard j in chunks of
	// this shard's engine; at the barrier it becomes shard j's in[index].
	// in[i] holds what shard i handed over at the last barrier: this
	// shard pushes it onto its engine at the start of its window, and the
	// next barrier returns the chunks to shard i's engine. out[index] and
	// in[index] stay empty.
	out []bucket
	in  []inbox

	// links is the FIFO state of the directed links outside the topology
	// that the shard's nodes sent on this run, each node's chained from
	// its cold cell (Network.linkSlot); spill holds the per-type sequence
	// counters past the first of every link the shard's nodes send on
	// (linkStream). reset rewinds both.
	links []linkArrival
	spill []streamSeq

	// Stats for -v diagnostics: windows executed, windows in which this
	// shard had no eligible event (lookahead stalls), and cross-shard
	// deliveries sent.
	windows  uint64
	stalls   uint64
	handoffs uint64
}

// inbox is an outbox handed over at a barrier, plus the last of its
// chunks, which the drain finds so that the chunks go home in one splice.
type inbox struct {
	bucket
	tail *chunk
}

// counter returns the shard's accounting cell for a type, allocating its
// page on first use.
func (sh *shardState) counter(t proto.MsgType) *typeCounter {
	page := sh.counters[t>>8]
	if page == nil {
		page = new(counterPage)
		sh.counters[t>>8] = page
	}
	return &page[t&0xff]
}

func (sh *shardState) resetCounters() {
	sh.totalMsgs, sh.totalByte, sh.netemDropped = 0, 0, 0
	for _, page := range sh.counters {
		if page != nil {
			*page = counterPage{}
		}
	}
}

// reset rewinds the shard for a fresh run, keeping engine arenas and
// queue capacity. The handoff chunks must be home first
// (Network.reclaimHandoff): the engine scrubs only its own.
func (sh *shardState) reset() {
	sh.eng.Reset()
	sh.resetCounters()
	sh.lastID, sh.lastSet = proto.MsgID{}, nil
	clear(sh.obsLog) // drop message/payload references
	sh.obsLog = sh.obsLog[:0]
	sh.links = sh.links[:0]
	sh.spill = sh.spill[:0]
	sh.windows, sh.stalls, sh.handoffs = 0, 0, 0
}

// ShardStats describes one shard's share of a run.
type ShardStats struct {
	Shard    int           // shard index
	Nodes    int           // node count in the shard's range
	Events   uint64        // events executed by the shard's engine
	Windows  uint64        // barrier windows participated in
	Stalls   uint64        // windows with no eligible event (lookahead stalls)
	Handoffs uint64        // cross-shard deliveries sent
	Clock    time.Duration // shard virtual clock (equal across shards between runs)

	// Event-queue cost (engine.go): bucket redistributions, entries they
	// moved to a lower bucket (QueueMoves/Events is the radix overhead per
	// event; 0 when every wave lands on one tick), and the largest run one
	// redistribution had to sort.
	QueueRefills uint64
	QueueMoves   uint64
	QueueMaxRun  int
}

// ShardStats returns per-shard run statistics, indexed by shard.
func (n *Network) ShardStats() []ShardStats {
	out := make([]ShardStats, len(n.shards))
	for i, sh := range n.shards {
		out[i] = ShardStats{
			Shard:    i,
			Nodes:    int(sh.hi - sh.lo),
			Events:   sh.eng.Steps(),
			Windows:  sh.windows,
			Stalls:   sh.stalls,
			Handoffs: sh.handoffs,
			Clock:    sh.eng.Now(),

			QueueRefills: sh.eng.refills,
			QueueMoves:   sh.eng.moves,
			QueueMaxRun:  sh.eng.maxRun,
		}
	}
	return out
}

// resolveShards picks the effective shard count and builds the shard
// layout, once, at NewNetwork: the count depends only on the options and
// the node count. No link decision depends on execution order (a stored
// delay, or Shaper.Decide on per-link sequences), so the request is
// honored unless:
//
//   - the profile's minimum link delay — the conservative lookahead —
//     is not positive; or
//   - there are fewer nodes than shards.
//
// Registered taps do not clamp: the per-shard observation logs replay
// the merged single-loop callback stream at every barrier (obs.go).
// Shard 0 owns n.engine, so a clamped network runs on the one engine a
// single-loop network always had.
func (n *Network) resolveShards() {
	k := n.opts.Shards
	n.lookahead = n.opts.Netem.MinDelay()
	if k <= 1 || n.lookahead <= 0 || len(n.nodes) < k {
		k, n.lookahead = 1, 0
	}
	bounds := topology.ShardBounds(len(n.nodes), k)
	n.shards = make([]*shardState, k)
	for i := range n.shards {
		eng := n.engine
		if i > 0 {
			eng = n.newEngine()
		}
		n.shards[i] = &shardState{
			index: int32(i),
			lo:    bounds[i],
			hi:    bounds[i+1],
			eng:   eng,
			out:   make([]bucket, k),
			in:    make([]inbox, k),
		}
		for v := bounds[i]; v < bounds[i+1]; v++ {
			n.nodes[v].eng, n.nodes[v].shard = eng, n.shards[i]
		}
	}
}

// newEngine returns an engine whose delivery entries resolve against
// this network's node table.
func (n *Network) newEngine() *Engine {
	e := NewEngine()
	e.net, e.nodes = n, n.nodes
	return e
}

// handOver is step 1 of a barrier, run with every engine idle: each
// inbox — drained and scrubbed by its shard in the window just run — goes
// back to the bottom of the free list of the engine that filled it, and
// each outbox becomes its destination's inbox.
func (n *Network) handOver() {
	for _, dst := range n.shards {
		for i, src := range n.shards {
			src.eng.freeClean(dst.in[i].top, dst.in[i].tail)
			dst.in[i], src.out[dst.index] = inbox{bucket: src.out[dst.index]}, bucket{}
		}
	}
}

// reclaimHandoff returns every outbox and inbox chunk, drained or not, to
// the free list of the engine of the shard that filled it — Reset's
// form: the engine scrubs them next.
func (n *Network) reclaimHandoff() {
	for _, src := range n.shards {
		for j, dst := range n.shards {
			src.eng.freeList(src.out[j].top)
			src.eng.freeList(dst.in[src.index].top)
			src.out[j], dst.in[src.index] = bucket{}, inbox{}
		}
	}
}

// drainInboxes pushes what the other shards handed over at the last
// barrier onto the shard's own engine. Insertion order is irrelevant
// because the queue orders by the full event key. Each chunk is scrubbed
// as soon as it is read, while its lines are hot and on this shard's
// goroutine, so the sender's Reset never visits it; the chunks then stay
// in the inboxes until the next barrier sends them home.
func (sh *shardState) drainInboxes() {
	for i := range sh.in {
		in := &sh.in[i]
		for c := in.top; c != nil; c = c.next {
			for j := range c.ents[:c.n] {
				sh.eng.push(c.ents[j])
			}
			c.ents, c.n, c.clean = [chunkLen]entry{}, 0, true
			in.tail = c
		}
	}
}

// runSharded drives the barrier loop until no event at or before
// deadline remains, then advances every shard clock to the deadline
// (mirroring the single-loop RunUntil contract; a drain-everything Run
// passes maxDuration and clocks settle at the last event time). Returns
// the number of events executed.
func (n *Network) runSharded(deadline time.Duration) uint64 {
	var total uint64
	for {
		n.handOver()
		minNext := maxDuration
		for _, sh := range n.shards {
			if at, ok := sh.eng.nextAt(); ok && at < minNext {
				minNext = at
			}
			for _, in := range sh.in {
				if in.top != nil && in.lo < minNext {
					minNext = in.lo
				}
			}
		}
		if minNext == maxDuration || minNext > deadline {
			break
		}
		// The window's exclusive bound: B+L, saturating, and never past
		// the (inclusive) deadline — events at exactly the deadline run,
		// so the bound is deadline+1 when that is expressible.
		horizon := minNext + n.lookahead
		if horizon < minNext {
			horizon = maxDuration
		}
		if limit := deadline; limit < maxDuration {
			if horizon > limit+1 {
				horizon = limit + 1
			}
		}
		total += n.runWindow(horizon)
		// Replay the window's parked observations into the taps before
		// anything else (including the next window) can run: the merge
		// needs all shards idle, and replaying per window keeps the logs
		// bounded.
		n.replayObs()
	}
	// Arrivals past the deadline go into their engines now, and their
	// chunks home, so between runs every event sits in an engine. The
	// outboxes are empty: the last barrier handed them all over.
	for _, sh := range n.shards {
		sh.drainInboxes()
	}
	n.handOver()
	// Synchronize clocks so post-run scheduling (Originate, At,
	// the next RunUntil) keys off one well-defined time at every shard.
	syncTo := deadline
	if syncTo == maxDuration {
		syncTo = 0
		for _, sh := range n.shards {
			if now := sh.eng.Now(); now > syncTo {
				syncTo = now
			}
		}
	}
	for _, sh := range n.shards {
		if syncTo > sh.eng.now {
			sh.eng.now = syncTo
		}
	}
	return total
}

// runWindow executes one barrier window [·, horizon) on every shard
// concurrently, each first pushing its inboxes onto its engine, and
// returns the number of events executed.
func (n *Network) runWindow(horizon time.Duration) uint64 {
	ran := make([]uint64, len(n.shards))
	n.windowing = true
	var wg sync.WaitGroup
	for i, sh := range n.shards[1:] {
		wg.Add(1)
		go func(slot *uint64, sh *shardState) {
			defer wg.Done()
			*slot = sh.window(horizon)
		}(&ran[i+1], sh)
	}
	ran[0] = n.shards[0].window(horizon)
	wg.Wait()
	n.windowing = false
	var total uint64
	for i, sh := range n.shards {
		sh.windows++
		if ran[i] == 0 {
			sh.stalls++
		}
		total += ran[i]
	}
	return total
}

// window is one shard's part of a barrier window, on its own goroutine.
func (sh *shardState) window(horizon time.Duration) uint64 {
	sh.drainInboxes()
	return sh.eng.runBefore(horizon)
}
