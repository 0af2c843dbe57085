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
// minimum possible link delay L. Each barrier round:
//
//  1. cross-shard deliveries parked in per-pair outboxes are pushed onto
//     their destination queues (every engine idle, so this is race-free);
//  2. the globally earliest pending event time B is found;
//  3. every shard executes its events with at < B+L concurrently.
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
// queues and outboxes, each node executes its events in exactly
// the single-loop order. Counters merge as exact integer sums; a
// delivery set needs no merge, because each shard writes only its own
// nodes' cells, each first delivery in time order. Every observable is
// therefore bit-identical at any shard count.

const maxDuration = time.Duration(math.MaxInt64)

// remoteEvent is one cross-shard delivery parked in an outbox between
// windows: the precomputed arrival time and ordering key (whose src is
// the sender) plus the delivery payload.
type remoteEvent struct {
	at  time.Duration
	key evKey
	dst proto.NodeID
	msg proto.Message
}

// shardState is everything one shard's goroutine owns during a window:
// its engine, its node range, its accounting cells, its observation log,
// and its outboxes toward every other shard.
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

	// outQ[j] holds deliveries destined for shard j, drained at the next
	// barrier. outQ[index] stays empty.
	outQ [][]remoteEvent

	// links is the FIFO state of the directed links outside the topology
	// that the shard's nodes sent on this run, each node's chained from
	// its cold cell (Network.linkSlot); reset rewinds it.
	links []linkArrival

	// Stats for -v diagnostics: windows executed, windows in which this
	// shard had no eligible event (lookahead stalls), and cross-shard
	// deliveries sent.
	windows  uint64
	stalls   uint64
	handoffs uint64
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
// queue capacity.
func (sh *shardState) reset() {
	sh.eng.Reset()
	sh.resetCounters()
	sh.lastID, sh.lastSet = proto.MsgID{}, nil
	clear(sh.obsLog) // drop message/payload references
	sh.obsLog = sh.obsLog[:0]
	for i := range sh.outQ {
		sh.outQ[i] = sh.outQ[i][:0]
	}
	sh.links = sh.links[:0]
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
			outQ:  make([][]remoteEvent, k),
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

// drainOutboxes pushes every parked cross-shard delivery onto its
// destination queue. Runs between windows with all engines idle; insertion
// order is irrelevant because the queue orders by the full event key.
func (n *Network) drainOutboxes() {
	for _, sh := range n.shards {
		for j, q := range sh.outQ {
			if len(q) == 0 {
				continue
			}
			eng := n.shards[j].eng
			for _, re := range q {
				eng.scheduleDeliver(re.at, re.key, re.dst, re.msg)
			}
			sh.outQ[j] = q[:0]
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
		n.drainOutboxes()
		minNext := maxDuration
		for _, sh := range n.shards {
			if at, ok := sh.eng.nextAt(); ok && at < minNext {
				minNext = at
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
// concurrently and returns the number of events executed.
func (n *Network) runWindow(horizon time.Duration) uint64 {
	ran := make([]uint64, len(n.shards))
	n.windowing = true
	var wg sync.WaitGroup
	for i, sh := range n.shards[1:] {
		wg.Add(1)
		go func(slot *uint64, sh *shardState) {
			defer wg.Done()
			*slot = sh.eng.runBefore(horizon)
		}(&ran[i+1], sh)
	}
	ran[0] = n.shards[0].eng.runBefore(horizon)
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
