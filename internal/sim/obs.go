package sim

import (
	"time"

	"repro/internal/proto"
)

// Per-shard observer merge: how taps ride the sharded event loop.
//
// A registered Tap observes one globally ordered callback stream —
// every OnSend as the sender's handler emits it, every OnReceive as the
// engine dispatches the arrival, every OnDeliverLocal on a node's first
// local delivery. A single loop produces that stream natively. The
// sharded runtime instead has each shard append its callbacks to a
// bounded per-shard observation log, tagged with the shard-invariant
// key of the event being executed — (at, packed (src, seq) tag) from
// engine.go, plus an intra-event counter over the callbacks that event
// emitted — and the coordinator k-way merges the logs at every barrier
// window, replaying the callbacks into the registered taps in exactly
// the single-loop global order. Taps therefore no longer clamp
// `resolveShards` to one loop: they see a bit-identical stream at any
// shard count.
//
// Why the merge is exact. Within one shard, the log is the shard's
// event pop order restricted to callback-emitting events — a
// subsequence of the single-loop execution order (the §2g determinism
// argument). Across shards the merge compares only the HEADS of the
// logs by (at, tag, sub). That is deliberately not a global sort: an
// event can schedule a same-instant child (a zero-delay timer) whose
// tag is *smaller* than its creator's, and the single loop runs that
// child after its creator anyway. Execution order is key order only
// among events that are simultaneously available in a heap — exactly
// the comparison a head merge performs, provided this availability
// invariant holds: a logged entry whose tag is smaller than that of one
// of its same-instant causal ancestors comes after an entry of that
// ancestor in the same log. The head of each shard's log is then the
// smallest-key event that shard could execute next, so the global
// minimum over heads is the event the single loop would pop — by
// induction the merged stream equals the single-loop stream, callback
// for callback, timestamp for timestamp.
//
// The invariant holds without any bookkeeping of its own, because only
// a delivery can create a same-instant child with a smaller tag:
//   - a send's arrival lies at least one lookahead (> 0) after the send,
//     so every same-instant child is a zero-delay timer at the node that
//     is executing, keyed (that node, its next sequence);
//   - a timer's child therefore has the same source and a larger
//     sequence, so a chain of timers only climbs;
//   - a control event's ctlSrc sorts before every node, so its child is
//     larger too.
// A delivery of (u, s) at node v < u is the one event whose child (v, s')
// drops below it, and everything that child schedules in the same
// instant stays at v, below (u, s). Two cases cover every run. With an
// unscoped tap registered, every delivery to a live node logs its
// receive before its handler runs, so the ancestor has its entry. With
// only SpyTaps, nothing but receives is logged (below), and a
// same-instant child is never a receive, so no such entry exists.
// TestShardedTapSameInstantChild builds the case: a receiver arming a
// zero-delay timer that sends, beside a same-instant event on another
// shard keyed between the two, under both kinds of tap.
//
// Control events need one more property: keys must be globally unique.
// Node events are — (src, seq) is a per-node schedule counter. Every
// control event of a network (churn injection, At, InjectTimerAt) draws
// its seq from one network-level counter in call order (Network.At), so
// no two shards assign the same (at, ctlSrc, seq), and the sequence is
// the one a single loop assigns.
//
// What is logged. Every registered tap gets OnReceive; only taps without
// Spies (the unscoped ones) get OnSend and OnDeliverLocal. So with only
// SpyTaps registered a window parks nothing but the receives at watched
// nodes — for a 1 % spy set, about one entry in two hundred of the full
// stream. The merged stream is then the single-loop stream restricted
// to the kept callbacks — exactly what a single loop fires.
//
// Driver-phase callbacks — sends and local deliveries during Start,
// Originate or between RunUntil calls, when every engine is idle —
// fire into the taps directly, in call order, exactly where they fall
// in the single-loop stream (before any event of the next window).

// obsKind discriminates one observation-log entry.
type obsKind uint8

const (
	// obsSend replays Tap.OnSend.
	obsSend obsKind = iota
	// obsRecv replays Tap.OnReceive.
	obsRecv
	// obsDeliver replays Tap.OnDeliverLocal. Only first deliveries are
	// logged: the executing shard has already written the record.
	obsDeliver
)

// obsEntry is one parked observation: the ordering key (at, tag, sub)
// of the emitting event plus the callback payload.
type obsEntry struct {
	at   time.Duration // executing event's fire time == callback timestamp
	tag  uint64        // executing event's packed (src, seq) ordering tag
	sub  uint32        // intra-event callback index
	kind obsKind

	from, to proto.NodeID
	msg      proto.Message
	id       proto.MsgID // obsDeliver
	payload  []byte      // obsDeliver
}

// obsBefore orders two entries by the merged-stream key.
func obsBefore(a, b *obsEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.sub < b.sub
}

// logObs appends one entry to the executing node's shard log, stamping
// it with the engine's current event key and bumping the intra-event
// callback counter.
func logObs(node *simNode, e obsEntry) {
	eng := node.eng
	e.at, e.tag, e.sub = eng.now, eng.curTag, eng.curSub
	eng.curSub++
	sh := node.shard
	sh.obsLog = append(sh.obsLog, e)
}

// tapRecv reports a delivery to the taps — directly in a single loop,
// via the shard log during a sharded window. Called from the engine's
// delivery dispatch only when node is watched or an unscoped tap is
// registered.
func (n *Network) tapRecv(node *simNode, at time.Duration, src proto.NodeID, msg proto.Message) {
	if n.windowing {
		logObs(node, obsEntry{kind: obsRecv, from: src, to: node.id, msg: msg})
		return
	}
	for _, tap := range n.taps {
		tap.OnReceive(at, src, node.id, msg)
	}
}

// tapSend reports a send attempt (pre-drop, sender clock) to the taps
// without Spies. Called from Network.send only when there is one.
func (n *Network) tapSend(from *simNode, at time.Duration, to proto.NodeID, msg proto.Message) {
	if n.windowing {
		logObs(from, obsEntry{kind: obsSend, from: from.id, to: to, msg: msg})
		return
	}
	for _, tap := range n.unscoped {
		tap.OnSend(at, from.id, to, msg)
	}
}

// replayObs k-way head-merges the shard observation logs and fires the
// parked callbacks into the taps in single-loop global order, then
// truncates the logs. Runs on the coordinator between windows (every
// shard idle); the logs are bounded by one barrier window's events.
func (n *Network) replayObs() {
	shards := n.shards
	pending := 0
	for _, sh := range shards {
		pending += len(sh.obsLog)
	}
	if pending == 0 {
		return
	}
	if cap(n.obsCur) < len(shards) {
		n.obsCur = make([]int, len(shards))
	}
	cur := n.obsCur[:len(shards)]
	for i := range cur {
		cur[i] = 0
	}
	for {
		best := -1
		for i, sh := range shards {
			if cur[i] >= len(sh.obsLog) {
				continue
			}
			if best < 0 || obsBefore(&sh.obsLog[cur[i]], &shards[best].obsLog[cur[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		en := &shards[best].obsLog[cur[best]]
		cur[best]++
		n.fireObs(en)
	}
	for _, sh := range shards {
		clear(sh.obsLog) // drop msg/payload references
		sh.obsLog = sh.obsLog[:0]
	}
}

// fireObs replays one merged entry into the registered taps.
func (n *Network) fireObs(en *obsEntry) {
	switch en.kind {
	case obsSend:
		for _, tap := range n.unscoped {
			tap.OnSend(en.at, en.from, en.to, en.msg)
		}
	case obsRecv:
		for _, tap := range n.taps {
			tap.OnReceive(en.at, en.from, en.to, en.msg)
		}
	case obsDeliver:
		for _, tap := range n.unscoped {
			tap.OnDeliverLocal(en.at, en.to, en.id, en.payload)
		}
	}
}
