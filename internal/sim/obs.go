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
// tag is *smaller* than its creator's, so execution order is key order
// only among events that are simultaneously available in a heap —
// exactly the comparison a head merge performs. The availability
// invariant that makes the head merge correct is: every same-instant
// causal ancestor of a logged entry has an entry of its own. Ancestors
// that emit callbacks have one naturally; ancestors that merely
// schedule a same-instant child are pinned with a zero-cost marker
// entry (tapMark, called from the zero-delay schedule paths). With the
// invariant in place, the head of each shard's log is the smallest-key
// event that shard could execute next, so the global minimum over
// heads is the event the single loop would pop — by induction the
// merged stream equals the single-loop stream, callback for callback,
// timestamp for timestamp.
//
// Control events need one more property: keys must be globally unique.
// Node events are — (src, seq) is a per-node schedule counter — but
// each engine has its own control stream, and two engines' control
// events could collide on (at, ctlSrc, seq). Network-scheduled control
// events (churn injection, InjectTimer/InjectTimerAt) therefore draw
// from a network-level control counter when the run is sharded
// (Network.scheduleCtl): one shared counter assigned in schedule-call
// order, which is exactly the per-engine order a single loop would
// have assigned. Engine.Schedule keeps the per-engine counter for
// standalone engines; it is unreachable on a sharded network
// (Network.Engine panics there).
//
// What is logged. Every registered tap gets OnReceive; only taps without
// Spies (the unscoped ones) get OnSend and OnDeliverLocal. So with only
// SpyTaps registered a window parks nothing but the receives at watched
// nodes and the availability markers — for a 1 % spy set, about one
// entry in two hundred of the full stream. Dropping the rest keeps the
// head merge exact. The invariant above needs an entry for every
// same-instant causal ancestor of a kept entry. A send's arrival lies at
// least one lookahead (> 0) after the send, so no event is such an
// ancestor through a message it sends; the only same-instant links are
// zero-delay timers, and tapMark pins their creators whenever any tap is
// registered, whatever the taps want. The merged stream is then the
// single-loop stream restricted to the kept callbacks — exactly what a
// single loop fires.
//
// Driver-phase callbacks — sends and local deliveries during Start,
// Originate or between RunUntil calls, when every engine is idle —
// fire into the taps directly, in call order, exactly where they fall
// in the single-loop stream (before any event of the next window).

// obsKind discriminates one observation-log entry.
type obsKind uint8

const (
	// obsMark pins a callback-free event in the log so the head merge
	// sees its position (availability invariant above). Replays nothing.
	obsMark obsKind = iota
	// obsSend replays Tap.OnSend.
	obsSend
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

// tapMark pins the currently executing event in the observation log
// when it schedules a same-instant child (the availability invariant):
// inside a sharded window, whenever any tap — spy or not — is
// registered. No-op otherwise.
func (n *Network) tapMark(node *simNode) {
	if !n.windowing || len(n.taps) == 0 {
		return
	}
	logObs(node, obsEntry{kind: obsMark})
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
