package workload

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/topology"
	"repro/internal/visited"
	"time"
)

// Policy selects what a full admission queue does with a newcomer.
type Policy uint8

const (
	// DropOldest evicts the queue head to admit the newcomer — the
	// mempool default: fresh transactions displace stale ones.
	DropOldest Policy = iota
	// Reject refuses the newcomer and keeps the queue.
	Reject
	// Block defers the newcomer: the caller is told to retry later
	// (the sim wrapper re-offers on a timer; runtimes that cannot
	// block treat it as Reject).
	Block
)

// String renders the policy in ParsePolicy vocabulary.
func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case Reject:
		return "reject"
	case Block:
		return "block"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy parses a backpressure policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop-oldest", "":
		return DropOldest, nil
	case "reject":
		return Reject, nil
	case "block":
		return Block, nil
	}
	return 0, fmt.Errorf("workload: unknown policy %q (drop-oldest|reject|block)", s)
}

// AdmissionConfig parametrizes one node's admission layer.
type AdmissionConfig struct {
	// QueueCap bounds the pending-launch queue; 0 means unbounded
	// (admission still dedups and counts, but never drops).
	QueueCap int
	// Policy is the backpressure behavior at a full queue.
	Policy Policy
}

// Verdict is the admission decision for one offered submission.
type Verdict uint8

const (
	// Admitted: queued for launch (possibly evicting the oldest).
	Admitted Verdict = iota
	// Dup: the node has already admitted this MsgID.
	Dup
	// Rejected: dropped under backpressure (Reject policy).
	Rejected
	// Blocked: the queue is full and the policy asks the caller to
	// retry later; the submission is not marked seen.
	Blocked
)

// Stats are one node's admission counters, surfaced through node.Probe
// and the soak report.
type Stats struct {
	// Admitted counts submissions accepted into the queue.
	Admitted int64
	// Deduped counts submissions refused because their MsgID was
	// already admitted here.
	Deduped int64
	// Dropped counts submissions lost to backpressure: rejected
	// newcomers plus evicted queue heads.
	Dropped int64
	// PeakQueueDepth is the high-water pending-queue depth.
	PeakQueueDepth int
}

// Add folds o into s, taking the max of peaks — the aggregation the
// soak reports use across nodes.
func (s *Stats) Add(o Stats) {
	s.Admitted += o.Admitted
	s.Deduped += o.Deduped
	s.Dropped += o.Dropped
	if o.PeakQueueDepth > s.PeakQueueDepth {
		s.PeakQueueDepth = o.PeakQueueDepth
	}
}

// Pending is one admitted submission awaiting launch.
type Pending struct {
	// ID is the payload's message ID (dedup key).
	ID proto.MsgID
	// Payload is the transaction bytes to broadcast.
	Payload []byte
	// Seq is the schedule index that produced the submission (−1 for
	// submissions arriving outside a schedule, e.g. over the wire).
	Seq int
	// At is the submission's arrival instant — delivery latency is
	// measured from here, so queueing delay counts against the
	// protocol.
	At time.Duration
}

// Admission is one node's mempool-style front door: dedup against
// already-seen MsgIDs (a presence-bit visited table, shared across
// the network's nodes in simulation), a bounded FIFO ring of pending
// launches, and the backpressure policy. Not safe for concurrent use —
// it lives inside a handler, which runtimes never call concurrently.
type Admission struct {
	cfg  AdmissionConfig
	self proto.NodeID
	seen *visited.Table[struct{}]

	ring  []Pending
	head  int
	count int
	stats Stats
}

// NewAdmission builds the layer for node self. seen is the dedup
// table; nil allocates a private single-node table (the live-node
// form — simulation passes a Shared partition cell so a whole
// network's nodes share allocations).
func NewAdmission(cfg AdmissionConfig, self proto.NodeID, seen *visited.Table[struct{}]) *Admission {
	if seen == nil {
		seen = visited.NewTableRange[struct{}](int(self), int(self)+1)
	}
	return &Admission{cfg: cfg, self: self, seen: seen}
}

// Offer runs the admission decision for one submission. Only Admitted
// marks the MsgID seen: a Blocked retry or a Rejected resubmission can
// still enter later. An evicted queue head stays marked — it was
// admitted once, and a mempool does not re-admit transactions it chose
// to shed.
func (a *Admission) Offer(p Pending) Verdict {
	if vec := a.seen.Lookup(p.ID); vec != nil && vec.Has(a.self) {
		a.stats.Deduped++
		return Dup
	}
	if a.cfg.QueueCap > 0 && a.count == a.cfg.QueueCap {
		switch a.cfg.Policy {
		case Reject:
			a.stats.Dropped++
			return Rejected
		case Block:
			return Blocked
		default: // DropOldest
			a.pop()
			a.stats.Dropped++
		}
	}
	a.push(p)
	a.seen.Vec(p.ID).Mark(a.self)
	a.stats.Admitted++
	if a.count > a.stats.PeakQueueDepth {
		a.stats.PeakQueueDepth = a.count
	}
	return Admitted
}

// MarkSeen marks id as held without queueing or counting — the
// delivery-side hook: a payload this node received through gossip is
// already in its mempool, so later submissions of it dedup just like a
// locally admitted one.
func (a *Admission) MarkSeen(id proto.MsgID) {
	a.seen.Vec(id).Mark(a.self)
}

// Pop dequeues the oldest pending submission.
func (a *Admission) Pop() (Pending, bool) {
	if a.count == 0 {
		return Pending{}, false
	}
	return a.pop(), true
}

// Depth returns the current pending-queue depth.
func (a *Admission) Depth() int { return a.count }

// Stats returns the node's admission counters.
func (a *Admission) Stats() Stats { return a.stats }

func (a *Admission) push(p Pending) {
	if a.count == len(a.ring) {
		a.grow()
	}
	a.ring[(a.head+a.count)%len(a.ring)] = p
	a.count++
}

func (a *Admission) pop() Pending {
	p := a.ring[a.head]
	a.ring[a.head] = Pending{}
	a.head = (a.head + 1) % len(a.ring)
	a.count--
	return p
}

// grow doubles the ring, rotating the live window to the front.
func (a *Admission) grow() {
	size := len(a.ring) * 2
	if size == 0 {
		size = 8
	}
	if a.cfg.QueueCap > 0 && size > a.cfg.QueueCap {
		size = a.cfg.QueueCap
	}
	next := make([]Pending, size)
	for i := 0; i < a.count; i++ {
		next[i] = a.ring[(a.head+i)%len(a.ring)]
	}
	a.ring = next
	a.head = 0
}

// Shared is the network-wide admission dedup state for simulation:
// one presence-bit visited table per contiguous node range, following
// the flood.Shared partition pattern so that under the sharded event
// loop no two shards touch the same table. Reset it between trials on
// a reused network.
type Shared struct {
	n     int
	parts []*visited.Table[struct{}]
}

// NewShared returns dedup state for node IDs in [0, n).
func NewShared(n int) *Shared {
	s := &Shared{n: n}
	s.Partition(1)
	return s
}

// Partition splits the state into k contiguous node-range tables
// aligned with topology.ShardBounds. Call while idle (before handlers
// are built); partitioning more finely than the network's resolved
// shard count is harmless.
func (s *Shared) Partition(k int) {
	if k < 1 {
		k = 1
	}
	if k > s.n {
		k = s.n
	}
	bounds := topology.ShardBounds(s.n, k)
	s.parts = make([]*visited.Table[struct{}], k)
	for i := range s.parts {
		s.parts[i] = visited.NewTableRange[struct{}](int(bounds[i]), int(bounds[i+1]))
	}
}

// Table returns the partition cell covering node self — the seen table
// to hand that node's NewAdmission.
func (s *Shared) Table(self proto.NodeID) *visited.Table[struct{}] {
	return s.parts[topology.ShardOf(self, s.n, len(s.parts))]
}

// Reset invalidates all dedup state for the next trial.
func (s *Shared) Reset() {
	for _, t := range s.parts {
		t.Reset()
	}
}
