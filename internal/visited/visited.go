// Package visited provides dense per-(message, node) state — the
// allocation-free replacement for the per-node map[proto.MsgID]…
// seen-sets that protocol handlers otherwise build one per node per trial.
//
// The layout is inverted relative to the maps it replaces: instead of
// every node owning a map over message IDs, one network-wide Table owns,
// per in-flight message, a dense vector indexed by node ID. All handlers
// of one simulated network share the Table; the experiment trial loops
// reuse it across sequentially simulated networks of the same size.
//
// Validity is one presence bit per node, so a seen-set costs n/8 bytes
// a message. Binding a recycled vector to a new message clears its n/64
// presence words; resetting the table for a new trial clears nothing and
// is O(live messages), not O(nodes).
//
// Tables are not safe for concurrent use; under the parallel trial
// runner every worker goroutine owns its own Table, exactly as it owns
// its own sim.Network.
package visited

import (
	"encoding/binary"
	"fmt"

	"repro/internal/proto"
)

// Vec is the dense state of one message: one value cell and one
// presence bit per node in the owning Table's range. Obtain Vecs from a
// Table; the zero Vec is invalid. Accessing a node outside the Table's
// range panics — under the sharded event loop that is a
// partition-alignment bug, not a recoverable condition.
type Vec[T any] struct {
	lo   proto.NodeID // owning table's range base
	bits []uint64     // presence: bit i%64 of word i/64 is cell i
	vals []T
}

// cell returns the node's index, presence word and bit. It panics
// outside the range through vals: bits rounds the width up to words.
func (v *Vec[T]) cell(node proto.NodeID) (uint, *uint64, uint64) {
	i := uint(node - v.lo)
	_ = v.vals[i]
	return i, &v.bits[i/64], 1 << (i % 64)
}

// Has reports whether the node's cell was set since the vector was last
// (re)bound to a message.
func (v *Vec[T]) Has(node proto.NodeID) bool {
	_, w, m := v.cell(node)
	return *w&m != 0
}

// Get returns the node's value and whether it was set since the vector
// was last (re)bound to a message.
func (v *Vec[T]) Get(node proto.NodeID) (T, bool) {
	if i, w, m := v.cell(node); *w&m != 0 {
		return v.vals[i], true
	}
	var zero T
	return zero, false
}

// Set stores the node's value and sets its presence bit. It reports
// whether the cell was previously unset (i.e. the first Set for this
// node and message).
func (v *Vec[T]) Set(node proto.NodeID, val T) bool {
	i, w, m := v.cell(node)
	first := *w&m == 0
	*w |= m
	v.vals[i] = val
	return first
}

// Mark sets the node's bit without touching the value — the pure
// seen-set operation. It reports whether the cell was previously unset.
func (v *Vec[T]) Mark(node proto.NodeID) bool {
	_, w, m := v.cell(node)
	if *w&m != 0 {
		return false
	}
	*w |= m
	return true
}

// Table maps in-flight message IDs to their dense node vectors,
// recycling vectors through a free list so that steady-state operation —
// including Reset between trials — allocates nothing.
//
// Two caches sit in front of the map, so that a lookup that hits never
// hashes the ID again. The ID last put in the cache comes first: its
// address is fixed, so the CPU can load its vector before the ID it is
// compared with has arrived (a relay's ID is a cache miss at N=1M) and go
// on to the vector's bits. Then a direct-mapped cache: a message ID is
// already a hash, so its own low bits pick the slot. Both only ever hold
// live vectors — vectors leave the map only at Reset, which empties both
// — so an entry whose ID matches is the answer, and an empty one, whose
// ID is zero and vector nil, answers the zero ID correctly too: had a
// vector been bound to the zero ID since, the entry would not be empty.
type Table[T any] struct {
	lo    int // range base: the table covers node IDs [lo, lo+n)
	n     int
	live  map[proto.MsgID]*Vec[T]
	free  []*Vec[T]
	last  cached[T]
	cache *[cacheLen]cached[T]
}

// cached is one cache entry: a live message ID and its vector, or empty.
type cached[T any] struct {
	id proto.MsgID
	v  *Vec[T]
}

// cacheLen is the number of cache slots, a power of two: 6 KB a table.
// On soak2k's hundreds of live messages 256 slots miss 3.7 % of lookups
// and 1024 slots 0.9 %.
const cacheLen = 1 << 8

// slot returns the cache slot of an ID.
func slot(id proto.MsgID) uint64 {
	return binary.LittleEndian.Uint64(id[:8]) & (cacheLen - 1)
}

// NewTable returns a Table sized for node IDs in [0, n).
func NewTable[T any](n int) *Table[T] { return NewTableRange[T](0, n) }

// NewTableRange returns a Table covering node IDs [lo, hi) — the
// per-shard form: each shard of a partitioned network owns a range table
// over exactly its node range, so the partition's total memory matches
// one full-range table and no two shards ever touch the same cell.
func NewTableRange[T any](lo, hi int) *Table[T] {
	if lo < 0 || hi <= lo {
		panic(fmt.Sprintf("visited: table range [%d,%d)", lo, hi))
	}
	return &Table[T]{lo: lo, n: hi - lo, live: make(map[proto.MsgID]*Vec[T]), cache: new([cacheLen]cached[T])}
}

// N returns the node count the table was sized for (the range width).
func (t *Table[T]) N() int { return t.n }

// Lo returns the first node ID the table covers.
func (t *Table[T]) Lo() int { return t.lo }

// Lookup returns the message's vector, or nil if the message has no
// state yet.
func (t *Table[T]) Lookup(id proto.MsgID) *Vec[T] {
	if t.last.id == id {
		return t.last.v
	}
	return t.lookupSlot(id)
}

// lookupSlot is Lookup past the last ID: the cache slot, then the map.
// A vector it finds in the map goes into the slot and becomes the last; a
// hit in the slot leaves the last alone, sparing a store per lookup.
func (t *Table[T]) lookupSlot(id proto.MsgID) *Vec[T] {
	c := &t.cache[slot(id)]
	if c.id != id {
		v := t.live[id]
		if v == nil {
			return nil
		}
		*c = cached[T]{id, v}
		t.last = *c
	}
	return c.v
}

// Vec returns the message's vector, binding a recycled (or new) one on
// first use. Every cell of the returned vector starts unset.
func (t *Table[T]) Vec(id proto.MsgID) *Vec[T] {
	if v := t.Lookup(id); v != nil {
		return v
	}
	return t.bind(id)
}

// bind binds a recycled (or new) vector to a message that has none,
// clearing a recycled one's bits; a new one starts at zero.
func (t *Table[T]) bind(id proto.MsgID) *Vec[T] {
	var v *Vec[T]
	if n := len(t.free); n > 0 {
		v = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		clear(v.bits)
	} else {
		v = &Vec[T]{lo: proto.NodeID(t.lo), bits: make([]uint64, (t.n+63)/64), vals: make([]T, t.n)}
	}
	t.live[id] = v
	t.cache[slot(id)] = cached[T]{id, v}
	t.last = cached[T]{id, v}
	return v
}

// Reset invalidates every message's state — the start of a new trial
// over the same node count. Live vectors move to the free list with
// their bits and values in place; the next bind of each clears its n/64
// presence words, so Reset is O(live messages), not O(nodes). Stale
// values are unreachable but stay referenced until overwritten; callers that store pooled pointers
// should recycle those through their own free lists (see
// adaptive.Shared).
func (t *Table[T]) Reset() {
	for id, v := range t.live {
		t.cache[slot(id)] = cached[T]{}
		t.free = append(t.free, v)
		delete(t.live, id)
	}
	t.last = cached[T]{}
}

// Pool is the trial-scoped object pool that accompanies a Table:
// objects issued since the last Reset — tree states referenced from
// vectors — are reclaimed wholesale when the trial ends, so
// steady-state trial loops allocate nothing. Reset must only run once
// the network holding the issued objects is drained or discarded.
type Pool[T any] struct {
	newFn func() T
	scrub func(T) // drops cross-trial references before pooling
	free  []T
	live  []T
}

// NewPool returns a pool; scrub (optional) runs on every issued object
// at Reset, before it re-enters the free list — the place to nil out
// payload references so the pool does not pin trial garbage.
func NewPool[T any](newFn func() T, scrub func(T)) *Pool[T] {
	return &Pool[T]{newFn: newFn, scrub: scrub}
}

// Get returns a recycled (or new) object, valid until the next Reset.
func (p *Pool[T]) Get() T {
	var v T
	if n := len(p.free); n > 0 {
		v = p.free[n-1]
		var zero T
		p.free[n-1] = zero
		p.free = p.free[:n-1]
	} else {
		v = p.newFn()
	}
	p.live = append(p.live, v)
	return v
}

// Reset scrubs and reclaims every object issued since the last Reset.
func (p *Pool[T]) Reset() {
	for i, v := range p.live {
		if p.scrub != nil {
			p.scrub(v)
		}
		p.free = append(p.free, v)
		var zero T
		p.live[i] = zero
	}
	p.live = p.live[:0]
}

// Issued returns the number of objects handed out since the last Reset.
func (p *Pool[T]) Issued() int { return len(p.live) }

// Free returns the current free-list size.
func (p *Pool[T]) Free() int { return len(p.free) }
