package visited

import (
	"testing"

	"repro/internal/proto"
)

func id(b byte) proto.MsgID {
	var m proto.MsgID
	m[0] = b
	return m
}

func TestMarkAndHas(t *testing.T) {
	tab := NewTable[struct{}](8)
	v := tab.Vec(id(1))
	if v.Has(3) {
		t.Fatal("fresh vec reports node 3 set")
	}
	if !v.Mark(3) {
		t.Fatal("first Mark reported already-set")
	}
	if v.Mark(3) {
		t.Fatal("second Mark reported first-set")
	}
	if !v.Has(3) || v.Has(4) {
		t.Fatal("Has does not reflect Mark")
	}
}

func TestSetGet(t *testing.T) {
	tab := NewTable[int](4)
	v := tab.Vec(id(1))
	if _, ok := v.Get(2); ok {
		t.Fatal("Get on unset cell reported ok")
	}
	if !v.Set(2, 42) {
		t.Fatal("first Set reported already-set")
	}
	if v.Set(2, 43) {
		t.Fatal("second Set reported first-set")
	}
	got, ok := v.Get(2)
	if !ok || got != 43 {
		t.Fatalf("Get = (%d, %v), want (43, true)", got, ok)
	}
}

// TestStaleEpochMisses is the reuse contract: after Reset, a recycled
// vector must report every cell unset even though the underlying stamp
// memory still holds the previous trial's marks.
func TestStaleEpochMisses(t *testing.T) {
	tab := NewTable[int](16)
	v1 := tab.Vec(id(1))
	for n := proto.NodeID(0); n < 16; n++ {
		v1.Set(n, int(n))
	}
	tab.Reset()

	v2 := tab.Vec(id(2))
	if v2 != v1 {
		t.Fatal("Reset did not recycle the vector through the free list")
	}
	for n := proto.NodeID(0); n < 16; n++ {
		if v2.Has(n) {
			t.Fatalf("stale stamp for node %d survived Reset", n)
		}
		if _, ok := v2.Get(n); ok {
			t.Fatalf("stale value for node %d readable after Reset", n)
		}
	}
	// And the same holds when the *same* message ID returns after Reset.
	tab.Reset()
	v3 := tab.Vec(id(1))
	if v3.Has(5) {
		t.Fatal("stale stamp readable for re-bound message ID")
	}
}

// TestConcurrentMessages checks that two live vectors are independent.
func TestConcurrentMessages(t *testing.T) {
	tab := NewTable[struct{}](8)
	a := tab.Vec(id(1))
	b := tab.Vec(id(2))
	a.Mark(1)
	b.Mark(2)
	if !a.Has(1) || a.Has(2) {
		t.Fatal("vec a corrupted by vec b")
	}
	if !b.Has(2) || b.Has(1) {
		t.Fatal("vec b corrupted by vec a")
	}
	if tab.Lookup(id(1)) != a || tab.Lookup(id(3)) != nil {
		t.Fatal("Lookup mismatch")
	}
}

// TestResetAllocFree verifies the steady-state contract: after warm-up,
// a bind→mark→reset cycle performs zero allocations.
func TestResetAllocFree(t *testing.T) {
	tab := NewTable[struct{}](64)
	tab.Vec(id(1)).Mark(0)
	tab.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		v := tab.Vec(id(1))
		v.Mark(3)
		v.Mark(7)
		tab.Reset()
	})
	if allocs > 0 {
		t.Fatalf("steady-state cycle allocates %v times", allocs)
	}
}

// TestEpochWraparound forces a vector's uint32 epoch over the wrap and
// checks that ancient stamps cannot alias the restarted epoch.
func TestEpochWraparound(t *testing.T) {
	tab := NewTable[struct{}](4)
	v := tab.Vec(id(1))
	v.Mark(0)
	// Simulate 4 billion rebinds: an ancient stamp happens to hold the
	// value the epoch restarts at, and the epoch is one step from wrap.
	v.stamps[1] = 1
	v.epoch = ^uint32(0)
	v.rebind()
	if v.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", v.epoch)
	}
	for n := proto.NodeID(0); n < 4; n++ {
		if v.Has(n) {
			t.Fatalf("stamp for node %d aliased across epoch wrap", n)
		}
	}
	v.Mark(2)
	if !v.Has(2) {
		t.Fatal("Mark after wrap not visible")
	}
}

// TestLiveVectorSurvivesOthersWrap pins the per-vector wrap semantics:
// a message mid-flight while another vector's epoch overflows must keep
// every mark (a table-global wrap that cleared all stamps would lose
// them).
func TestLiveVectorSurvivesOthersWrap(t *testing.T) {
	tab := NewTable[int](8)
	mid := tab.Vec(id(5))
	mid.Set(2, 22)
	w := tab.Vec(id(6))
	w.epoch = ^uint32(0)
	w.rebind() // wraps: clears only w's stamps
	if got, ok := mid.Get(2); !ok || got != 22 {
		t.Fatalf("live vector lost its mark across another vector's wrap: (%d, %v)", got, ok)
	}
	if w.Has(0) {
		t.Fatal("wrapped vector kept stale stamps")
	}
}

// collide returns the i-th of a family of IDs that share one cache slot:
// equal low bits, differing only above the slot index and in later bytes.
func collide(i int) proto.MsgID {
	var m proto.MsgID
	m[7] = byte(i) // the top byte of the word the slot is cut from
	m[8], m[15] = 0xa5, byte(i)
	return m
}

// TestCacheCollisions binds IDs that all map to one cache slot, so each
// lookup evicts the one before: every lookup must still return its own
// vector, and Vec must never bind a second vector for a known ID.
func TestCacheCollisions(t *testing.T) {
	tab := NewTable[int](4)
	vecs := make([]*Vec[int], 16)
	for i := range vecs {
		if slot(collide(i)) != slot(collide(0)) {
			t.Fatal("collide does not collide")
		}
		vecs[i] = tab.Vec(collide(i))
		vecs[i].Set(proto.NodeID(i%4), i)
	}
	for round := 0; round < 3; round++ {
		for i := len(vecs) - 1; i >= 0; i-- {
			if tab.Lookup(collide(i)) != vecs[i] || tab.Vec(collide(i)) != vecs[i] {
				t.Fatalf("round %d: ID %d resolved to another vector", round, i)
			}
			if got, ok := vecs[i].Get(proto.NodeID(i % 4)); !ok || got != i {
				t.Fatalf("round %d: ID %d reads (%d, %t)", round, i, got, ok)
			}
		}
	}
	// An unbound ID sharing the slot with a cached one misses.
	if tab.Lookup(collide(99)) != nil {
		t.Fatal("Lookup of an unbound colliding ID returned a vector")
	}
}

// TestCacheReset: after Reset no ID resolves — cached or not — and IDs
// bound again, the cached ones included, get fresh vectors with every
// cell unset.
func TestCacheReset(t *testing.T) {
	tab := NewTable[int](4)
	if tab.Lookup(id(1)) != nil {
		t.Fatal("Lookup on an empty table returned a vector")
	}
	ids := []proto.MsgID{id(1), id(2), collide(0), collide(1)}
	for _, m := range ids {
		tab.Vec(m).Set(3, 7)
	}
	tab.Reset()
	for _, m := range ids {
		if v := tab.Lookup(m); v != nil {
			t.Fatalf("Lookup(%v) after Reset returned a vector", m)
		}
	}
	seen := map[*Vec[int]]bool{}
	for _, m := range ids {
		v := tab.Vec(m)
		if seen[v] || v.Has(3) {
			t.Fatalf("Vec(%v) after Reset: shared %t, stale cell %t", m, seen[v], v.Has(3))
		}
		seen[v] = true
		if tab.Lookup(m) != v {
			t.Fatalf("Lookup(%v) after rebinding misses its vector", m)
		}
	}
}

// TestCacheZeroID: an empty cache entry reads as the zero ID with no
// vector, which is the right answer only while the zero ID is unbound.
// Bound, it must resolve to its own vector from any state of the caches.
func TestCacheZeroID(t *testing.T) {
	tab := NewTable[int](4)
	var zero proto.MsgID
	if tab.Lookup(zero) != nil {
		t.Fatal("unbound zero ID resolved on an empty table")
	}
	other := tab.Vec(collide(1)) // zero's slot, and the last ID
	if tab.Lookup(zero) != nil {
		t.Fatal("unbound zero ID resolved beside a bound one")
	}
	z := tab.Vec(zero)
	if z == other {
		t.Fatal("zero ID bound to another ID's vector")
	}
	for _, m := range []proto.MsgID{collide(1), zero, id(3), zero, collide(1), collide(2), zero} {
		tab.Vec(m)
		if tab.Lookup(zero) != z {
			t.Fatalf("zero ID lost its vector after a lookup of %v", m)
		}
	}
}
