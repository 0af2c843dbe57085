package visited

import (
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

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

// wordNodes returns nodes 0, 63, 64 and n-1 of an n-wide range, the
// ones in range and each once: the first and last bits of the first two
// presence words and the range's last cell.
func wordNodes(n int) []int {
	var out []int
	for _, i := range []int{0, 63, 64, n - 1} {
		if i < n && !slices.Contains(out, i) {
			out = append(out, i)
		}
	}
	return out
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// checkCells holds every cell of a vector over [lo, lo+n) to want: set
// exactly for the nodes in want, with Get returning want's value where
// it is not negative. Nodes just outside the range must panic, those in
// the last word's padding included.
func checkCells(t *testing.T, v *Vec[int], lo, n int, want map[int]int) {
	t.Helper()
	for i := 0; i < n; i++ {
		node := proto.NodeID(lo + i)
		w, in := want[i]
		got, ok := v.Get(node)
		if v.Has(node) != in || ok != in || (in && w >= 0 && got != w) {
			t.Fatalf("lo=%d n=%d cell %d: Has %t, Get (%d, %t); want set %t value %d", lo, n, i, v.Has(node), got, ok, in, w)
		}
	}
	for _, node := range []proto.NodeID{proto.NodeID(lo - 1), proto.NodeID(lo + n), proto.NodeID(lo + n + 1)} {
		if !panics(func() { v.Has(node) }) || !panics(func() { v.Mark(node) }) {
			t.Fatalf("lo=%d n=%d: node %d outside the range did not panic", lo, n, node)
		}
	}
}

// TestWordBoundaries marks and sets the cells at the edges of presence
// words — 0, 63, 64 and n-1 — for widths around one and two words, and
// checks that no neighbouring cell reads set.
func TestWordBoundaries(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		tab := NewTable[int](n)
		marked, set := tab.Vec(id(1)), tab.Vec(id(2))
		want := map[int]int{}
		for _, i := range wordNodes(n) {
			if !marked.Mark(proto.NodeID(i)) || marked.Mark(proto.NodeID(i)) {
				t.Fatalf("n=%d: Mark(%d) did not report first then repeat", n, i)
			}
			if !set.Set(proto.NodeID(i), 100+i) || set.Set(proto.NodeID(i), 200+i) {
				t.Fatalf("n=%d: Set(%d) did not report first then repeat", n, i)
			}
			want[i] = 200 + i
		}
		checkCells(t, set, 0, n, want)
		for i := range want {
			want[i] = -1 // Mark leaves the value alone
		}
		checkCells(t, marked, 0, n, want)
	}
}

// TestRangeTableOffWordBase: a range table whose base is no multiple of
// 64 indexes its bits from the base, not from node 0.
func TestRangeTableOffWordBase(t *testing.T) {
	const lo, hi = 37, 200
	tab := NewTableRange[int](lo, hi)
	v := tab.Vec(id(1))
	want := map[int]int{}
	for _, i := range append(wordNodes(hi-lo), 26, 27) { // 26, 27: nodes 63, 64
		v.Set(proto.NodeID(lo+i), i)
		want[i] = i
	}
	checkCells(t, v, lo, hi-lo, want)
}

// TestRecycledVecReadsUnset: a vector recycled after Reset reads every
// cell unset, whatever the previous trial set, for a pure seen-set and a
// valued vector alike.
func TestRecycledVecReadsUnset(t *testing.T) {
	const n = 130
	seen := NewTable[struct{}](n)
	vals := NewTable[int](n)
	s1, v1 := seen.Vec(id(1)), vals.Vec(id(1))
	for i := proto.NodeID(0); i < n; i++ {
		s1.Mark(i)
		v1.Set(i, int(i))
	}
	seen.Reset()
	vals.Reset()
	s2, v2 := seen.Vec(id(2)), vals.Vec(id(2))
	if s2 != s1 || v2 != v1 {
		t.Fatal("Reset did not recycle the vectors through the free list")
	}
	for i := proto.NodeID(0); i < n; i++ {
		if s2.Has(i) {
			t.Fatalf("seen-set: node %d reads set after recycling", i)
		}
	}
	if !panics(func() { s2.Mark(n) }) || !panics(func() { s2.Has(n + 1) }) {
		t.Fatal("seen-set: a node in the last word's padding did not panic")
	}
	checkCells(t, v2, 0, n, nil)
}

// TestVecLayout pins DESIGN §2b's claim that a vector's header — range
// base and the bit and value slices — stays within one cache line.
func TestVecLayout(t *testing.T) {
	if s := unsafe.Sizeof(Vec[struct{}]{}); s > 64 {
		t.Errorf("Vec[struct{}] is %d bytes; want ≤ 64", s)
	}
	if s := unsafe.Sizeof(Vec[*int]{}); s > 64 {
		t.Errorf("Vec[*int] is %d bytes; want ≤ 64", s)
	}
}

// runVecOps drives a range table with a byte-coded stream of binds,
// marks, sets, lookups, reads and resets, and checks every answer
// against a map oracle: per live message, the set nodes and their
// values, -1 for a node only marked since binding (its value is
// whatever the recycled cell held). The first two bytes pick the range
// base and width.
func runVecOps(t testing.TB, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	lo, n := 3*int(next()), 1+int(next())
	tab := NewTableRange[int](lo, lo+n)
	oracle := map[proto.MsgID]map[proto.NodeID]int{}
	vecs := map[proto.MsgID]*Vec[int]{}
	msg := func() proto.MsgID {
		b := next() % 16
		if b < 8 {
			return id(b)
		}
		return collide(int(b))
	}
	node := func() proto.NodeID { return proto.NodeID(lo + int(next())%n) }
	bind := func(m proto.MsgID) *Vec[int] {
		v := tab.Vec(m)
		if old, ok := vecs[m]; ok && old != v {
			t.Fatalf("Vec(%v) rebound a live message", m)
		}
		if _, ok := oracle[m]; !ok {
			oracle[m] = map[proto.NodeID]int{}
		}
		vecs[m] = v
		return v
	}
	check := func(m proto.MsgID, nd proto.NodeID) {
		v := tab.Lookup(m)
		if v != vecs[m] {
			t.Fatalf("Lookup(%v) = %p, want %p", m, v, vecs[m])
		}
		if v == nil {
			return
		}
		w, in := oracle[m][nd]
		got, ok := v.Get(nd)
		if v.Has(nd) != in || ok != in || (in && w >= 0 && got != w) {
			t.Fatalf("%v node %d: Has %t Get (%d, %t), want set %t value %d", m, nd, v.Has(nd), got, ok, in, w)
		}
	}
	for len(data) > 0 {
		switch op := next(); op % 8 {
		case 0:
			bind(msg())
		case 1, 2:
			m, nd := msg(), node()
			_, in := oracle[m][nd]
			if bind(m).Mark(nd) == in {
				t.Fatalf("%v node %d: Mark first = %t, oracle set %t", m, nd, !in, in)
			}
			if !in {
				oracle[m][nd] = -1
			}
		case 3:
			m, nd, val := msg(), node(), int(next())
			_, in := oracle[m][nd]
			if bind(m).Set(nd, val) == in {
				t.Fatalf("%v node %d: Set first = %t, oracle set %t", m, nd, !in, in)
			}
			oracle[m][nd] = val
		case 4, 5:
			check(msg(), node())
		case 6:
			if next()%4 == 0 {
				tab.Reset()
				clear(oracle)
				clear(vecs)
			}
		case 7: // outside the range, on either side: must panic
			if v := tab.Lookup(msg()); v != nil {
				nd := proto.NodeID(lo + n + int(next()%70))
				if op&8 != 0 {
					nd = proto.NodeID(lo - 1 - int(next()%70))
				}
				if !panics(func() { v.Mark(nd) }) {
					t.Fatalf("Mark(%d) outside [%d,%d) did not panic", nd, lo, lo+n)
				}
			}
		}
	}
	for m := range vecs {
		for i := 0; i < n; i++ {
			check(m, proto.NodeID(lo+i))
		}
	}
}

// TestVecOpsDifferential replays seeded random streams through runVecOps.
func TestVecOpsDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewPCG(seed, 41))
		data := make([]byte, 2000)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		runVecOps(t, data)
	}
}

// FuzzVecOps is the differential driver over arbitrary op streams.
func FuzzVecOps(f *testing.F) {
	f.Add([]byte{12, 129, 1, 3, 63, 3, 11, 64, 7, 4, 3, 64, 6, 0, 0, 2, 2, 1})
	f.Add([]byte{0, 0, 1, 0, 0, 7, 0, 1, 4, 0, 0})
	f.Add([]byte{255, 255, 3, 9, 255, 1, 2, 9, 0, 5, 9, 0, 15, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		runVecOps(t, data)
	})
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
