package slab

import (
	"testing"
)

// TestTakeCutsDoNotAlias holds every lent slice to its own capacity, so
// an append to one never writes into the next.
func TestTakeCutsDoNotAlias(t *testing.T) {
	a := New[byte](16)
	x, y := a.Take(5), a.Take(5)
	if len(x) != 5 || cap(x) != 5 {
		t.Fatalf("Take(5) is len %d cap %d, want 5 and 5", len(x), cap(x))
	}
	y[0] = 7
	x = append(x, 9)
	if y[0] != 7 {
		t.Error("appending to one lent slice overwrote its neighbour")
	}
	_ = x
}

// TestRewindLendsTheSameMemory replays one request sequence after a
// Rewind: the same chunks serve it, a request that outgrows a chunk gets
// its own, and the replay allocates nothing.
func TestRewindLendsTheSameMemory(t *testing.T) {
	a := New[int](8)
	sizes := []int{3, 4, 2, 20, 8, 1}
	first := make([]*int, len(sizes))
	for i, n := range sizes {
		first[i] = &a.Take(n)[0]
	}
	// 3+4 | 2 | 20 (its own chunk) | 8 | 1: each cut that does not fit
	// the rest of a chunk starts the next one.
	if len(a.chunks) != 5 || len(a.chunks[2]) != 20 {
		t.Errorf("arena cut %d chunks, the third %d long; want 5 and 20", len(a.chunks), len(a.chunks[2]))
	}
	a.Rewind()
	for i, n := range sizes {
		if p := &a.Take(n)[0]; p != first[i] {
			t.Errorf("request %d (n=%d) got other memory after Rewind", i, n)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		a.Rewind()
		for _, n := range sizes {
			a.Take(n)
		}
	})
	if allocs != 0 || len(a.chunks) != 5 {
		t.Errorf("replay allocated %.0f times and holds %d chunks; want 0 and 5", allocs, len(a.chunks))
	}
}

// TestFillCoversWhatWasLent overwrites the lent prefix and nothing a
// later Take would get fresh.
func TestFillCoversWhatWasLent(t *testing.T) {
	a := New[byte](4)
	x, y := a.Take(3), a.Take(3)
	a.Fill(0xA5)
	for _, b := range append(x, y...) {
		if b != 0xA5 {
			t.Fatalf("lent byte %#x not filled", b)
		}
	}
	if z := a.Take(1); z[0] != 0 {
		t.Errorf("unlent byte filled: %#x", z[0])
	}
}

// TestUnkeptArenaKeepsNothing: the zero Arena allocates each request
// exactly and holds no chunk, so Rewind cannot hand memory out twice.
func TestUnkeptArenaKeepsNothing(t *testing.T) {
	var a Arena[byte]
	x := a.Take(3)
	x[0] = 1
	a.Rewind()
	if y := a.Take(3); &y[0] == &x[0] || y[0] != 0 {
		t.Error("an unkept arena lent the same memory twice")
	}
	if len(a.chunks) != 0 {
		t.Errorf("unkept arena holds %d chunks", len(a.chunks))
	}
}
