package topology

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/proto"
)

// adjDigest is an FNV-64a digest of every node's neighbour list in row
// order: any change to the generator's RNG draws, pairing or repair moves it.
func adjDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for v := 0; v < g.N(); v++ {
		row := g.Neighbors(proto.NodeID(v))
		binary.LittleEndian.PutUint32(buf[:], uint32(len(row)))
		h.Write(buf[:])
		for _, w := range row {
			binary.LittleEndian.PutUint32(buf[:], uint32(w))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestRandomRegularPinned holds RandomRegular to the exact graphs it has
// always produced: experiment goldens, parity tables and benchmark
// fingerprints all depend on them.
func TestRandomRegularPinned(t *testing.T) {
	cases := []struct {
		n    int
		seed uint64
		want uint64
	}{
		{1000, 1, 0x45d3168c2268f895},
		{1000, 2, 0x2caa093a5b9a7d85},
		{1000, 3, 0xd16cc9301a1ab46d},
		{100000, 1, 0x52cc271ff10568ed},
		{1000000, 1, 0x140cd9ff88cee779},
	}
	const d = 8
	for _, c := range cases {
		if c.n >= 1000000 && testing.Short() {
			continue
		}
		g, err := RandomRegular(c.n, d, testRNG(c.seed))
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", c.n, c.seed, err)
		}
		if got := adjDigest(g); got != c.want {
			t.Errorf("n=%d seed=%d: adjacency digest %#x, want %#x", c.n, c.seed, got, c.want)
		}
		if g.M() != c.n*d/2 {
			t.Errorf("n=%d seed=%d: M = %d, want %d", c.n, c.seed, g.M(), c.n*d/2)
		}
		for v := 0; v < c.n; v++ {
			row := g.Neighbors(proto.NodeID(v))
			if len(row) != d {
				t.Fatalf("n=%d seed=%d: degree(%d) = %d, want %d", c.n, c.seed, v, len(row), d)
			}
			for i, w := range row {
				if w == proto.NodeID(v) {
					t.Fatalf("n=%d seed=%d: self-loop at %d", c.n, c.seed, v)
				}
				for _, x := range row[:i] {
					if x == w {
						t.Fatalf("n=%d seed=%d: duplicate edge {%d,%d}", c.n, c.seed, v, w)
					}
				}
			}
		}
		if !g.Connected() {
			t.Errorf("n=%d seed=%d: not connected", c.n, c.seed)
		}
	}
}

// TestRandomRegularAllocs holds the build to a constant number of
// allocations: one slab for all rows, not one append chain per row.
func TestRandomRegularAllocs(t *testing.T) {
	rng := testRNG(7)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := RandomRegular(1000, 8, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("RandomRegular(1000, 8) made %v allocations, want <= 20", allocs)
	}
}

// TestSlabRowsDoNotAlias edits rows of slab-backed graphs — remove then
// re-add on a full row, then one append past the row's capacity — and
// checks that no other row changes. A row cut without a capacity bound
// would write the extra neighbour into the next row's first slot.
func TestSlabRowsDoNotAlias(t *testing.T) {
	g, err := RandomRegular(40, 4, testRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	perm := make([]proto.NodeID, g.N())
	for i := range perm {
		perm[i] = proto.NodeID(g.N() - 1 - i)
	}
	r, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		h    *Graph
	}{{"RandomRegular", g}, {"Clone", c}, {"Relabel", r}} {
		name, h := tc.name, tc.h
		before := make([][]proto.NodeID, h.N())
		for v := range before {
			before[v] = append([]proto.NodeID(nil), h.Neighbors(proto.NodeID(v))...)
		}
		// u and x are far apart in the slab and not adjacent; w is u's
		// first neighbour.
		u := proto.NodeID(10)
		w := h.Neighbors(u)[0]
		x := proto.NodeID(0)
		for h.HasEdge(u, x) || x == u || x == w {
			x++
		}
		h.removeEdge(u, w)
		if err := h.AddEdge(u, w); err != nil {
			t.Fatalf("%s: re-adding {%d,%d}: %v", name, u, w, err)
		}
		if err := h.AddEdge(u, x); err != nil {
			t.Fatalf("%s: adding {%d,%d}: %v", name, u, x, err)
		}
		if h.Degree(u) != len(before[u])+1 || h.Degree(x) != len(before[x])+1 {
			t.Errorf("%s: degrees %d, %d after the extra edge, want %d, %d",
				name, h.Degree(u), h.Degree(x), len(before[u])+1, len(before[x])+1)
		}
		for v := range before {
			if nv := proto.NodeID(v); nv == u || nv == w || nv == x {
				continue
			}
			if !slices.Equal(h.Neighbors(proto.NodeID(v)), before[v]) {
				t.Errorf("%s: row %d changed from %v to %v", name, v, before[v], h.Neighbors(proto.NodeID(v)))
			}
		}
	}
}

// TestShuffleMatchesRandShuffle holds the overlay build's look-ahead
// shuffle to rand.Shuffle: for every length up to 40 and look-ahead
// distances around the build's and far past every length, over several
// seeds, the same permutation and the same generator state afterwards.
func TestShuffleMatchesRandShuffle(t *testing.T) {
	for _, ahead := range []int{1, shuffleAhead - 1, shuffleAhead, shuffleAhead + 1, 1000} {
		for seed := uint64(1); seed <= 5; seed++ {
			for n := 0; n <= 40; n++ {
				want := make([]proto.NodeID, n)
				for i := range want {
					want[i] = proto.NodeID(i)
				}
				got := slices.Clone(want)
				wantRNG, gotRNG := testRNG(seed), testRNG(seed)
				wantRNG.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				shuffle(got, gotRNG, make([]int, ahead))
				if !slices.Equal(got, want) {
					t.Fatalf("ahead=%d seed=%d n=%d: permutation %v, rand.Shuffle gives %v", ahead, seed, n, got, want)
				}
				if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
					t.Fatalf("ahead=%d seed=%d n=%d: next draw %#x after shuffle, %#x after rand.Shuffle", ahead, seed, n, g, w)
				}
			}
		}
	}
}
