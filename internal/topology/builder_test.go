package topology

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/proto"
)

// regularOracle is RandomRegular built the plain way, the builder's
// reference: rand.Shuffle for the stubs, pairing into growing rows, a
// repair that materialises the full edge list and keeps it in sync on
// swaps, and a connectivity check from BFS distances. It returns the same
// errors and makes the same draws as Build.
func regularOracle(n, d int, rng *rand.Rand) (*Graph, error) {
	switch {
	case n <= 0 || d < 0:
		return nil, fmt.Errorf("%w: n=%d d=%d", ErrInfeasible, n, d)
	case d >= n:
		return nil, fmt.Errorf("%w: degree %d >= n %d", ErrInfeasible, d, n)
	case n*d%2 != 0:
		return nil, fmt.Errorf("%w: n*d=%d odd", ErrInfeasible, n*d)
	case d < 2 && n > 2:
		return nil, fmt.Errorf("%w: degree %d cannot be connected", ErrInfeasible, d)
	}
	stubs := make([]proto.NodeID, n*d)
	for try := 0; try < maxRegularAttempts; try++ {
		for i := range stubs {
			stubs[i] = proto.NodeID(i / d)
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		g, bad := oraclePair(n, stubs)
		if oracleRepair(g, bad, rng) && oracleConnected(g) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topology: RandomRegular(n=%d, d=%d) failed after %d attempts", n, d, maxRegularAttempts)
}

// oraclePair links stubs 2i and 2i+1 for every i, in order, into a new
// graph on n nodes, and returns it with the self-loops and pairs already
// linked that it skipped.
func oraclePair(n int, stubs []proto.NodeID) (*Graph, [][2]proto.NodeID) {
	g := NewGraph(n)
	var bad [][2]proto.NodeID
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			bad = append(bad, [2]proto.NodeID{u, v})
			continue
		}
		g.link(u, v)
	}
	return g, bad
}

// oracleRepair is the repair as it was before it stopped listing every
// edge: the same swaps, drawing slots of a materialised edge list.
func oracleRepair(g *Graph, bad [][2]proto.NodeID, rng *rand.Rand) bool {
	if len(bad) == 0 {
		return true
	}
	edges := make([][2]proto.NodeID, 0, g.M()+len(bad))
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(proto.NodeID(v)) {
			if proto.NodeID(v) < w {
				edges = append(edges, [2]proto.NodeID{proto.NodeID(v), w})
			}
		}
	}
	const triesPerPair = 2000
	for _, pair := range bad {
		u, v := pair[0], pair[1]
		repaired := false
		for try := 0; try < triesPerPair && len(edges) > 0; try++ {
			ei := rng.IntN(len(edges))
			x, y := edges[ei][0], edges[ei][1]
			if rng.IntN(2) == 0 {
				x, y = y, x
			}
			if u == x || v == y || g.HasEdge(u, x) || g.HasEdge(v, y) {
				continue
			}
			g.removeEdge(x, y)
			if err := g.AddEdge(u, x); err != nil {
				return false
			}
			if err := g.AddEdge(v, y); err != nil {
				return false
			}
			edges[ei] = [2]proto.NodeID{minID(u, x), maxID(u, x)}
			edges = append(edges, [2]proto.NodeID{minID(v, y), maxID(v, y)})
			repaired = true
			break
		}
		if !repaired {
			return false
		}
	}
	return true
}

// oracleConnected is the connectivity check from BFS distances.
func oracleConnected(g *Graph) bool {
	if g.N() <= 1 {
		return true
	}
	return g.bfs(0, make([]int, g.N()), make([]proto.NodeID, 0, g.N())) == g.N()
}

// builder is a way to build a random regular graph: a kept builder's
// Build, RandomRegular or regularOracle.
type builder func(n, d int, rng *rand.Rand) (*Graph, error)

// sameBuild builds (n, d) on b and with want from two generators seeded
// alike, and fails unless both return the same error or the same graph,
// row for row, with the generators in the same state afterwards. It
// reports whether a graph was built.
func sameBuild(t *testing.T, b *RegularBuilder, want builder, n, d int, seed uint64) bool {
	t.Helper()
	gotRNG, wantRNG := testRNG(seed), testRNG(seed)
	got, gotErr := b.Build(n, d, gotRNG)
	w, wantErr := want(n, d, wantRNG)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("n=%d d=%d seed=%d: builder error %v, reference error %v", n, d, seed, gotErr, wantErr)
	}
	if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
		t.Fatalf("n=%d d=%d seed=%d: next draw %#x after the builder, %#x after the reference", n, d, seed, g, w)
	}
	if gotErr != nil {
		return false
	}
	if got.N() != w.N() || got.M() != w.M() {
		t.Fatalf("n=%d d=%d seed=%d: builder graph N=%d M=%d, reference N=%d M=%d", n, d, seed, got.N(), got.M(), w.N(), w.M())
	}
	for v := range n {
		if g, w := got.Neighbors(proto.NodeID(v)), w.Neighbors(proto.NodeID(v)); !slices.Equal(g, w) {
			t.Fatalf("n=%d d=%d seed=%d: builder row %d is %v, reference %v", n, d, seed, v, g, w)
		}
	}
	return true
}

// builderCases is a sequence of overlays that grows and shrinks N,
// crosses the look-ahead threshold and includes small dense cases —
// degree 2 on 6 or 8 nodes comes out disconnected often enough to
// restart, K5 and the near-complete ones need repair — a high degree
// that repairs ≈ 900 pairs, and infeasible ones in between.
var builderCases = []struct{ n, d int }{
	{1000, 8}, {6, 2}, {5, 4}, {200, 8}, {8, 2}, {10, 8}, {2000, 6},
	{8, 6}, {7, 3}, {1000, 8}, {aheadMinN + 100, 4}, {6, 4}, {50, 3},
	{300, 8}, {400, 60}, {6, 2}, {1, 0}, {12, 11}, {1000, 8},
}

// buildSequence runs one builder through builderCases on seeds 1–4,
// each build the same as want's, and checks that most of them built.
func buildSequence(t *testing.T, want builder) {
	var b RegularBuilder
	built := 0
	for seed := uint64(1); seed <= 4; seed++ {
		for _, c := range builderCases {
			if sameBuild(t, &b, want, c.n, c.d, seed) {
				built++
			}
		}
	}
	if built < 3*len(builderCases) {
		t.Errorf("only %d of %d builds succeeded — the sequence is mostly infeasible", built, 4*len(builderCases))
	}
}

// TestRegularBuilderMatchesFresh holds a kept builder, through
// builderCases, to a fresh RandomRegular: every graph equal row for row,
// with the generator left in the same state.
func TestRegularBuilderMatchesFresh(t *testing.T) {
	buildSequence(t, RandomRegular)
}

// TestRegularBuilderMatchesOracle holds a kept builder, through
// builderCases and at N=1M outside -short, to regularOracle: the same
// graphs, errors and draws as a repair over the listed edges and a
// connectivity check from distances.
func TestRegularBuilderMatchesOracle(t *testing.T) {
	buildSequence(t, regularOracle)
	if testing.Short() {
		return
	}
	sameBuild(t, new(RegularBuilder), regularOracle, 1000000, 8, 1)
}

// TestRegularBuilderWarmAllocs holds a warm builder to zero allocations
// per same-size build, in one pairing block and in several past the
// look-ahead threshold, and on a dense case that repairs on every build,
// which holds repair's kept records to zero too. Each build reseeds one
// generator, so every measured build makes the same graph as the warm-up
// build, with the same repair work.
func TestRegularBuilderWarmAllocs(t *testing.T) {
	for _, c := range []struct{ n, d int }{{1000, 8}, {aheadMinN + 100, 4}, {16, 12}} {
		var b RegularBuilder
		pcg := rand.NewPCG(0, 0)
		rng := rand.New(pcg)
		allocs := testing.AllocsPerRun(5, func() {
			pcg.Seed(11, 12)
			if _, err := b.Build(c.n, c.d, rng); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm Build(%d, %d) made %v allocations, want 0", c.n, c.d, allocs)
		}
		if c.n < 100 && (len(b.added) == 0 || len(b.saved) == 0) {
			t.Errorf("Build(%d, %d) repaired %d pairs and saved %d rows: the dense case must repair", c.n, c.d, len(b.added), len(b.saved))
		}
	}
}

// samePairing pairs stubs shuffled from seed for (n, d) with oraclePair
// and with b.pairBlocks in blocks of 2^blockBits nodes, and fails unless
// both make the same edges, rows and skipped pairs, with each row's fill
// and count of neighbours above its node.
func samePairing(t *testing.T, b *RegularBuilder, n, d int, seed uint64, blockBits int) {
	t.Helper()
	stubs := make([]proto.NodeID, n*d)
	for i := range stubs {
		stubs[i] = proto.NodeID(i / d)
	}
	testRNG(seed).Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g, bad := oraclePair(n, stubs)
	fill := make([]rowFill, n)
	for v := range fill {
		row := g.Neighbors(proto.NodeID(v))
		fill[v].deg = int32(len(row))
		for _, w := range row {
			if w > proto.NodeID(v) {
				fill[v].up++
			}
		}
	}

	b.stubs = append(b.stubs[:0], stubs...)
	b.slab, b.fill = resize(b.slab, n*d), resize(b.fill, n)
	for i := range b.slab {
		b.slab[i] = -1 // junk, so a slot pairBlocks leaves unwritten shows
	}
	clear(b.fill)
	if got := b.pairBlocks(d, blockBits); got != g.M() || !slices.Equal(b.bad, bad) || !slices.Equal(b.fill, fill) {
		t.Fatalf("n=%d d=%d seed=%d blocks of 2^%d: %d edges, skipped %v, fills %v; oracle %d, %v, %v",
			n, d, seed, blockBits, got, b.bad, b.fill, g.M(), bad, fill)
	}
	for v := range n {
		if got, w := b.slab[v*d:v*d+int(fill[v].deg)], g.Neighbors(proto.NodeID(v)); !slices.Equal(got, w) {
			t.Fatalf("n=%d d=%d seed=%d blocks of 2^%d: row %d is %v, oracle %v", n, d, seed, blockBits, v, got, w)
		}
	}
}

// TestPairBlocksMatchesOracle holds the block pairing to oraclePair on
// builderCases' feasible sizes, seeds 1–4, with blocks from one node —
// small graphs span many blocks — to the blocks Build uses.
func TestPairBlocksMatchesOracle(t *testing.T) {
	var b RegularBuilder
	for seed := uint64(1); seed <= 4; seed++ {
		for _, c := range builderCases {
			if c.d >= c.n || c.n*c.d%2 != 0 {
				continue
			}
			for _, bits := range []int{0, 2, 5, pairBlockBits} {
				samePairing(t, &b, c.n, c.d, seed, bits)
			}
		}
	}
}

// FuzzRegularBuild is TestRegularBuilderMatchesOracle over byte-coded
// sequences: each three bytes are one (n, d, seed) build on the same
// builder, n up to 320 and d below 12, and each must equal regularOracle;
// the same stubs paired in blocks of 2^(seed mod 8) nodes must equal
// oraclePair.
func FuzzRegularBuild(f *testing.F) {
	f.Add([]byte{200, 8, 1, 5, 2, 2, 4, 4, 3})
	f.Add([]byte{6, 2, 1, 6, 2, 2, 6, 2, 3, 255, 8, 4})
	f.Add([]byte{9, 6, 7, 1, 0, 0, 3, 2, 9, 100, 11, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b RegularBuilder
		for i := 0; i+2 < len(data) && i < 3*32; i += 3 {
			n := 1 + int(data[i])%64 + 64*int(data[i+2]&3)
			d := int(data[i+1]) % 12
			sameBuild(t, &b, regularOracle, n, d, uint64(data[i+2]))
			if d < n && n*d%2 == 0 {
				samePairing(t, &b, n, d, uint64(data[i+2]), int(data[i+2]%8))
			}
		}
	})
}
