package topology

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/proto"
)

// TestShardBoundsPairing proves the partition invariant both shard
// assignment paths rely on: ShardOf(v) == i exactly when
// bounds[i] ≤ v < bounds[i+1], with balanced contiguous ranges.
func TestShardBoundsPairing(t *testing.T) {
	for _, n := range []int{1, 2, 7, 10, 203, 1000} {
		for _, k := range []int{1, 2, 3, 4, 7, 8} {
			if k > n {
				continue
			}
			bounds := ShardBounds(n, k)
			if len(bounds) != k+1 || bounds[0] != 0 || bounds[k] != int32(n) {
				t.Fatalf("ShardBounds(%d,%d) = %v: bad frame", n, k, bounds)
			}
			lo, hi := n, 0
			for i := 0; i < k; i++ {
				size := int(bounds[i+1] - bounds[i])
				if size < lo {
					lo = size
				}
				if size > hi {
					hi = size
				}
			}
			if hi-lo > 1 {
				t.Errorf("ShardBounds(%d,%d) = %v: range sizes spread %d..%d", n, k, bounds, lo, hi)
			}
			for v := 0; v < n; v++ {
				i := ShardOf(proto.NodeID(v), n, k)
				if i < 0 || i >= k || int32(v) < bounds[i] || int32(v) >= bounds[i+1] {
					t.Fatalf("ShardOf(%d, %d, %d) = %d, but bounds are %v", v, n, k, i, bounds)
				}
			}
		}
	}
}

// TestRelabelPreservesStructure checks Relabel is a graph isomorphism
// (edge count, per-node degree carried through the permutation) and
// rejects non-permutations.
func TestRelabelPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	g, err := RandomRegular(50, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]proto.NodeID, g.N())
	for i, p := range rng.Perm(g.N()) {
		perm[i] = proto.NodeID(p)
	}
	r, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != g.N() || r.M() != g.M() {
		t.Fatalf("relabel changed shape: %d/%d vs %d/%d nodes/edges", r.N(), r.M(), g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if got, want := len(r.Neighbors(perm[u])), len(g.Neighbors(proto.NodeID(u))); got != want {
			t.Fatalf("node %d: degree %d after relabel, want %d", u, got, want)
		}
		// Every original edge must exist under the new names.
		for _, v := range g.Neighbors(proto.NodeID(u)) {
			found := false
			for _, w := range r.Neighbors(perm[u]) {
				if w == perm[v] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d-%d lost in relabel", u, v)
			}
		}
	}

	for _, bad := range [][]proto.NodeID{
		make([]proto.NodeID, g.N()-1),     // wrong length
		append(perm[:g.N()-1:g.N()-1], 0), // duplicate target
	} {
		if _, err := g.Relabel(bad); err == nil {
			t.Errorf("Relabel accepted invalid permutation %v", bad[:3])
		}
	}
}

// TestLocalityOrderCutsCrossEdges pins LocalityOrder's purpose: on a
// graph with strong locality whose labels were scrambled, the BFS
// relabeling must recover (almost) the natural clustering, cutting
// cross-shard edges well below the scrambled labeling's count.
func TestLocalityOrderCutsCrossEdges(t *testing.T) {
	ring, err := Ring(256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	scramblePerm := make([]proto.NodeID, ring.N())
	for i, p := range rng.Perm(ring.N()) {
		scramblePerm[i] = proto.NodeID(p)
	}
	scrambled, err := ring.Relabel(scramblePerm)
	if err != nil {
		t.Fatal(err)
	}

	ordered, err := scrambled.Relabel(scrambled.LocalityOrder())
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	before, after := scrambled.CrossShardEdges(k), ordered.CrossShardEdges(k)
	// A ring admits k cross edges at best (the k range borders, one of
	// them the wrap-around); BFS from one seed walks both directions, so
	// allow a small constant factor — but the scrambled labeling cuts
	// ~3/4 of all 256 edges, so the separation is unambiguous.
	if after >= before/4 {
		t.Fatalf("LocalityOrder did not restore locality: %d cross edges before, %d after", before, after)
	}
	if natural := ring.CrossShardEdges(k); natural != k {
		t.Fatalf("natural ring labeling has %d cross edges at k=%d, want %d", natural, k, k)
	}
}

// localityOrderOracle is LocalityOrder as a plain BFS of its own from
// each unlabelled node in ID order, numbering nodes as it enqueues them.
func localityOrderOracle(g *Graph) []proto.NodeID {
	perm := make([]proto.NodeID, g.N())
	for i := range perm {
		perm[i] = proto.NoNode
	}
	next := proto.NodeID(0)
	for s := 0; s < g.N(); s++ {
		if perm[s] != proto.NoNode {
			continue
		}
		perm[s] = next
		next++
		for queue := []proto.NodeID{proto.NodeID(s)}; len(queue) > 0; queue = queue[1:] {
			for _, w := range g.Neighbors(queue[0]) {
				if perm[w] == proto.NoNode {
					perm[w] = next
					next++
					queue = append(queue, w)
				}
			}
		}
	}
	return perm
}

// TestLocalityOrderMatchesOracle holds LocalityOrder to
// localityOrderOracle on a ring, on graphs of many components — below
// and past aheadMinN, with node counts off a multiple of 64 — and on the
// paper's 1k regular overlay.
func TestLocalityOrderMatchesOracle(t *testing.T) {
	ring, err := Ring(257)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := ErdosRenyi(301, 1.5/301, testRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	large := NewGraph(aheadMinN + 7)
	rng := testRNG(6)
	for i := 0; i < large.N()*3/4; i++ {
		u, v := proto.NodeID(rng.IntN(large.N())), proto.NodeID(rng.IntN(large.N()))
		if u != v && !large.HasEdge(u, v) {
			large.link(u, v)
		}
	}
	regular, err := RandomRegular(1000, 8, testRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"ring", ring}, {"sparse ER", sparse}, {"sparse, look-ahead", large},
		{"regular", regular}, {"empty", NewGraph(0)}, {"edgeless", NewGraph(65)},
	} {
		if got, want := tc.g.LocalityOrder(), localityOrderOracle(tc.g); !slices.Equal(got, want) {
			t.Errorf("%s: LocalityOrder differs from the oracle", tc.name)
		}
	}
}
