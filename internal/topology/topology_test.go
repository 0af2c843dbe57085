package topology

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/proto"
)

func testRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Error("HasEdge not symmetric")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Errorf("degrees wrong: %d, %d", g.Degree(0), g.Degree(2))
	}
}

func TestBFSAndDiameterOnLine(t *testing.T) {
	g, err := Line(5)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("Diameter = %d, want 4", d)
	}
	if d := g.ApproxDiameter(); d != 4 {
		t.Errorf("ApproxDiameter = %d, want 4 (exact on trees)", d)
	}
	if !g.Connected() {
		t.Error("line not connected")
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if d := g.Diameter(); d != -1 {
		t.Errorf("Diameter = %d, want -1", d)
	}
	if d := g.BFS(0)[3]; d != -1 {
		t.Errorf("unreachable dist = %d, want -1", d)
	}
}

func TestRandomRegular(t *testing.T) {
	rng := testRNG(1)
	for _, tc := range []struct{ n, d int }{{10, 3}, {50, 4}, {1000, 8}} {
		g, err := RandomRegular(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		for v := 0; v < tc.n; v++ {
			if g.Degree(proto.NodeID(v)) != tc.d {
				t.Fatalf("node %d degree = %d, want %d", v, g.Degree(proto.NodeID(v)), tc.d)
			}
		}
		if !g.Connected() {
			t.Errorf("RandomRegular(%d,%d) not connected", tc.n, tc.d)
		}
		if g.M() != tc.n*tc.d/2 {
			t.Errorf("M = %d, want %d", g.M(), tc.n*tc.d/2)
		}
	}
}

func TestRandomRegularInfeasible(t *testing.T) {
	rng := testRNG(2)
	cases := []struct{ n, d int }{{5, 3}, {4, 4}, {3, 1}, {0, 2}}
	for _, tc := range cases {
		if _, err := RandomRegular(tc.n, tc.d, rng); !errors.Is(err, ErrInfeasible) {
			t.Errorf("RandomRegular(%d,%d) err = %v, want ErrInfeasible", tc.n, tc.d, err)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	rng := testRNG(3)
	g, err := ErdosRenyi(200, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Expected edges = C(200,2)*0.05 = 995; allow generous slack.
	if g.M() < 700 || g.M() > 1300 {
		t.Errorf("ER edge count %d far from expectation 995", g.M())
	}
	if _, err := ErdosRenyi(10, 1.5, rng); !errors.Is(err, ErrInfeasible) {
		t.Errorf("p>1 accepted: %v", err)
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := testRNG(4)
	g, err := WattsStrogatz(100, 6, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() < 270 || g.M() > 300 {
		t.Errorf("WS edge count %d, want ~300", g.M())
	}
	if _, err := WattsStrogatz(10, 3, 0.1, rng); !errors.Is(err, ErrInfeasible) {
		t.Error("odd k accepted")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := testRNG(5)
	g, err := BarabasiAlbert(300, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("BA graph not connected")
	}
	// Seed clique C(4,2)=6 edges + 296*3 new edges.
	want := 6 + 296*3
	if g.M() != want {
		t.Errorf("BA M = %d, want %d", g.M(), want)
	}
	// Scale-free graphs have a hub: max degree well above m.
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(proto.NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 10 {
		t.Errorf("BA max degree %d suspiciously small", maxDeg)
	}
}

func TestRingCompleteTree(t *testing.T) {
	ring, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	if ring.M() != 6 || ring.Diameter() != 3 {
		t.Errorf("ring: M=%d diam=%d", ring.M(), ring.Diameter())
	}

	kn, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if kn.M() != 10 || kn.Diameter() != 1 {
		t.Errorf("K5: M=%d diam=%d", kn.M(), kn.Diameter())
	}

	tree, err := RegularTree(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 2, d=3: 1 + 3 + 6 = 10 nodes, 9 edges, diameter 4.
	if tree.N() != 10 || tree.M() != 9 || tree.Diameter() != 4 {
		t.Errorf("tree: N=%d M=%d diam=%d, want 10/9/4", tree.N(), tree.M(), tree.Diameter())
	}
	if tree.Degree(0) != 3 {
		t.Errorf("root degree = %d, want 3", tree.Degree(0))
	}
	if !tree.Connected() {
		t.Error("tree not connected")
	}
}

func TestClone(t *testing.T) {
	g, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if err := c.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 2) {
		t.Error("Clone shares storage with original")
	}
	if c.M() != g.M()+1 {
		t.Errorf("clone M = %d, want %d", c.M(), g.M()+1)
	}
}

// Property: BFS distances satisfy the triangle inequality along edges —
// neighbor distances differ by at most 1.
func TestBFSNeighborProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		g, err := RandomRegular(60, 4, rng)
		if err != nil {
			return false
		}
		src := g.RandomNode(rng)
		dist := g.BFS(src)
		for v := 0; v < g.N(); v++ {
			for _, w := range g.Neighbors(proto.NodeID(v)) {
				diff := dist[v] - dist[w]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return dist[src] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the double-sweep approximation never exceeds the true
// diameter and is exact on trees.
func TestApproxDiameterBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := testRNG(seed)
		g, err := RandomRegular(40, 3, rng)
		if err != nil {
			return false
		}
		return g.ApproxDiameter() <= g.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// levelBFS is the test oracle for BFS: level-synchronous expansion of a
// frontier, with none of BFS's queue or look-ahead.
func levelBFS(g *Graph, src proto.NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if int(src) >= g.N() {
		return dist
	}
	dist[src] = 0
	for level, frontier := 1, []proto.NodeID{src}; len(frontier) > 0; level++ {
		var next []proto.NodeID
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if dist[w] == -1 {
					dist[w] = level
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return dist
}

// TestBFSMatchesOracle holds BFS's distances, and Connected, to levelBFS
// on connected and disconnected graphs: from every source on the corner
// sizes and small graphs, where BFS does not look ahead, and from sampled
// sources on graphs of aheadMinN nodes and more, where it does.
func TestBFSMatchesOracle(t *testing.T) {
	clique := func(g *Graph, lo, hi int) {
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				if err := g.AddEdge(proto.NodeID(u), proto.NodeID(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	regular := func(n, d int, seed uint64) *Graph {
		g, err := RandomRegular(n, d, testRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	twoCliques := NewGraph(40)
	clique(twoCliques, 0, 20)
	clique(twoCliques, 20, 40)
	isolated := NewGraph(30)
	clique(isolated, 1, 30)
	pair := NewGraph(2)
	clique(pair, 0, 2)
	type graphCase struct {
		name  string
		g     *Graph
		every bool // BFS from every source, not a sample
	}
	graphs := []graphCase{
		{"N=0", NewGraph(0), true}, {"N=1", NewGraph(1), true},
		{"N=2 apart", NewGraph(2), true}, {"N=2 linked", pair, true},
		{"two cliques", twoCliques, true}, {"isolated node", isolated, true},
		{"regular", regular(500, 4, 1), true},
		{"regular, look-ahead", regular(aheadMinN, 4, 2), false},
	}
	for seed := uint64(1); seed <= 4; seed++ {
		g, err := ErdosRenyi(300, 1.5/300, testRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, graphCase{fmt.Sprintf("sparse ER seed %d", seed), g, true})
	}
	// Two regular halves and an isolated last node.
	half := regular(aheadMinN/2, 3, 3)
	split := NewGraph(2*half.N() + 1)
	for u := 0; u < half.N(); u++ {
		for _, w := range half.Neighbors(proto.NodeID(u)) {
			if int(w) > u {
				split.link(proto.NodeID(u), w)
				split.link(proto.NodeID(u+half.N()), w+proto.NodeID(half.N()))
			}
		}
	}
	// A sparse random graph of mean degree 1.5: trees, paths and many
	// components (ErdosRenyi's n² draws are too slow at this size).
	sparse := NewGraph(aheadMinN + 7)
	rng := testRNG(4)
	for i := 0; i < sparse.N()*3/4; i++ {
		u, v := proto.NodeID(rng.IntN(sparse.N())), proto.NodeID(rng.IntN(sparse.N()))
		if u != v && !sparse.HasEdge(u, v) {
			sparse.link(u, v)
		}
	}
	graphs = append(graphs, graphCase{"split, look-ahead", split, false}, graphCase{"sparse, look-ahead", sparse, false})

	for _, tc := range graphs {
		sources := make([]proto.NodeID, 0, tc.g.N())
		if tc.every {
			for v := 0; v < tc.g.N(); v++ {
				sources = append(sources, proto.NodeID(v))
			}
		} else {
			n := tc.g.N()
			sources = append(sources, 0, 1, proto.NodeID(n/2), proto.NodeID(n-1))
			for range 12 {
				sources = append(sources, proto.NodeID(rng.IntN(n)))
			}
		}
		for _, v := range sources {
			want := levelBFS(tc.g, v)
			if got := tc.g.BFS(v); !slices.Equal(got, want) {
				t.Fatalf("%s: BFS(%d) differs from the oracle", tc.name, v)
			}
		}
		connected := tc.g.N() == 0 || !slices.Contains(levelBFS(tc.g, 0), -1)
		if got := tc.g.Connected(); got != connected {
			t.Errorf("%s: Connected() = %v, want %v", tc.name, got, connected)
		}
	}
}
