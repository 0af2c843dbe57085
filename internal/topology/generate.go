package topology

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/prefetch"
	"repro/internal/proto"
)

// ErrInfeasible indicates parameters no graph can satisfy.
var ErrInfeasible = errors.New("topology: infeasible parameters")

// maxRegularAttempts bounds configuration-model restarts in RandomRegular.
const maxRegularAttempts = 50

// RandomRegular generates a connected random d-regular graph on n nodes
// using the configuration model with edge-swap repair of self-loops and
// duplicate pairs, restarting if repair stalls or the result is
// disconnected. n·d must be even, d < n, and (for connectivity) d ≥ 2.
// This is the substrate of the paper's §V-A simulation (n=1000, d=8).
// It is one Build of a new RegularBuilder.
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	return new(RegularBuilder).Build(n, d, rng)
}

// RegularBuilder builds random regular graphs into storage it keeps: the
// stubs, the row slab and degrees, the row headers, the repair edge list
// and the connectivity check's traversal scratch. A loop of builds — one
// overlay per broadcast trial — then allocates only while the graphs
// grow. The zero RegularBuilder is ready to use; it builds one graph at
// a time.
type RegularBuilder struct {
	g     Graph
	stubs []proto.NodeID
	slab  []proto.NodeID
	deg   []int32
	bad   [][2]proto.NodeID // stub pairs pairing skipped, for repair
	edges [][2]proto.NodeID // repair's edge list
	ring  [shuffleAhead]int // shuffle's look-ahead draws
	dist  []int             // the connectivity check's BFS scratch
	queue []proto.NodeID
}

// Build returns the graph RandomRegular(n, d, rng) returns, with the same
// draws from rng. The graph is the builder's: it stays valid until the
// next Build, which overwrites it in place.
func (b *RegularBuilder) Build(n, d int, rng *rand.Rand) (*Graph, error) {
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

	// stubs lists every node d times; slab holds the n rows of d slots
	// and deg their fill while the pairs are probed. A failed attempt's
	// graph is dropped, so the next attempt reuses all of them.
	stubs := resize(b.stubs, n*d)
	slab := resize(b.slab, n*d)
	deg := resize(b.deg, n)
	b.stubs, b.slab, b.deg = stubs, slab, deg
	g := &b.g
	g.n, g.adj = n, resize(g.adj, n)
	for try := 0; try < maxRegularAttempts; try++ {
		for v := 0; v < n; v++ {
			row := stubs[v*d : (v+1)*d]
			for i := range row {
				row[i] = proto.NodeID(v)
			}
		}
		if n >= aheadMinN {
			shuffle(stubs, rng, b.ring[:])
		} else {
			rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		}
		clear(deg)
		var m int
		m, b.bad = pairStubs(stubs, slab, deg, d, b.bad[:0])

		// Every row is cut from the slab with capacity d: no degree
		// exceeds d here or in repair, so appends fill the row in place.
		for v := range g.adj {
			g.adj[v] = slab[v*d : v*d+int(deg[v]) : (v+1)*d]
		}
		g.m = m
		if b.repair(rng) && b.connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topology: RandomRegular(n=%d, d=%d) failed after %d attempts", n, d, maxRegularAttempts)
}

// resize returns s with length n, reallocated only when n exceeds its
// capacity. The contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// connected reports whether the builder's graph is connected, traversing
// it in the kept scratch.
func (b *RegularBuilder) connected() bool {
	g := &b.g
	if g.n <= 1 {
		return true
	}
	b.dist = resize(b.dist, g.n)
	b.queue = slices.Grow(b.queue[:0], g.n)
	return g.bfs(0, b.dist, b.queue) == g.n
}

// Look-ahead distances of the overlay build, which looks ahead from
// aheadMinN nodes: how many swaps ahead shuffle draws and prefetches,
// and how many stub pairs ahead pairStubs prefetches rows. At N=1M every
// stub, row and degree is a DRAM miss; the distance only has to cover
// one miss.
const (
	shuffleAhead = 16
	pairAhead    = 8
)

// shuffle permutes s exactly as rng.Shuffle(len(s), swap) does — the
// same draws, rng.Uint64N(i+1) for i = len(s)−1 … 1, in the same order,
// so the permutation and the generator's state afterwards are the
// same — but it draws ahead of the swaps, up to len(ring) ≥ 1 of them,
// and prefetches each swap's target so its miss resolves before the
// swap. ring is scratch for the draws in flight.
func shuffle(s []proto.NodeID, rng *rand.Rand, ring []int) {
	n := len(s)
	if n < 2 {
		return
	}
	// ring[r] holds the target of the swap at i; the slot is refilled at
	// once with the draw for i − len(ring), which the same slot serves.
	ring = ring[:min(len(ring), n-1)]
	for k := range ring {
		j := int(rng.Uint64N(uint64(n - k)))
		prefetch.Line(&s[j])
		ring[k] = j
	}
	next, r := n-1-len(ring), 0 // the next i to draw for; ring's cursor
	for i := n - 1; i > 0; i-- {
		j := ring[r]
		if next > 0 {
			jn := int(rng.Uint64N(uint64(next + 1)))
			prefetch.Line(&s[jn])
			ring[r] = jn
			next--
		}
		if r++; r == len(ring) {
			r = 0
		}
		s[i], s[j] = s[j], s[i]
	}
}

// pairStubs links stubs 2i and 2i+1 for every i, in order, into the rows
// slab[v*d : v*d+deg[v]], skipping self-loops and pairs already linked,
// which it appends to bad for repair. It returns the number of edges it
// made and bad. From aheadMinN nodes, the rows of the pair pairAhead
// places on are prefetched, with their degrees.
func pairStubs(stubs, slab []proto.NodeID, deg []int32, d int, bad [][2]proto.NodeID) (int, [][2]proto.NodeID) {
	m := 0
	ahead := len(deg) >= aheadMinN
	for i := 0; i+1 < len(stubs); i += 2 {
		if k := i + 2*pairAhead; ahead && k+1 < len(stubs) {
			a, b := stubs[k], stubs[k+1]
			prefetch.Line(&slab[int(a)*d])
			prefetch.Line(&slab[int(b)*d])
			prefetch.Line(&deg[a])
			prefetch.Line(&deg[b])
		}
		u, v := stubs[i], stubs[i+1]
		ru, rv := int(u)*d, int(v)*d
		if u == v || slices.Contains(slab[ru:ru+int(deg[u])], v) {
			bad = append(bad, [2]proto.NodeID{u, v})
			continue
		}
		slab[ru+int(deg[u])] = v
		slab[rv+int(deg[v])] = u
		deg[u]++
		deg[v]++
		m++
	}
	return m, bad
}

// repair resolves the conflicting stub pairs b.bad by double edge swaps:
// for a bad pair (u,v) pick a random good edge (x,y) and rewire to (u,x)
// and (v,y), which preserves all degrees. Returns false if repair stalls.
func (b *RegularBuilder) repair(rng *rand.Rand) bool {
	bad, g := b.bad, &b.g
	if len(bad) == 0 {
		return true
	}
	// Materialize the current edge list once; keep it in sync on swaps.
	// Each repaired pair adds one edge, so it never outgrows this.
	b.edges = slices.Grow(b.edges[:0], g.M()+len(bad))
	edges := b.edges
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
			// New edges (u,x) and (v,y) must be simple.
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

func minID(a, b proto.NodeID) proto.NodeID {
	if a < b {
		return a
	}
	return b
}

func maxID(a, b proto.NodeID) proto.NodeID {
	if a > b {
		return a
	}
	return b
}

// ErdosRenyi generates a G(n, p) graph. It does not retry for
// connectivity; check Connected if required.
func ErdosRenyi(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if n < 0 || p < 0 || p > 1 {
		return nil, fmt.Errorf("%w: n=%d p=%v", ErrInfeasible, n, p)
	}
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if err := g.AddEdge(proto.NodeID(u), proto.NodeID(v)); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// node connects to its k nearest neighbors (k even), with each edge
// rewired with probability beta.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) (*Graph, error) {
	if n <= 0 || k <= 0 || k%2 != 0 || k >= n || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("%w: n=%d k=%d beta=%v", ErrInfeasible, n, k, beta)
	}
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			target := proto.NodeID(v)
			if rng.Float64() < beta {
				// Rewire to a uniform non-self, non-duplicate target.
				for tries := 0; tries < 4*n; tries++ {
					cand := proto.NodeID(rng.IntN(n))
					if cand != proto.NodeID(u) && !g.HasEdge(proto.NodeID(u), cand) {
						target = cand
						break
					}
				}
			}
			if g.HasEdge(proto.NodeID(u), target) || target == proto.NodeID(u) {
				continue // dense corner case: keep lattice edge count approximate
			}
			if err := g.AddEdge(proto.NodeID(u), target); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// BarabasiAlbert generates a preferential-attachment scale-free graph:
// starting from an m-clique, each new node attaches to m existing nodes
// with probability proportional to degree.
func BarabasiAlbert(n, m int, rng *rand.Rand) (*Graph, error) {
	if m < 1 || n < m+1 {
		return nil, fmt.Errorf("%w: n=%d m=%d", ErrInfeasible, n, m)
	}
	g := NewGraph(n)
	// Seed clique on m+1 nodes.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			if err := g.AddEdge(proto.NodeID(u), proto.NodeID(v)); err != nil {
				return nil, err
			}
		}
	}
	// Repeated-endpoint list: sampling uniformly from it is sampling
	// proportionally to degree.
	endpoints := make([]proto.NodeID, 0, 2*n*m)
	for u := 0; u <= m; u++ {
		for _, v := range g.Neighbors(proto.NodeID(u)) {
			_ = v
			endpoints = append(endpoints, proto.NodeID(u))
		}
	}
	for u := m + 1; u < n; u++ {
		added := 0
		for added < m {
			var cand proto.NodeID
			if len(endpoints) == 0 {
				cand = proto.NodeID(rng.IntN(u))
			} else {
				cand = endpoints[rng.IntN(len(endpoints))]
			}
			if cand == proto.NodeID(u) || g.HasEdge(proto.NodeID(u), cand) {
				continue
			}
			if err := g.AddEdge(proto.NodeID(u), cand); err != nil {
				return nil, err
			}
			endpoints = append(endpoints, proto.NodeID(u), cand)
			added++
		}
	}
	return g, nil
}

// Ring returns the n-cycle.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: ring needs n>=3, got %d", ErrInfeasible, n)
	}
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		if err := g.AddEdge(proto.NodeID(u), proto.NodeID((u+1)%n)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Line returns the n-path 0–1–…–(n−1), the graph on which adaptive
// diffusion's α₂ applies exactly.
func Line(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: line needs n>=2, got %d", ErrInfeasible, n)
	}
	g := NewGraph(n)
	for u := 0; u+1 < n; u++ {
		if err := g.AddEdge(proto.NodeID(u), proto.NodeID(u+1)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Complete returns the clique K_n, the DC-net communication pattern.
func Complete(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: complete needs n>=1, got %d", ErrInfeasible, n)
	}
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := g.AddEdge(proto.NodeID(u), proto.NodeID(v)); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// RegularTree returns the complete d-regular tree of the given depth:
// the root and every internal node have degree d (the root has d
// children, internal nodes d−1). Depth 0 is a single node. This is the
// graph class for which α_d(t,h) yields perfect obfuscation.
func RegularTree(d, depth int) (*Graph, error) {
	if d < 2 || depth < 0 {
		return nil, fmt.Errorf("%w: d=%d depth=%d", ErrInfeasible, d, depth)
	}
	// Count nodes: 1 + d + d(d−1) + … + d(d−1)^{depth−1}.
	n := 1
	width := d
	for level := 1; level <= depth; level++ {
		n += width
		width *= d - 1
	}
	g := NewGraph(n)
	next := 1
	frontier := []proto.NodeID{0}
	for level := 1; level <= depth; level++ {
		var newFrontier []proto.NodeID
		for _, parent := range frontier {
			kids := d - 1
			if parent == 0 {
				kids = d
			}
			for c := 0; c < kids; c++ {
				child := proto.NodeID(next)
				next++
				if err := g.AddEdge(parent, child); err != nil {
					return nil, err
				}
				newFrontier = append(newFrontier, child)
			}
		}
		frontier = newFrontier
	}
	return g, nil
}
