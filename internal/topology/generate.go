package topology

import (
	"errors"
	"fmt"
	"math/rand/v2"

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
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
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

	stubs := make([]proto.NodeID, 0, n*d)
	for try := 0; try < maxRegularAttempts; try++ {
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, proto.NodeID(v))
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

		// Every row is cut from one n·d slab with capacity d: no degree
		// exceeds d here or in repair, so appends fill the row in place.
		g := NewGraph(n)
		slab := make([]proto.NodeID, n*d)
		for v := range g.adj {
			g.adj[v] = slab[v*d : v*d : (v+1)*d]
		}
		var bad [][2]proto.NodeID // self-loops and duplicates pending repair
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || g.HasEdge(u, v) {
				bad = append(bad, [2]proto.NodeID{u, v})
				continue
			}
			g.link(u, v)
		}
		if repairRegular(g, bad, rng) && g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topology: RandomRegular(n=%d, d=%d) failed after %d attempts", n, d, maxRegularAttempts)
}

// repairRegular resolves conflicting stub pairs by double edge swaps: for
// a bad pair (u,v) pick a random good edge (x,y) and rewire to (u,x) and
// (v,y), which preserves all degrees. Returns false if repair stalls.
func repairRegular(g *Graph, bad [][2]proto.NodeID, rng *rand.Rand) bool {
	if len(bad) == 0 {
		return true
	}
	// Materialize the current edge list once; keep it in sync on swaps.
	edges := make([][2]proto.NodeID, 0, g.M())
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

// Kind names a topology family for configuration surfaces.
type Kind int

// Supported topology families.
const (
	KindRandomRegular Kind = iota + 1
	KindErdosRenyi
	KindWattsStrogatz
	KindBarabasiAlbert
	KindRing
	KindLine
	KindComplete
	KindRegularTree
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case KindRandomRegular:
		return "random-regular"
	case KindErdosRenyi:
		return "erdos-renyi"
	case KindWattsStrogatz:
		return "watts-strogatz"
	case KindBarabasiAlbert:
		return "barabasi-albert"
	case KindRing:
		return "ring"
	case KindLine:
		return "line"
	case KindComplete:
		return "complete"
	case KindRegularTree:
		return "regular-tree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec is a declarative topology request used by the public API and the
// experiment harness.
type Spec struct {
	Kind  Kind
	N     int     // node count (ignored for RegularTree)
	Deg   int     // degree / lattice-k / BA attachment m / tree degree
	P     float64 // ER edge probability or WS rewiring beta
	Depth int     // RegularTree depth
}

// Build constructs the requested graph.
func (s Spec) Build(rng *rand.Rand) (*Graph, error) {
	switch s.Kind {
	case KindRandomRegular:
		return RandomRegular(s.N, s.Deg, rng)
	case KindErdosRenyi:
		return ErdosRenyi(s.N, s.P, rng)
	case KindWattsStrogatz:
		return WattsStrogatz(s.N, s.Deg, s.P, rng)
	case KindBarabasiAlbert:
		return BarabasiAlbert(s.N, s.Deg, rng)
	case KindRing:
		return Ring(s.N)
	case KindLine:
		return Line(s.N)
	case KindComplete:
		return Complete(s.N)
	case KindRegularTree:
		return RegularTree(s.Deg, s.Depth)
	default:
		return nil, fmt.Errorf("%w: unknown kind %v", ErrInfeasible, s.Kind)
	}
}
