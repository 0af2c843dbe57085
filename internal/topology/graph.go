// Package topology provides the overlay graphs experiments run on: random
// d-regular graphs (the paper's 1,000-peer simulation substrate),
// Erdős–Rényi, Watts–Strogatz, Barabási–Albert, rings, lines, regular
// trees and cliques, plus the graph algorithms the protocols and
// estimators need (BFS distances, connectivity, diameter).
package topology

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/prefetch"
	"repro/internal/proto"
)

// Graph is a simple undirected graph over dense node IDs [0, N).
type Graph struct {
	n   int
	adj [][]proto.NodeID
	m   int // edge count
}

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Graph{n: n, adj: make([][]proto.NodeID, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with an error so generator bugs surface early.
func (g *Graph) AddEdge(u, v proto.NodeID) error {
	if u == v {
		return fmt.Errorf("topology: self-loop at %d", u)
	}
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("topology: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("topology: duplicate edge {%d,%d}", u, v)
	}
	g.link(u, v)
	return nil
}

// link appends the edge {u, v} to both rows without checks: the caller
// has already ruled out self-loops, duplicates and out-of-range IDs.
func (g *Graph) link(u, v proto.NodeID) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
}

func (g *Graph) valid(v proto.NodeID) bool { return v >= 0 && int(v) < g.n }

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v proto.NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Neighbors returns v's adjacency list. The caller must not mutate it.
func (g *Graph) Neighbors(v proto.NodeID) []proto.NodeID {
	if !g.valid(v) {
		return nil
	}
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v proto.NodeID) int {
	if !g.valid(v) {
		return 0
	}
	return len(g.adj[v])
}

// BFS returns hop distances from src; unreachable nodes get -1.
func (g *Graph) BFS(src proto.NodeID) []int {
	dist := make([]int, g.n)
	g.bfs(src, dist, make([]proto.NodeID, 0, g.n))
	return dist
}

// bfs writes hop distances from src into dist (length N, unreachable
// nodes -1) through queue (capacity at least N; its contents are
// scratch) and returns how many nodes it reached: the traversal behind
// BFS. Checks that need only which nodes are reached use reach.
//
// The queue says which rows the traversal reads next, so on a graph of
// at least aheadMinN nodes it looks ahead on it: at N=1M a node's row
// header and its row are two dependent DRAM misses. Two bfsAhead places
// on, bfs prefetches the header; one bfsAhead on, it reads the header —
// in cache by then — and prefetches the row.
func (g *Graph) bfs(src proto.NodeID, dist []int, queue []proto.NodeID) int {
	for i := range dist {
		dist[i] = -1
	}
	if !g.valid(src) {
		return 0
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	ahead := g.n >= aheadMinN
	for head := 0; head < len(queue); head++ {
		if ahead {
			if i := head + 2*bfsAhead; i < len(queue) {
				prefetch.Line(&g.adj[queue[i]])
			}
			if i := head + bfsAhead; i < len(queue) {
				if row := g.adj[queue[i]]; len(row) > 0 {
					prefetch.Line(&row[0])
				}
			}
		}
		u := queue[head]
		du := dist[u] + 1
		for _, w := range g.adj[u] {
			if dist[w] == -1 {
				dist[w] = du
				queue = append(queue, w)
			}
		}
	}
	return len(queue)
}

// reach appends to queue, in BFS order from src, every node reachable
// from src that seen does not yet hold, marks them in seen and returns
// queue: the traversal behind the connectivity checks and LocalityOrder.
// seen is a bitset of at least (N+63)/64 words, one bit a node — 128 KB
// at N=1M against bfs's 8 MB of distances — and queue needs capacity
// for every node it can append; src must be in range and not in seen.
// It looks ahead on the queue as bfs does, from the first node it
// appends.
func (g *Graph) reach(src proto.NodeID, seen []uint64, queue []proto.NodeID) []proto.NodeID {
	seen[src>>6] |= 1 << (src & 63)
	start := len(queue)
	queue = append(queue, src)
	ahead := g.n >= aheadMinN
	for head := start; head < len(queue); head++ {
		if ahead {
			if i := head + 2*bfsAhead; i < len(queue) {
				prefetch.Line(&g.adj[queue[i]])
			}
			if i := head + bfsAhead; i < len(queue) {
				if row := g.adj[queue[i]]; len(row) > 0 {
					prefetch.Line(&row[0])
				}
			}
		}
		for _, w := range g.adj[queue[head]] {
			if word, bit := &seen[w>>6], uint64(1)<<(w&63); *word&bit == 0 {
				*word |= bit
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// bitsetWords is the length of a bitset holding one bit for each of n
// nodes.
func bitsetWords(n int) int { return (n + 63) / 64 }

// bfsAhead is how many queue places ahead bfs prefetches a row.
const bfsAhead = 8

// aheadMinN is the smallest graph the package's loops look ahead on:
// bfs and reach here, and RandomRegular's stub shuffle. Below it the
// rows, headers and distances (≈ 68 bytes a node at degree 8) sit in a
// core's L2, the out-of-order core already hides those hits, and the
// hints only cost. At degree 8 on a 2-vCPU Xeon with 2 MiB of L2 a core,
// BFS with them read +10 % at N=4k, −7 % at 16k, −20 % at 32k and −50 %
// at 1M; e4, whose time is ≈ 45 % BFS on N=1000, read +4 % with them.
const aheadMinN = 1 << 14

// Connected reports whether the graph is connected (true for N ≤ 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.reach(0, make([]uint64, bitsetWords(g.n)), make([]proto.NodeID, 0, g.n))) == g.n
}

// Eccentricity returns the greatest BFS distance from v, or -1 if some
// node is unreachable.
func (g *Graph) Eccentricity(v proto.NodeID) int {
	ecc := 0
	for _, d := range g.BFS(v) {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter via all-pairs BFS (O(N·M)); it
// returns -1 for disconnected graphs. Suitable for the N ≤ a few thousand
// graphs used in experiments.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		ecc := g.Eccentricity(proto.NodeID(v))
		if ecc == -1 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// ApproxDiameter returns a double-sweep lower bound on the diameter in
// O(M): BFS from a seed, then BFS from the farthest node found. Exact on
// trees; never larger than the true diameter.
func (g *Graph) ApproxDiameter() int {
	if g.n == 0 {
		return 0
	}
	d1 := g.BFS(0)
	far, best := proto.NodeID(0), 0
	for v, d := range d1 {
		if d == -1 {
			return -1
		}
		if d > best {
			far, best = proto.NodeID(v), d
		}
	}
	best = 0
	for _, d := range g.BFS(far) {
		if d == -1 {
			return -1
		}
		if d > best {
			best = d
		}
	}
	return best
}

// removeEdge deletes the undirected edge {u, v} if present. It is
// unexported: only generators performing degree-preserving rewires use it.
func (g *Graph) removeEdge(u, v proto.NodeID) {
	if !g.HasEdge(u, v) {
		return
	}
	remove := func(list []proto.NodeID, x proto.NodeID) []proto.NodeID {
		for i, w := range list {
			if w == x {
				list[i] = list[len(list)-1]
				return list[:len(list)-1]
			}
		}
		return list
	}
	g.adj[u] = remove(g.adj[u], v)
	g.adj[v] = remove(g.adj[v], u)
	g.m--
}

// Clone returns a deep copy of the graph. Its rows are cut from one slab
// of 2·M IDs, each capped at its length, so an append to a cloned row
// reallocates that row and never writes into the next one.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.n)
	c.m = g.m
	slab := make([]proto.NodeID, 0, 2*g.m)
	for v, row := range g.adj {
		start := len(slab)
		slab = append(slab, row...)
		c.adj[v] = slab[start:len(slab):len(slab)]
	}
	return c
}

// RandomNode returns a uniformly random node ID.
func (g *Graph) RandomNode(rng *rand.Rand) proto.NodeID {
	return proto.NodeID(rng.IntN(g.n))
}
