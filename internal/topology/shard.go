package topology

import (
	"fmt"

	"repro/internal/proto"
)

// Node partitioning for the sharded event loop (sim.Options.Shards): the
// node-ID space [0, n) is split into k contiguous ranges, so the CSR link
// arrays the Network builds per node range cleanly along shard borders.
// ShardBounds and ShardOf are the single source of the partition formula
// — the Network's shard assignment and the handler-state partitions
// (flood.Shared, adaptive.Shared) must agree cell-for-cell, so both sides
// call these two functions and nothing else.

// ShardBounds returns the k+1 partition boundaries of [0, n) into k
// contiguous ranges: shard i owns node IDs [bounds[i], bounds[i+1]).
// Ranges differ in size by at most one node. The ceiling split pairs
// exactly with ShardOf's floor: ShardOf(v) == i ⇔ bounds[i] ≤ v < bounds[i+1].
func ShardBounds(n, k int) []int32 {
	if n < 0 || k <= 0 {
		panic(fmt.Sprintf("topology: ShardBounds(%d, %d)", n, k))
	}
	bounds := make([]int32, k+1)
	for i := 1; i <= k; i++ {
		bounds[i] = int32((i*n + k - 1) / k)
	}
	return bounds
}

// ShardOf returns the index of the shard owning node v under the
// ShardBounds(n, k) partition.
func ShardOf(v proto.NodeID, n, k int) int {
	return int(v) * k / n
}

// CrossShardEdges counts undirected edges whose endpoints fall in
// different shards under the ShardBounds(N, k) partition — the traffic
// that crosses shard queues instead of staying loop-local.
func (g *Graph) CrossShardEdges(k int) int {
	cross := 0
	for u := 0; u < g.n; u++ {
		su := ShardOf(proto.NodeID(u), g.n, k)
		for _, v := range g.adj[u] {
			if int(v) > u && ShardOf(v, g.n, k) != su {
				cross++
			}
		}
	}
	return cross
}

// LocalityOrder returns a relabeling permutation (perm[old] = new) that
// clusters topologically close nodes into nearby IDs: BFS layers from
// node 0, visiting components in ID order. Under a contiguous-range
// partition this cuts cross-shard edges on graphs with locality (rings,
// lattices, small-world rewires); on expanders the gain is marginal by
// construction. It is an offline analysis/pre-processing helper — the
// experiments keep the generator's labeling so that node IDs in tables
// stay comparable across shard counts.
func (g *Graph) LocalityOrder() []proto.NodeID {
	// One reach from each node not yet seen, in ID order, lists every
	// node once in visit order: a node's new ID is its place in the list.
	seen := make([]uint64, bitsetWords(g.n))
	order := make([]proto.NodeID, 0, g.n)
	for s := 0; s < g.n; s++ {
		if seen[s>>6]&(1<<(s&63)) == 0 {
			order = g.reach(proto.NodeID(s), seen, order)
		}
	}
	perm := make([]proto.NodeID, g.n)
	for i, v := range order {
		perm[v] = proto.NodeID(i)
	}
	return perm
}

// Relabel returns a copy of the graph with node IDs renamed through perm
// (perm[old] = new), which must be a permutation of [0, N).
func (g *Graph) Relabel(perm []proto.NodeID) (*Graph, error) {
	if len(perm) != g.n {
		return nil, fmt.Errorf("topology: Relabel permutation length %d for %d nodes", len(perm), g.n)
	}
	inv := make([]proto.NodeID, g.n) // inv[new] = old
	for i := range inv {
		inv[i] = proto.NoNode
	}
	for u, p := range perm {
		if p < 0 || int(p) >= g.n || inv[p] != proto.NoNode {
			return nil, fmt.Errorf("topology: Relabel permutation invalid at %d", p)
		}
		inv[p] = proto.NodeID(u)
	}
	// Rows are cut in new-ID order from one slab of 2·M IDs, as in Clone.
	c := NewGraph(g.n)
	c.m = g.m
	slab := make([]proto.NodeID, 0, 2*g.m)
	for nu, u := range inv {
		start := len(slab)
		for _, v := range g.adj[u] {
			slab = append(slab, perm[v])
		}
		c.adj[nu] = slab[start:len(slab):len(slab)]
	}
	return c, nil
}
