package topology

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

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
// stubs — once paired, the index of repair's records — the row slab with
// each row's fill, the row headers, the block pairing's cursors, block
// copy and duplicate pairs, the repair's records of the edges it swaps
// and the rows they touch, and a node bitset — the block pairing's
// marks, then the connectivity check's visited set — with the check's
// queue. A loop of builds — one overlay per broadcast trial — then
// allocates only while the graphs grow. The zero RegularBuilder is ready
// to use; it builds one graph at a time.
type RegularBuilder struct {
	g     Graph
	stubs []proto.NodeID
	slab  []proto.NodeID
	fill  []rowFill
	bad   [][2]proto.NodeID // stub pairs pairing skipped, for repair
	ring  [shuffleAhead]int // shuffle's look-ahead draws

	// pairBlocks' records of its node blocks; see pairBlocks.
	cursor []int          // each block's next slot while entries are sorted
	buf    []proto.NodeID // a block's entries while its rows are written
	dups   []dupPair      // node pairs the stubs link more than once

	// repair's edge list, kept without listing the edges; see repair.
	swapped []edgeSlot        // slots below m0 a swap has rewritten
	added   [][2]proto.NodeID // slots from m0 on, one per repaired pair
	saved   []savedRow        // rows as they were before their first swap
	savedID []proto.NodeID    // the saved rows' neighbours

	seen  []uint64 // pairBlocks' marks, then the connectivity check's visited set
	queue []proto.NodeID
}

// rowFill is a row's fill while the stubs are paired — deg neighbours,
// up of them numbered above the row's node — and stays the pre-repair
// fill through repair, which turns each up into the row's first slot in
// the edge list.
type rowFill struct{ deg, up int32 }

// edgeSlot is slot i of repair's edge list, rewritten by a swap to e.
type edgeSlot struct {
	i int
	e [2]proto.NodeID
}

// savedRow is node v's pre-repair row, kept in savedID from at on.
type savedRow struct {
	v  proto.NodeID
	at int
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
	// and fill their fill while the stubs are paired. A failed attempt's
	// graph is dropped, so the next attempt reuses all of them.
	stubs := resize(b.stubs, n*d)
	slab := resize(b.slab, n*d)
	fill := resize(b.fill, n)
	b.stubs, b.slab, b.fill = stubs, slab, fill
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
		clear(fill)
		m := b.pairBlocks(d, pairBlockBits)

		// Every row is cut from the slab with capacity d: no degree
		// exceeds d here or in repair, so appends fill the row in place.
		for v := range g.adj {
			g.adj[v] = slab[v*d : v*d+int(fill[v].deg) : (v+1)*d]
		}
		g.m = m
		if b.repair(rng, d) && b.connected() {
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
// it in the kept bitset and queue.
func (b *RegularBuilder) connected() bool {
	g := &b.g
	if g.n <= 1 {
		return true
	}
	b.seen = resize(b.seen, bitsetWords(g.n))
	clear(b.seen)
	b.queue = slices.Grow(b.queue[:0], g.n)
	return len(g.reach(0, b.seen, b.queue)) == g.n
}

// shuffleAhead is how many swaps ahead shuffle draws and prefetches,
// which it does from aheadMinN nodes. At N=1M every stub is a DRAM miss;
// the distance only has to cover one miss.
const shuffleAhead = 16

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

// pairBlockBits sets the size of pairBlocks' node blocks: a block's rows
// (128 KB at degree 8), their entries' copy and their fills stay in a
// core's L2 while pairBlocks writes the rows.
const pairBlockBits = 12

// pairBlocks links stubs 2i and 2i+1 for every i, in order, into the
// rows slab[v*d : v*d+fill[v].deg] of the builder's stubs, slab and
// zeroed fill, counting in fill[v].up the neighbours above v, and skips
// self-loops and pairs already linked, which it lists in b.bad for
// repair. It returns the number of edges it made.
//
// It works in blocks of 2^blockBits nodes and, past one block, writes no
// row at random. Every node has d stubs, so the entries of the pairs — v
// in u's row and u in v's for each pair (u,v) — fill each row's d slots.
// pairBlocks first appends every entry, in pair order and packed with
// its row's place in the block, to the slab span of its row's block of
// nodes; then block by block it copies the span aside and deals the
// entries out to their rows. A graph of one block, whose rows share a
// core's L2, has its entries dealt straight from the stubs. In each row
// it keeps the first entry of each neighbour other than the row's node,
// which are the neighbours that linking the pairs one by one links. A
// dropped entry marks both its nodes in b.seen and, unless it is a
// self-loop's, lists their pair in b.dups. The skipped pairs are then
// the self-loops and repeats of b.dups among the pairs of two marked
// nodes. At N=1M, where linking the pairs one by one misses to DRAM on
// both rows of every pair, this cuts the pairing by about a third.
func (b *RegularBuilder) pairBlocks(d, blockBits int) int {
	stubs, slab, fill := b.stubs, b.slab, b.fill
	// An entry is its neighbour in the low vbits bits and its row's place
	// in a block of 2^shift nodes above them.
	n := len(fill)
	vbits := bits.Len(uint(n - 1))
	shift := min(blockBits, 32-vbits)
	vmask := uint32(1)<<vbits - 1
	low := proto.NodeID(1)<<shift - 1
	oneBlock := n <= 1<<shift
	if oneBlock {
		// The rows are one block: deal the entries straight into them.
		for i := 0; i+1 < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			slab[int(u)*d+int(fill[u].deg)] = v
			fill[u].deg++
			slab[int(v)*d+int(fill[v].deg)] = u
			fill[v].deg++
		}
	} else {
		b.cursor = resize(b.cursor, (n+1<<shift-1)>>shift)
		for k := range b.cursor {
			b.cursor[k] = k << shift * d
		}
		for i := 0; i+1 < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			c := &b.cursor[u>>shift]
			slab[*c] = proto.NodeID(uint32(u&low)<<vbits | uint32(v))
			*c++
			c = &b.cursor[v>>shift]
			slab[*c] = proto.NodeID(uint32(v&low)<<vbits | uint32(u))
			*c++
		}
		b.buf = resize(b.buf, (1<<shift)*d)
	}

	marks := resize(b.seen, bitsetWords(n))
	clear(marks)
	b.seen = marks
	mark := func(v proto.NodeID) { marks[v>>6] |= 1 << (v & 63) }
	// The stubs link about (d−1)²/4 pairs twice, at any N; each is listed
	// from both its rows.
	b.dups = slices.Grow(b.dups[:0], min(d*d, len(stubs)))
	dropped := 0
	for lo := 0; lo < n; lo += 1 << shift {
		hi := min(lo+1<<shift, n)
		if !oneBlock {
			span := b.buf[:(hi-lo)*d]
			copy(span, slab[lo*d:hi*d])
			for _, e := range span {
				v := lo + int(uint32(e)>>vbits)
				slab[v*d+int(fill[v].deg)] = proto.NodeID(uint32(e) & vmask)
				fill[v].deg++
			}
		}
		for v := lo; v < hi; v++ {
			id, row := proto.NodeID(v), slab[v*d:(v+1)*d]
			var deg, up int32
			for _, w := range row {
				kept := w != id
				for _, x := range row[:deg] {
					if x == w {
						kept = false
						b.dups = append(b.dups, dupPair{e: [2]proto.NodeID{minID(id, w), maxID(id, w)}})
						break
					}
				}
				if !kept {
					mark(id)
					mark(w)
					dropped++
					continue
				}
				row[deg] = w
				deg++
				up += int32(uint32(id-w) >> 31) // w > id, without a branch
			}
			fill[v] = rowFill{deg, up}
		}
	}

	b.bad = slices.Grow(b.bad[:0], dropped/2)
	if dropped == 0 {
		return len(stubs) / 2
	}
	// A pair listed twice is found, and marked seen, at its first place.
	slices.SortFunc(b.dups, dupPair.cmp)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if marks[u>>6]&(1<<(u&63)) == 0 || marks[v>>6]&(1<<(v&63)) == 0 {
			continue
		}
		if u != v {
			k, ok := slices.BinarySearchFunc(b.dups, dupPair{e: [2]proto.NodeID{minID(u, v), maxID(u, v)}}, dupPair.cmp)
			if !ok {
				continue
			}
			if !b.dups[k].seen {
				b.dups[k].seen = true
				continue
			}
		}
		b.bad = append(b.bad, [2]proto.NodeID{u, v})
	}
	return len(stubs)/2 - dropped/2
}

// dupPair is a pair of nodes the stubs link more than once, and whether
// pairBlocks' last pass has met its first, linked, pair.
type dupPair struct {
	e    [2]proto.NodeID
	seen bool
}

func (x dupPair) cmp(y dupPair) int {
	return cmp.Or(cmp.Compare(x.e[0], y.e[0]), cmp.Compare(x.e[1], y.e[1]))
}

// repair resolves the conflicting stub pairs b.bad of a graph of degree
// d by double edge swaps: for a bad pair (u,v) pick a random good edge
// (x,y) and rewire to (u,x) and (v,y), which preserves all degrees.
// Returns false if repair stalls.
//
// The edge is drawn from an edge list that starts as the pre-repair
// graph's m0 edges in canonical order — row by row, edge (v,w) listed in
// v's row order when v < w — where a swap overwrites the drawn slot with
// (u,x) and appends (v,y). The list is never built: slot i < m0 is read
// from b.swapped if a swap rewrote it, and otherwise found in the
// pre-repair rows, whose first slots fill[v].up holds; slots from m0 on
// are b.added. A swap changes the rows of x and y in place, so each is
// saved before its first swap; appends leave a row's first fill[v].deg
// neighbours as they were. The stubs, dead once paired, index both
// records: stubs[v] holds the place in b.saved of node v's row and
// stubs[n+i] that in b.swapped of slot i (n + m0 ≤ n·d, as only d ≥ 2
// leaves bad pairs). They are read as a sparse set — an index counts
// only if the record it points at is v's or i's — so stale stubs need
// no clearing, and every look-up takes one read at any degree.
func (b *RegularBuilder) repair(rng *rand.Rand, d int) bool {
	bad, g := b.bad, &b.g
	if len(bad) == 0 {
		return true
	}
	m0 := 0
	for v := range b.fill {
		f := &b.fill[v]
		f.up, m0 = int32(m0), m0+int(f.up)
	}
	// A repaired pair rewrites at most one slot, appends one and saves
	// at most two rows of d.
	b.swapped = slices.Grow(b.swapped[:0], len(bad))
	b.added = slices.Grow(b.added[:0], len(bad))
	b.saved = slices.Grow(b.saved[:0], 2*len(bad))
	b.savedID = slices.Grow(b.savedID[:0], 2*len(bad)*d)
	const triesPerPair = 2000
	for _, pair := range bad {
		u, v := pair[0], pair[1]
		repaired := false
		for try := 0; try < triesPerPair && m0+len(b.added) > 0; try++ {
			ei := rng.IntN(m0 + len(b.added))
			e := b.edge(ei, m0)
			x, y := e[0], e[1]
			if rng.IntN(2) == 0 {
				x, y = y, x
			}
			// New edges (u,x) and (v,y) must be simple.
			if u == x || v == y || g.HasEdge(u, x) || g.HasEdge(v, y) {
				continue
			}
			b.save(x)
			b.save(y)
			g.removeEdge(x, y)
			if err := g.AddEdge(u, x); err != nil {
				return false
			}
			if err := g.AddEdge(v, y); err != nil {
				return false
			}
			b.setEdge(ei, m0, [2]proto.NodeID{minID(u, x), maxID(u, x)})
			b.added = append(b.added, [2]proto.NodeID{minID(v, y), maxID(v, y)})
			repaired = true
			break
		}
		if !repaired {
			return false
		}
	}
	return true
}

// edge returns slot i of repair's edge list of m0 pre-repair edges.
func (b *RegularBuilder) edge(i, m0 int) [2]proto.NodeID {
	if i >= m0 {
		return b.added[i-m0]
	}
	if k := b.swapAt(i); k >= 0 {
		return b.swapped[k].e
	}
	// The slot is in the last row whose first slot is at or before it.
	v := sort.Search(len(b.fill), func(w int) bool { return int(b.fill[w].up) > i }) - 1
	k := i - int(b.fill[v].up)
	for _, w := range b.preRow(proto.NodeID(v)) {
		if w > proto.NodeID(v) {
			if k == 0 {
				return [2]proto.NodeID{proto.NodeID(v), w}
			}
			k--
		}
	}
	panic("topology: repair's edge slot past its row")
}

// setEdge writes e to slot i of repair's edge list of m0 pre-repair edges.
func (b *RegularBuilder) setEdge(i, m0 int, e [2]proto.NodeID) {
	if i >= m0 {
		b.added[i-m0] = e
		return
	}
	if k := b.swapAt(i); k >= 0 {
		b.swapped[k].e = e
		return
	}
	b.stubs[len(b.fill)+i] = proto.NodeID(len(b.swapped))
	b.swapped = append(b.swapped, edgeSlot{i, e})
}

// swapAt returns the place in b.swapped of slot i's record, or −1.
func (b *RegularBuilder) swapAt(i int) int {
	k := int(uint32(b.stubs[len(b.fill)+i]))
	if k < len(b.swapped) && b.swapped[k].i == i {
		return k
	}
	return -1
}

// preRow returns v's row as it was before repair: the saved copy if a
// swap has changed the row, the row's first fill[v].deg slots otherwise.
func (b *RegularBuilder) preRow(v proto.NodeID) []proto.NodeID {
	deg := int(b.fill[v].deg)
	if k := b.savedAt(v); k >= 0 {
		at := b.saved[k].at
		return b.savedID[at : at+deg]
	}
	return b.g.adj[v][:deg]
}

// save keeps v's pre-repair row, unless an earlier swap already did.
func (b *RegularBuilder) save(v proto.NodeID) {
	if b.savedAt(v) >= 0 {
		return
	}
	b.stubs[v] = proto.NodeID(len(b.saved))
	b.saved = append(b.saved, savedRow{v, len(b.savedID)})
	b.savedID = append(b.savedID, b.g.adj[v][:b.fill[v].deg]...)
}

// savedAt returns the place in b.saved of node v's record, or −1.
func (b *RegularBuilder) savedAt(v proto.NodeID) int {
	k := int(uint32(b.stubs[v]))
	if k < len(b.saved) && b.saved[k].v == v {
		return k
	}
	return -1
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
