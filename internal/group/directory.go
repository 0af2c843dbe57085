// Package group implements the membership machinery of §IV-C: groups of
// size g ∈ [k, 2k−1] that split in two when they would reach 2k, react to
// joins, leaves and evictions, and optionally overlap with an enforced
// per-node group count (the paper's fix for the skewed origin
// probabilities of the A/B/C example).
//
// Directory is a pure data structure: simulations place every node
// through it, and live nodes take a static group.
package group

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/proto"
	"repro/internal/slab"
)

// ID identifies a group.
type ID uint32

// None is the absent-group sentinel.
const None ID = 0

// Group is one anonymity group.
type Group struct {
	ID      ID
	Members []proto.NodeID // sorted
	pos     int            // position in the owning Directory's bySize heap
}

// Size returns the member count.
func (g *Group) Size() int { return len(g.Members) }

// Contains reports membership.
func (g *Group) Contains(n proto.NodeID) bool {
	_, ok := slices.BinarySearch(g.Members, n)
	return ok
}

// Directory errors.
var (
	// ErrUnknownNode indicates the node is not tracked.
	ErrUnknownNode = errors.New("group: unknown node")
	// ErrAlreadyJoined indicates a duplicate join.
	ErrAlreadyJoined = errors.New("group: node already joined")
	// ErrBadK indicates an invalid anonymity parameter.
	ErrBadK = errors.New("group: k must be at least 2")
)

// Directory maintains the group partition under joins and leaves,
// preserving the invariant that every formed group has size in [k, 2k−1]
// whenever enough nodes exist; surplus nodes wait in a pending pool
// ("until the network is large enough to satisfy the minimal group size
// k, privacy can not be guaranteed").
type Directory struct {
	k       int
	overlap int // groups per node; 1 = partition (no overlap)

	nextID ID
	groups map[ID]*Group
	// bySize holds the same groups as a heap on (size, ID): its root is
	// where the next joiner goes, so placement never scans the groups.
	bySize sizeHeap
	// byNode lists the groups of every known node. A node still waiting
	// in pending has an entry too (an empty one), so Known is one lookup.
	byNode  map[proto.NodeID][]ID
	pending []proto.NodeID

	// groupStore, memberStore and idStore hold the groups, their member
	// lists (room for 2k each, so a join never moves one) and the nodes'
	// group lists (room for overlap each). Reset takes all of it back.
	groupStore  slab.Arena[Group]
	memberStore slab.Arena[proto.NodeID]
	idStore     slab.Arena[ID]
	// scratch holds the members a split shuffles or a fresh group takes
	// from the pending pool.
	scratch []proto.NodeID

	// Splits, merges and failover evictions counted for experiments.
	Splits    int
	Dissolves int
	Evictions int
}

// NewDirectory returns a Directory with anonymity parameter k and no
// overlap (each node in exactly one group once placed).
func NewDirectory(k int) (*Directory, error) {
	return NewOverlapDirectory(k, 1)
}

// NewOverlapDirectory returns a Directory that places every node in
// `overlap` groups — the §IV-C "enforce a number of groups" policy.
func NewOverlapDirectory(k, overlap int) (*Directory, error) {
	d := &Directory{
		overlap:     max(overlap, 1),
		groups:      make(map[ID]*Group),
		byNode:      make(map[proto.NodeID][]ID),
		groupStore:  slab.New[Group](64),
		memberStore: slab.New[proto.NodeID](1024),
		idStore:     slab.New[ID](1024),
	}
	if err := d.Reset(k); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset empties the directory for anonymity parameter k, keeping its
// overlap: NewOverlapDirectory(k, overlap) is a Reset of a new
// directory, and a reset one keeps the capacity its maps and size heap
// grew to and the storage its groups and lists were carved from.
// Groups, member lists and GroupsOf results handed out before a Reset
// are invalid after it: the directory carves the next ones from the
// same storage.
func (d *Directory) Reset(k int) error {
	if k < 2 {
		return ErrBadK
	}
	clear(d.bySize)
	d.groupStore.Rewind()
	d.memberStore.Rewind()
	d.idStore.Rewind()
	*d = Directory{
		k:           k,
		overlap:     d.overlap,
		groups:      d.groups,
		bySize:      d.bySize[:0],
		byNode:      d.byNode,
		pending:     d.pending[:0],
		groupStore:  d.groupStore,
		memberStore: d.memberStore,
		idStore:     d.idStore,
		scratch:     d.scratch,
	}
	clear(d.groups)
	clear(d.byNode)
	return nil
}

// K returns the anonymity parameter.
func (d *Directory) K() int { return d.k }

// MaxSize returns the maximum group size 2k−1.
func (d *Directory) MaxSize() int { return 2*d.k - 1 }

// Groups returns all formed groups sorted by ID.
func (d *Directory) Groups() []*Group {
	out := slices.Clone(d.bySize)
	slices.SortFunc(out, func(a, b *Group) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Group returns the group with the given ID, or nil.
func (d *Directory) Group(id ID) *Group { return d.groups[id] }

// remove drops a group from both indexes.
func (d *Directory) remove(g *Group) {
	delete(d.groups, g.ID)
	heap.Remove(&d.bySize, g.pos)
}

// sizeHeap is a container/heap of groups, smallest first and lowest ID
// first among equally small ones — the order placement prefers. Groups
// record their position, so a size change is one heap.Fix.
type sizeHeap []*Group

// smaller is the placement preference: fewer members, then lower ID.
func smaller(a, b *Group) bool {
	return a.Size() < b.Size() || a.Size() == b.Size() && a.ID < b.ID
}

func (h sizeHeap) Len() int           { return len(h) }
func (h sizeHeap) Less(i, j int) bool { return smaller(h[i], h[j]) }
func (h sizeHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h *sizeHeap) Push(x any) {
	g := x.(*Group)
	g.pos = len(*h)
	*h = append(*h, g)
}

func (h *sizeHeap) Pop() any {
	old := *h
	g := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return g
}

// smallestWithout returns the most preferred group at or below heap
// position i that is not listed in skip and beats best, or best if there
// is none. A group that qualifies hides its whole subtree, so the search
// visits at most 2·len(skip)+1 positions.
func (h sizeHeap) smallestWithout(i int, skip []ID, best *Group) *Group {
	if i >= len(h) || best != nil && !smaller(h[i], best) {
		return best
	}
	if !slices.Contains(skip, h[i].ID) {
		return h[i]
	}
	best = h.smallestWithout(2*i+1, skip, best)
	return h.smallestWithout(2*i+2, skip, best)
}

// GroupsOf returns the IDs of the groups containing the node. The slice
// is the directory's own: read it before the next Join, Leave, Evict or
// Reset, and do not modify it.
func (d *Directory) GroupsOf(n proto.NodeID) []ID {
	ids := d.byNode[n]
	return ids[:len(ids):len(ids)]
}

// Pending returns the nodes awaiting a group.
func (d *Directory) Pending() []proto.NodeID { return slices.Clone(d.pending) }

// Known reports whether the node has joined (placed or pending).
func (d *Directory) Known(n proto.NodeID) bool {
	_, ok := d.byNode[n]
	return ok
}

// Join admits a node. It is placed immediately when groups have capacity
// or enough pending nodes accumulate to form a fresh group of size k.
func (d *Directory) Join(n proto.NodeID, rng *rand.Rand) error {
	if d.Known(n) {
		return fmt.Errorf("%w: %d", ErrAlreadyJoined, n)
	}
	d.byNode[n] = d.idStore.Take(d.overlap)[:0]
	d.pending = append(d.pending, n)
	d.rebalance(rng)
	return nil
}

// Leave removes a node from all groups and the pending pool. Groups
// shrinking below k dissolve; their members re-enter placement.
func (d *Directory) Leave(n proto.NodeID, rng *rand.Rand) error {
	if !d.Known(n) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, n)
	}
	if i := slices.Index(d.pending, n); i >= 0 {
		d.pending = slices.Delete(d.pending, i, i+1)
	}
	for _, gid := range d.byNode[n] {
		g := d.groups[gid]
		if g == nil {
			continue
		}
		if i, ok := slices.BinarySearch(g.Members, n); ok {
			g.Members = slices.Delete(g.Members, i, i+1)
			heap.Fix(&d.bySize, g.pos)
		}
		if g.Size() < d.k {
			d.dissolve(g)
		}
	}
	delete(d.byNode, n)
	d.rebalance(rng)
	return nil
}

// Evict removes a crashed or unresponsive node on a member's report —
// the directory side of DC-net failover. It is Leave with eviction
// accounting and idempotence: concurrent reports from several survivors
// all land here, and every report after the first is a no-op rather
// than an error. The evictee does not re-enter the pending pool (it is
// gone, not waiting for placement).
func (d *Directory) Evict(n proto.NodeID, rng *rand.Rand) error {
	if !d.Known(n) {
		return nil // already evicted (or never joined) — idempotent
	}
	d.Evictions++
	return d.Leave(n, rng)
}

// dissolve removes a group and sends its members back to placement
// (keeping their other group memberships intact).
func (d *Directory) dissolve(g *Group) {
	d.Dissolves++
	d.remove(g)
	for _, m := range g.Members {
		ids := d.byNode[m]
		if i := slices.Index(ids, g.ID); i >= 0 {
			ids = slices.Delete(ids, i, i+1)
		}
		d.byNode[m] = ids
		if len(ids) == 0 && !slices.Contains(d.pending, m) {
			d.pending = append(d.pending, m)
		}
	}
}

// placementsNeeded returns how many more groups the node needs.
func (d *Directory) placementsNeeded(n proto.NodeID) int {
	return d.overlap - len(d.byNode[n])
}

// rebalance places pending nodes: first into groups with spare capacity,
// then into fresh groups of size k formed from the pending pool. Groups
// reaching 2k split into two groups of size k (§IV-C).
func (d *Directory) rebalance(rng *rand.Rand) {
	progress := true
	for progress {
		progress = false

		// Fill existing groups smallest-first, filtering the pool in
		// place (nothing below touches it before the loop ends).
		remaining := d.pending[:0]
		for _, n := range d.pending {
			g := d.smallestOpenGroup(n)
			if g == nil {
				remaining = append(remaining, n)
				continue
			}
			d.addToGroup(g, n, rng)
			if d.placementsNeeded(n) > 0 {
				remaining = append(remaining, n)
			}
			progress = true
		}
		d.pending = remaining

		// Form fresh groups of exactly k from the pending pool.
		for len(d.pending) >= d.k {
			members := append(d.scratch[:0], d.pending[:d.k]...)
			d.scratch = members
			d.pending = slices.Delete(d.pending, 0, d.k)
			g := d.newGroup(members)
			for _, m := range members {
				d.byNode[m] = append(d.byNode[m], g.ID)
				if d.placementsNeeded(m) > 0 && !slices.Contains(d.pending, m) {
					d.pending = append(d.pending, m)
				}
			}
			progress = true
		}
	}
}

// smallestOpenGroup returns the smallest group that can admit n — the
// one with the lowest ID among equally small ones — or nil. Membership
// is read off n's own group list, which by the byNode invariant equals
// g.Contains(n) and is at most overlap entries long.
func (d *Directory) smallestOpenGroup(n proto.NodeID) *Group {
	g := d.bySize.smallestWithout(0, d.byNode[n], nil)
	if g == nil || g.Size() > d.MaxSize() {
		return nil
	}
	return g
}

// newGroup forms a group of a copy of members, carved from the
// directory's storage with room for 2k members.
func (d *Directory) newGroup(members []proto.NodeID) *Group {
	d.nextID++
	g := &d.groupStore.Take(1)[0]
	room := d.memberStore.Take(max(len(members), 2*d.k))
	*g = Group{ID: d.nextID, Members: append(room[:0], members...)}
	slices.Sort(g.Members)
	d.groups[g.ID] = g
	heap.Push(&d.bySize, g)
	return g
}

// addToGroup inserts n and splits the group if it reached 2k.
func (d *Directory) addToGroup(g *Group, n proto.NodeID, rng *rand.Rand) {
	i, _ := slices.BinarySearch(g.Members, n)
	g.Members = slices.Insert(g.Members, i, n)
	heap.Fix(&d.bySize, g.pos)
	d.byNode[n] = append(d.byNode[n], g.ID)
	if g.Size() >= 2*d.k {
		d.split(g, rng)
	}
}

// split partitions a size-2k group into two size-k groups at random
// ("a group of size 2k can be split in two groups of size k").
func (d *Directory) split(g *Group, rng *rand.Rand) {
	d.Splits++
	members := append(d.scratch[:0], g.Members...)
	d.scratch = members
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	left, right := members[:d.k], members[d.k:]

	d.remove(g)
	for _, m := range g.Members {
		ids := d.byNode[m]
		if i := slices.Index(ids, g.ID); i >= 0 {
			d.byNode[m] = slices.Delete(ids, i, i+1)
		}
	}
	for _, half := range [][]proto.NodeID{left, right} {
		ng := d.newGroup(half)
		for _, m := range ng.Members {
			d.byNode[m] = append(d.byNode[m], ng.ID)
		}
	}
}

// Validate checks all invariants; it returns the first violation.
func (d *Directory) Validate() error {
	if len(d.bySize) != len(d.groups) {
		return fmt.Errorf("size heap holds %d groups, directory %d", len(d.bySize), len(d.groups))
	}
	for id, g := range d.groups {
		if g.ID != id {
			return fmt.Errorf("group %d has mismatched ID %d", id, g.ID)
		}
		if g.pos >= len(d.bySize) || d.bySize[g.pos] != g {
			return fmt.Errorf("group %d not at its recorded heap position %d", id, g.pos)
		}
		if up := d.bySize[(g.pos-1)/2]; smaller(g, up) {
			return fmt.Errorf("group %d (size %d) above smaller group %d (size %d) in the size heap", up.ID, up.Size(), id, g.Size())
		}
		if g.Size() < d.k || g.Size() > d.MaxSize() {
			return fmt.Errorf("group %d size %d outside [%d,%d]", id, g.Size(), d.k, d.MaxSize())
		}
		if !slices.IsSorted(g.Members) {
			return fmt.Errorf("group %d members unsorted", id)
		}
		for _, m := range g.Members {
			if !slices.Contains(d.byNode[m], id) {
				return fmt.Errorf("node %d missing back-reference to group %d", m, id)
			}
		}
	}
	for n, ids := range d.byNode {
		if len(ids) > d.overlap {
			return fmt.Errorf("node %d in %d groups, overlap limit %d", n, len(ids), d.overlap)
		}
		for _, id := range ids {
			g := d.groups[id]
			if g == nil {
				return fmt.Errorf("node %d references missing group %d", n, id)
			}
			if !g.Contains(n) {
				return fmt.Errorf("node %d not in referenced group %d", n, id)
			}
		}
	}
	return nil
}

// AddExplicitGroup installs a group with exactly the given members,
// bypassing size invariants and the pending pool. Experiments use it to
// reconstruct literal scenarios such as the §IV-C A/B/C example; Validate
// may fail afterwards by design.
func (d *Directory) AddExplicitGroup(members []proto.NodeID) ID {
	g := d.newGroup(members)
	for _, m := range g.Members {
		d.byNode[m] = append(d.byNode[m], g.ID)
	}
	return g.ID
}

// SelectGroup picks the group a sender uses for its next message,
// uniformly among the node's groups — the "naive" selection of §IV-C
// whose skew E8 quantifies. It returns None for unplaced nodes.
func (d *Directory) SelectGroup(n proto.NodeID, rng *rand.Rand) ID {
	ids := d.byNode[n]
	if len(ids) == 0 {
		return None
	}
	return ids[rng.IntN(len(ids))]
}

// OriginPosterior computes the adversary's posterior P(origin = member |
// message observed in group gid), assuming a uniform prior over the
// group's members and that each member selects uniformly among its own
// groups — the analysis behind the paper's A/B/C example.
func (d *Directory) OriginPosterior(gid ID) map[proto.NodeID]float64 {
	g := d.groups[gid]
	if g == nil {
		return nil
	}
	post := make(map[proto.NodeID]float64, g.Size())
	var total float64
	for _, m := range g.Members {
		w := 1.0 / float64(len(d.byNode[m]))
		post[m] = w
		total += w
	}
	for m := range post {
		post[m] /= total
	}
	return post
}
