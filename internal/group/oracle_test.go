package group

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/proto"
)

// oracleDirectory is the Directory as it stood before group placement was
// indexed, kept verbatim as the reference the differential test drives
// the indexed one against: groups live in a map, Groups() copies and
// sorts it, and smallestOpenGroup re-derives the placement from that copy
// on every call — O(G log G) and one allocation per node placed. Only
// the mutation path is kept; the read-only analytics never differed.
type oracleDirectory struct {
	k       int
	overlap int

	nextID  ID
	groups  map[ID]*Group
	byNode  map[proto.NodeID][]ID
	pending []proto.NodeID

	Splits    int
	Dissolves int
	Evictions int
}

func newOracleDirectory(k, overlap int) *oracleDirectory {
	return &oracleDirectory{
		k:       k,
		overlap: overlap,
		groups:  make(map[ID]*Group),
		byNode:  make(map[proto.NodeID][]ID),
	}
}

func (d *oracleDirectory) MaxSize() int { return 2*d.k - 1 }

func (d *oracleDirectory) Groups() []*Group {
	out := make([]*Group, 0, len(d.groups))
	for _, g := range d.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (d *oracleDirectory) Known(n proto.NodeID) bool {
	if _, ok := d.byNode[n]; ok {
		return true
	}
	return slices.Contains(d.pending, n)
}

func (d *oracleDirectory) Join(n proto.NodeID, rng *rand.Rand) error {
	if d.Known(n) {
		return fmt.Errorf("%w: %d", ErrAlreadyJoined, n)
	}
	d.pending = append(d.pending, n)
	d.rebalance(rng)
	return nil
}

func (d *oracleDirectory) Leave(n proto.NodeID, rng *rand.Rand) error {
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
		}
		if g.Size() < d.k {
			d.dissolve(g)
		}
	}
	delete(d.byNode, n)
	d.rebalance(rng)
	return nil
}

func (d *oracleDirectory) Evict(n proto.NodeID, rng *rand.Rand) error {
	if !d.Known(n) {
		return nil
	}
	d.Evictions++
	return d.Leave(n, rng)
}

func (d *oracleDirectory) dissolve(g *Group) {
	d.Dissolves++
	delete(d.groups, g.ID)
	for _, m := range g.Members {
		ids := d.byNode[m]
		if i := slices.Index(ids, g.ID); i >= 0 {
			ids = slices.Delete(ids, i, i+1)
		}
		if len(ids) == 0 {
			delete(d.byNode, m)
			if !slices.Contains(d.pending, m) {
				d.pending = append(d.pending, m)
			}
		} else {
			d.byNode[m] = ids
		}
	}
}

func (d *oracleDirectory) placementsNeeded(n proto.NodeID) int {
	return d.overlap - len(d.byNode[n])
}

func (d *oracleDirectory) rebalance(rng *rand.Rand) {
	progress := true
	for progress {
		progress = false

		var remaining []proto.NodeID
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

		for len(d.pending) >= d.k {
			members := slices.Clone(d.pending[:d.k])
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

func (d *oracleDirectory) smallestOpenGroup(n proto.NodeID) *Group {
	var best *Group
	for _, g := range d.Groups() {
		if g.Contains(n) || g.Size() >= d.MaxSize()+1 {
			continue
		}
		if best == nil || g.Size() < best.Size() {
			best = g
		}
	}
	return best
}

func (d *oracleDirectory) newGroup(members []proto.NodeID) *Group {
	d.nextID++
	g := &Group{ID: d.nextID, Members: slices.Clone(members)}
	slices.Sort(g.Members)
	d.groups[g.ID] = g
	return g
}

func (d *oracleDirectory) addToGroup(g *Group, n proto.NodeID, rng *rand.Rand) {
	i, _ := slices.BinarySearch(g.Members, n)
	g.Members = slices.Insert(g.Members, i, n)
	d.byNode[n] = append(d.byNode[n], g.ID)
	if g.Size() >= 2*d.k {
		d.split(g, rng)
	}
}

func (d *oracleDirectory) split(g *Group, rng *rand.Rand) {
	d.Splits++
	members := slices.Clone(g.Members)
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	left, right := members[:d.k], members[d.k:]

	delete(d.groups, g.ID)
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
