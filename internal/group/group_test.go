package group

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/proto"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed+1)) }

func TestDirectoryFormsGroupsAtK(t *testing.T) {
	d, err := NewDirectory(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(1)
	for n := proto.NodeID(0); n < 3; n++ {
		if err := d.Join(n, rng); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.Groups()) != 0 {
		t.Errorf("groups formed below k: %d", len(d.Groups()))
	}
	if len(d.Pending()) != 3 {
		t.Errorf("pending = %d, want 3", len(d.Pending()))
	}
	if err := d.Join(3, rng); err != nil {
		t.Fatal(err)
	}
	groups := d.Groups()
	if len(groups) != 1 || groups[0].Size() != 4 {
		t.Fatalf("after k joins: %d groups, first size %d", len(groups), groups[0].Size())
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDirectorySplitAt2K(t *testing.T) {
	const k = 3
	d, err := NewDirectory(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(2)
	// 2k joins: one group forms at k, grows to 2k−1, then the 2k-th
	// member triggers a split into two groups of k.
	for n := proto.NodeID(0); n < 2*k; n++ {
		if err := d.Join(n, rng); err != nil {
			t.Fatal(err)
		}
	}
	groups := d.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 after split", len(groups))
	}
	for _, g := range groups {
		if g.Size() != k {
			t.Errorf("group %d size %d, want %d", g.ID, g.Size(), k)
		}
	}
	if d.Splits != 1 {
		t.Errorf("Splits = %d, want 1", d.Splits)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDirectoryLeaveDissolvesSmallGroups(t *testing.T) {
	const k = 3
	d, err := NewDirectory(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(3)
	for n := proto.NodeID(0); n < k; n++ {
		if err := d.Join(n, rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Leave(0, rng); err != nil {
		t.Fatal(err)
	}
	// Group fell below k: dissolved; survivors pending.
	if len(d.Groups()) != 0 {
		t.Errorf("groups = %d, want 0", len(d.Groups()))
	}
	if len(d.Pending()) != 2 {
		t.Errorf("pending = %d, want 2", len(d.Pending()))
	}
	if d.Dissolves != 1 {
		t.Errorf("Dissolves = %d, want 1", d.Dissolves)
	}
	if err := d.Leave(99, rng); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Leave(unknown) = %v", err)
	}
}

func TestDirectoryDuplicateJoin(t *testing.T) {
	d, err := NewDirectory(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(4)
	if err := d.Join(1, rng); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(1, rng); !errors.Is(err, ErrAlreadyJoined) {
		t.Errorf("duplicate join = %v", err)
	}
	if _, err := NewDirectory(1); !errors.Is(err, ErrBadK) {
		t.Error("k=1 accepted")
	}
}

// Property: after any prefix of random joins/leaves, every formed group
// has size in [k, 2k−1] and back-references are consistent.
func TestDirectoryInvariantUnderChurn(t *testing.T) {
	f := func(seed uint64, ops []bool) bool {
		rng := testRNG(seed)
		d, err := NewDirectory(3)
		if err != nil {
			return false
		}
		present := make(map[proto.NodeID]bool)
		next := proto.NodeID(0)
		for _, join := range ops {
			if join || len(present) == 0 {
				if err := d.Join(next, rng); err != nil {
					return false
				}
				present[next] = true
				next++
			} else {
				// Remove a random present node.
				var victims []proto.NodeID
				for n := range present {
					victims = append(victims, n)
				}
				v := victims[rng.IntN(len(victims))]
				if err := d.Leave(v, rng); err != nil {
					return false
				}
				delete(present, v)
			}
			if err := d.Validate(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOriginPosteriorABCExample(t *testing.T) {
	// §IV-C: members A,B,C where {A,B,C} is one group and B,C also share
	// a second group. A message from the triple group then has origin
	// probability 1/2 for A instead of the desired 1/3.
	d, err := NewOverlapDirectory(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const a, b, c = 1, 2, 3
	triple := d.AddExplicitGroup([]proto.NodeID{a, b, c})
	d.AddExplicitGroup([]proto.NodeID{b, c})

	post := d.OriginPosterior(triple)
	if math.Abs(post[a]-0.5) > 1e-9 {
		t.Errorf("P(A) = %v, want 0.5 (the paper's skew)", post[a])
	}
	if math.Abs(post[b]-0.25) > 1e-9 || math.Abs(post[c]-0.25) > 1e-9 {
		t.Errorf("P(B),P(C) = %v,%v, want 0.25 each", post[b], post[c])
	}

	// The fix: enforce equal group counts — give A a second group too.
	d.AddExplicitGroup([]proto.NodeID{a, 4})
	post = d.OriginPosterior(triple)
	for _, n := range []proto.NodeID{a, b, c} {
		if math.Abs(post[n]-1.0/3) > 1e-9 {
			t.Errorf("after enforcement P(%d) = %v, want 1/3", n, post[n])
		}
	}
}

func TestSelectGroupMatchesPosteriorEmpirically(t *testing.T) {
	// Empirical check of the same example: sample senders uniformly and
	// group choices via SelectGroup; condition on the triple group.
	d, err := NewOverlapDirectory(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const a, b, c = 1, 2, 3
	triple := d.AddExplicitGroup([]proto.NodeID{a, b, c})
	d.AddExplicitGroup([]proto.NodeID{b, c})
	rng := testRNG(9)
	counts := map[proto.NodeID]int{}
	total := 0
	nodes := []proto.NodeID{a, b, c}
	for i := 0; i < 30000; i++ {
		sender := nodes[rng.IntN(len(nodes))]
		if d.SelectGroup(sender, rng) == triple {
			counts[sender]++
			total++
		}
	}
	pa := float64(counts[a]) / float64(total)
	if pa < 0.46 || pa > 0.54 {
		t.Errorf("empirical P(A) = %v, want ≈ 0.5", pa)
	}
}

func TestOverlapDirectoryPlacesNodesInMultipleGroups(t *testing.T) {
	d, err := NewOverlapDirectory(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(11)
	for n := proto.NodeID(0); n < 12; n++ {
		if err := d.Join(n, rng); err != nil {
			t.Fatal(err)
		}
	}
	multi := 0
	for n := proto.NodeID(0); n < 12; n++ {
		if len(d.GroupsOf(n)) == 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no node placed in two groups despite overlap=2")
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}
