package group

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/proto"
)

// diffAgainstOracle reports the first difference between the indexed
// directory and the oracle after they were driven with the same
// operations, or "" when they agree on everything a caller can observe.
func diffAgainstOracle(d *Directory, o *oracleDirectory, universe int) string {
	got, want := d.Groups(), o.Groups()
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || !slices.Equal(got[i].Members, want[i].Members) {
			return fmt.Sprintf("group at %d is %d %v, oracle has %d %v", i, got[i].ID, got[i].Members, want[i].ID, want[i].Members)
		}
	}
	if !slices.Equal(d.Pending(), o.pending) {
		return fmt.Sprintf("pending %v, oracle has %v", d.Pending(), o.pending)
	}
	if d.Splits != o.Splits || d.Dissolves != o.Dissolves || d.Evictions != o.Evictions {
		return fmt.Sprintf("splits/dissolves/evictions %d/%d/%d, oracle has %d/%d/%d",
			d.Splits, d.Dissolves, d.Evictions, o.Splits, o.Dissolves, o.Evictions)
	}
	for n := proto.NodeID(0); int(n) < universe; n++ {
		if d.Known(n) != o.Known(n) {
			return fmt.Sprintf("Known(%d) = %v, oracle says %v", n, d.Known(n), o.Known(n))
		}
		if !slices.Equal(d.GroupsOf(n), o.byNode[n]) {
			return fmt.Sprintf("GroupsOf(%d) = %v, oracle has %v", n, d.GroupsOf(n), o.byNode[n])
		}
	}
	if err := d.Validate(); err != nil {
		return "Validate: " + err.Error()
	}
	return ""
}

// The indexed directory must place every node exactly where the
// re-deriving one did: same group IDs, members, pending pool, counters,
// and the same number of draws from the caller's RNG. The reset arm
// drives a directory that was filled, churned and Reset from another k
// against the same fresh oracle: Reset must leave nothing behind. It
// then resets that directory once more and replays the same operations,
// so every group and list is carved from storage the first pass used.
// Before each Reset the storage is overwritten with junk, so a group or
// list that reads what was there before it was carved fails the match.
func TestDirectoryMatchesOracle(t *testing.T) {
	for _, arm := range []string{"", "reset,"} {
		for _, k := range []int{2, 5, 20} {
			for _, overlap := range []int{1, 2, 3} {
				for seed := uint64(1); seed <= 4; seed++ {
					t.Run(fmt.Sprintf("%sk=%d,overlap=%d,seed=%d", arm, k, overlap, seed), func(t *testing.T) {
						var d *Directory
						if arm == "" {
							var err error
							if d, err = NewOverlapDirectory(k, overlap); err != nil {
								t.Fatal(err)
							}
						} else {
							d = usedDirectory(t, k+3, overlap, seed)
							poisonAndReset(t, d, k)
						}
						matchOracle(t, d, k, overlap, seed)
						if arm != "" {
							poisonAndReset(t, d, k)
							matchOracle(t, d, k, overlap, seed)
						}
					})
				}
			}
		}
	}
}

// poisonAndReset overwrites everything d's storage lent with junk, then
// resets d for k.
func poisonAndReset(t *testing.T, d *Directory, k int) {
	t.Helper()
	junk := []proto.NodeID{1 << 30, 1<<30 + 1}
	d.groupStore.Fill(Group{ID: 1 << 31, Members: junk, pos: -1})
	d.memberStore.Fill(1 << 30)
	d.idStore.Fill(1 << 31)
	if err := d.Reset(k); err != nil {
		t.Fatal(err)
	}
}

// usedDirectory returns a directory with anonymity parameter k that has
// placed, split, dissolved and evicted, so every index holds entries.
func usedDirectory(t *testing.T, k, overlap int, seed uint64) *Directory {
	t.Helper()
	d, err := NewOverlapDirectory(k, overlap)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(seed + 200)
	for _, v := range rng.Perm(12 * k) {
		if err := d.Join(proto.NodeID(v), rng); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range rng.Perm(12 * k)[:5*k] {
		if err := d.Evict(proto.NodeID(v), rng); err != nil {
			t.Fatal(err)
		}
	}
	if d.Splits == 0 || d.Dissolves == 0 || len(d.groups) == 0 {
		t.Fatalf("used directory too tame: %d splits, %d dissolves, %d groups", d.Splits, d.Dissolves, len(d.groups))
	}
	return d
}

// matchOracle drives d and a fresh oracle with the same 800 seeded
// joins, leaves and evictions and fails at the first difference.
func matchOracle(t *testing.T, d *Directory, k, overlap int, seed uint64) {
	t.Helper()
	o := newOracleDirectory(k, overlap)
	rngD, rngO, ops := testRNG(seed), testRNG(seed), testRNG(seed+100)
	universe := 8 * k
	for step := 0; step < 800; step++ {
		// Grow for 200 steps, then shrink, so groups both split and
		// fall below k.
		joinBias := 8
		if step%400 >= 200 {
			joinBias = 1
		}
		n := proto.NodeID(ops.IntN(universe))
		var op string
		var errD, errO error
		switch r := ops.IntN(10); {
		case !o.Known(n) && r < joinBias:
			op = "join"
			errD, errO = d.Join(n, rngD), o.Join(n, rngO)
		case r < 8:
			op = "leave"
			errD, errO = d.Leave(n, rngD), o.Leave(n, rngO)
		default: // known or not: evicting an absent node is a no-op
			op = "evict"
			errD, errO = d.Evict(n, rngD), o.Evict(n, rngO)
		}
		if (errD == nil) != (errO == nil) {
			t.Fatalf("step %d %s %d: error %v, oracle %v", step, op, n, errD, errO)
		}
		if diff := diffAgainstOracle(d, o, universe); diff != "" {
			t.Fatalf("step %d %s %d: %s", step, op, n, diff)
		}
	}
	if d.Splits == 0 || d.Dissolves == 0 || d.Evictions == 0 {
		t.Errorf("sequence too tame: %d splits, %d dissolves, %d evictions", d.Splits, d.Dissolves, d.Evictions)
	}
	if a, b := rngD.Uint64(), rngO.Uint64(); a != b {
		t.Errorf("RNG positions differ after the run: next draw %d, oracle %d", a, b)
	}
}

// joinAll joins nodes 0..n-1 in a seeded random order, the way
// flexnet.Simulate fills its directory.
func joinAll(tb testing.TB, k, n int, rng *rand.Rand) *Directory {
	d, err := NewDirectory(k)
	if err != nil {
		tb.Fatal(err)
	}
	for _, v := range rng.Perm(n) {
		if err := d.Join(proto.NodeID(v), rng); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// A cost guard that does not depend on the clock: what one Join
// allocates must not grow with the number of groups already formed.
func TestJoinAllocsIndependentOfGroupCount(t *testing.T) {
	rng := testRNG(1)
	d := joinAll(t, 5, 20000, rng)
	if g := len(d.Groups()); g < 2000 {
		t.Fatalf("only %d groups formed, want at least 2000", g)
	}
	next := proto.NodeID(20000)
	avg := testing.AllocsPerRun(200, func() {
		if err := d.Join(next, rng); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg > 4 {
		t.Errorf("Join allocates %.0f times with %d groups formed, want at most 4", avg, len(d.Groups()))
	}
}

func BenchmarkDirectoryJoin(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("N=%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				joinAll(b, 5, n, testRNG(1))
			}
		})
	}
}
