package topology

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/proto"
)

// sameBuild builds (n, d) on b and with a fresh RandomRegular from two
// generators seeded alike, and fails unless both return the same error or
// the same graph, row for row, with the generators in the same state
// afterwards. It reports whether a graph was built.
func sameBuild(t *testing.T, b *RegularBuilder, n, d int, seed uint64) bool {
	t.Helper()
	gotRNG, wantRNG := testRNG(seed), testRNG(seed)
	got, gotErr := b.Build(n, d, gotRNG)
	want, wantErr := RandomRegular(n, d, wantRNG)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("n=%d d=%d seed=%d: builder error %v, fresh error %v", n, d, seed, gotErr, wantErr)
	}
	if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
		t.Fatalf("n=%d d=%d seed=%d: next draw %#x after the builder, %#x after a fresh build", n, d, seed, g, w)
	}
	if gotErr != nil {
		return false
	}
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("n=%d d=%d seed=%d: builder graph N=%d M=%d, fresh N=%d M=%d", n, d, seed, got.N(), got.M(), want.N(), want.M())
	}
	for v := range n {
		if g, w := got.Neighbors(proto.NodeID(v)), want.Neighbors(proto.NodeID(v)); !slices.Equal(g, w) {
			t.Fatalf("n=%d d=%d seed=%d: builder row %d is %v, fresh %v", n, d, seed, v, g, w)
		}
	}
	return true
}

// TestRegularBuilderMatchesFresh runs one builder through a sequence of
// overlays that grows and shrinks N, crosses the look-ahead threshold
// and includes small dense cases — degree 2 on 6 or 8 nodes comes out
// disconnected often enough to restart, K5 and the near-complete ones
// need repair — plus infeasible ones in between. Every graph must equal
// a fresh RandomRegular's, row for row, with the generator left in the
// same state.
func TestRegularBuilderMatchesFresh(t *testing.T) {
	cases := []struct {
		n, d int
	}{
		{1000, 8}, {6, 2}, {5, 4}, {200, 8}, {8, 2}, {10, 8}, {2000, 6},
		{8, 6}, {7, 3}, {1000, 8}, {aheadMinN + 100, 4}, {6, 4}, {50, 3},
		{300, 8}, {6, 2}, {1, 0}, {12, 11}, {1000, 8},
	}
	var b RegularBuilder
	built := 0
	for seed := uint64(1); seed <= 4; seed++ {
		for _, c := range cases {
			if sameBuild(t, &b, c.n, c.d, seed) {
				built++
			}
		}
	}
	if built < 3*len(cases) {
		t.Errorf("only %d of %d builds succeeded — the sequence is mostly infeasible", built, 4*len(cases))
	}
}

// TestRegularBuilderWarmAllocs holds a warm builder to zero allocations
// per same-size build, below and above the look-ahead threshold. Each
// build reseeds one generator, so every measured build makes the same
// graph as the warm-up build, with the same repair work.
func TestRegularBuilderWarmAllocs(t *testing.T) {
	for _, c := range []struct{ n, d int }{{1000, 8}, {aheadMinN + 100, 4}} {
		var b RegularBuilder
		pcg := rand.NewPCG(0, 0)
		rng := rand.New(pcg)
		allocs := testing.AllocsPerRun(5, func() {
			pcg.Seed(11, 12)
			if _, err := b.Build(c.n, c.d, rng); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm Build(%d, %d) made %v allocations, want 0", c.n, c.d, allocs)
		}
	}
}

// FuzzRegularBuild is TestRegularBuilderMatchesFresh over byte-coded
// sequences: each three bytes are one (n, d, seed) build on the same
// builder, n up to 320 and d below 12, and each must equal a fresh
// RandomRegular.
func FuzzRegularBuild(f *testing.F) {
	f.Add([]byte{200, 8, 1, 5, 2, 2, 4, 4, 3})
	f.Add([]byte{6, 2, 1, 6, 2, 2, 6, 2, 3, 255, 8, 4})
	f.Add([]byte{9, 6, 7, 1, 0, 0, 3, 2, 9, 100, 11, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b RegularBuilder
		for i := 0; i+2 < len(data) && i < 3*32; i += 3 {
			n := 1 + int(data[i])%64 + 64*int(data[i+2]&3)
			d := int(data[i+1]) % 12
			sameBuild(t, &b, n, d, uint64(data[i+2]))
		}
	})
}
