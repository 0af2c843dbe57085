package adaptive

import (
	"math"
	"testing"

	"repro/internal/model"
)

func TestAlphaBoundaries(t *testing.T) {
	for _, d := range []int{2, 3, 4, 8} {
		if got := Alpha(d, 1, 0); got != 1 {
			t.Errorf("Alpha(%d,1,0) = %v, want 1 (forced first pass)", d, got)
		}
		for rho := 1; rho <= 30; rho++ {
			for h := 1; h <= rho; h++ {
				a := Alpha(d, rho, h)
				if a < 0 || a > 1 {
					t.Fatalf("Alpha(%d,%d,%d) = %v out of [0,1]", d, rho, h, a)
				}
			}
		}
	}
}

func TestAlphaLineClosedForm(t *testing.T) {
	// d=2 reduces to h/(ρ+1).
	for rho := 1; rho <= 10; rho++ {
		for h := 1; h <= rho; h++ {
			want := float64(h) / float64(rho+1)
			if got := Alpha(2, rho, h); math.Abs(got-want) > 1e-12 {
				t.Errorf("Alpha(2,%d,%d) = %v, want %v", rho, h, got, want)
			}
		}
	}
}

// TestAlphaPreservesUniformity evolves the exact Markov chain over the
// token depth h and verifies the perfect-obfuscation invariant
// P_ρ(h) = n_h/N(ρ) for every radius — the property α was derived from
// and the basis of the paper's §V-B claim that detection probability
// stays close to 1/n.
func TestAlphaPreservesUniformity(t *testing.T) {
	for _, d := range []int{2, 3, 4, 8} {
		const maxRho = 25
		// nodesAt[h] = number of nodes at distance h on the d-regular tree.
		nodesAt := make([]float64, maxRho+2)
		nodesAt[1] = float64(d)
		for h := 2; h < len(nodesAt); h++ {
			nodesAt[h] = nodesAt[h-1] * float64(d-1)
		}
		ballSize := func(rho int) float64 {
			s := 0.0
			for h := 1; h <= rho; h++ {
				s += nodesAt[h]
			}
			return s
		}

		// Initial condition after the forced first pass: h=1 at ρ=1.
		p := make([]float64, maxRho+2)
		p[1] = 1
		for rho := 1; rho < maxRho; rho++ {
			next := make([]float64, maxRho+2)
			for h := 1; h <= rho; h++ {
				a := Alpha(d, rho, h)
				next[h] += p[h] * (1 - a)
				next[h+1] += p[h] * a
			}
			p = next
			for h := 1; h <= rho+1; h++ {
				want := nodesAt[h] / ballSize(rho+1)
				if math.Abs(p[h]-want) > 1e-9 {
					t.Fatalf("d=%d rho=%d: P(h=%d) = %v, want %v", d, rho+1, h, p[h], want)
				}
			}
		}
	}
}

// TestBallSize checks the shared ball-size formula against hand counts and
// against N(ρ) = Σ_{h≤ρ} d(d−1)^{h−1}, the ball Alpha is derived over.
func TestBallSize(t *testing.T) {
	cases := []struct{ d, rho, want int }{
		{2, 1, 2}, {2, 5, 10},
		{3, 1, 3}, {3, 2, 9}, {3, 3, 21},
		{4, 2, 16},
		{8, 0, 0},
	}
	for _, c := range cases {
		if got := model.BallSize(c.d, c.rho); got != c.want {
			t.Errorf("BallSize(%d,%d) = %d, want %d", c.d, c.rho, got, c.want)
		}
	}
	for _, d := range []int{2, 3, 4, 8} {
		sum, nodesAt := 0, d
		for rho := 1; rho <= 8; rho++ {
			sum += nodesAt
			nodesAt *= d - 1
			if got := model.BallSize(d, rho); got != sum {
				t.Errorf("BallSize(%d,%d) = %d, want N(ρ) = %d", d, rho, got, sum)
			}
		}
	}
}
