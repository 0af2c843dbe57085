package model

import "testing"

func TestBallSize(t *testing.T) {
	cases := []struct{ d, rho, want int }{
		{2, 1, 2}, {2, 5, 10},
		{3, 1, 3}, {3, 2, 9}, {3, 3, 21},
		{4, 2, 16},
		{8, 0, 0},
	}
	for _, c := range cases {
		if got := BallSize(c.d, c.rho); got != c.want {
			t.Errorf("BallSize(%d,%d) = %d, want %d", c.d, c.rho, got, c.want)
		}
	}
}

// TestDCNetRoundMsgs checks the group cost against hand counts: a
// four-member group sends 12 shares, 12 S partials and 12 T partials a
// round, and a lone member sends nothing.
func TestDCNetRoundMsgs(t *testing.T) {
	cases := []struct{ g, want int }{
		{1, 0}, {4, 36}, {10, 270}, {19, 1026},
	}
	for _, c := range cases {
		if got := DCNetRoundMsgs(c.g); got != c.want {
			t.Errorf("DCNetRoundMsgs(%d) = %d, want %d", c.g, got, c.want)
		}
	}
}
