package adaptive

import "math"

// Alpha returns the probability that the virtual source passes the token
// in the round that grows the infection ball from radius rho to rho+1,
// given the token currently sits at distance h from the true source, on a
// d-regular tree.
//
// The value is derived from the uniformity recurrence of Fanti et al.
// (SIGMETRICS '15): writing n_h = d(d−1)^{h−1} for the number of nodes at
// distance h and N(h) = Σ_{j≤h} n_j, requiring
//
//	P_ρ(h) = n_h / N(ρ)  for all 1 ≤ h ≤ ρ  (perfect obfuscation)
//
// to be preserved by the keep/pass transition yields
//
//	α(ρ, h) = n_{ρ+1} · N(h) / (n_h · N(ρ+1)).
//
// For d = 2 (line graphs) this simplifies to α = h/(ρ+1); for d ≥ 3 it is
// α = (d−1)^{ρ−h+1}·((d−1)^h − 1) / ((d−1)^{ρ+1} − 1). At h = 0 — the true
// source still holds the token — the pass probability is 1, matching the
// protocol's forced first hop.
func Alpha(d, rho, h int) float64 {
	if h <= 0 {
		return 1
	}
	if rho < h {
		rho = h // the ball radius is never smaller than the token depth
	}
	if d <= 2 {
		return float64(h) / float64(rho+1)
	}
	dm1 := float64(d - 1)
	num := math.Pow(dm1, float64(rho-h+1)) * (math.Pow(dm1, float64(h)) - 1)
	den := math.Pow(dm1, float64(rho+1)) - 1
	if den <= 0 {
		return 1
	}
	alpha := num / den
	if alpha > 1 {
		return 1
	}
	return alpha
}
