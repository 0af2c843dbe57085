// Package model holds the paper's closed forms — what a protocol costs
// and what anonymity it buys, as functions of its parameters — in one
// place, importing only the standard library.
package model

// BallSize returns N(rho), the number of non-center nodes within distance
// rho on an infinite d-regular tree — the anonymity-set size adaptive
// diffusion targets after rho rounds.
func BallSize(d, rho int) int {
	if rho <= 0 {
		return 0
	}
	if d <= 2 {
		return 2 * rho
	}
	// d((d−1)^rho − 1)/(d−2)
	total := 0
	nh := d
	for j := 1; j <= rho; j++ {
		total += nh
		nh *= d - 1
	}
	return total
}

// DCNetRoundMsgs returns the messages one DC-net round of a g-member
// group sends, 3·g·(g−1): every member sends each other member its
// share, its S partial and its T partial.
func DCNetRoundMsgs(g int) int {
	return 3 * g * (g - 1)
}
