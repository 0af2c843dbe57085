package model

import (
	"cmp"
	"errors"
	"math"
	"time"
)

// Recommendation is a parameter choice produced by RecommendParams,
// answering the paper's concluding goal of giving "application designers
// … data to choose suitable and safe parameters".
type Recommendation struct {
	// K is the anonymity parameter (group sizes in [K, 2K−1]).
	K int
	// D is the number of adaptive-diffusion rounds.
	D int
	// PredictedFloor is the worst-case deanonymization probability the
	// DC-net phase guarantees: 1/ℓ for ℓ expected honest members in the
	// smallest (size-K) group.
	PredictedFloor float64
	// PredictedBallSize is the expected adaptive-diffusion anonymity
	// set after D rounds on a degree-Degree overlay.
	PredictedBallSize int
	// PredictedLatency estimates submission-to-coverage time.
	PredictedLatency time.Duration
	// PredictedPhase1MsgsPerRound is the periodic group cost
	// DCNetRoundMsgs(K).
	PredictedPhase1MsgsPerRound int
	// PredictedUtilization is the planned per-link load fraction
	// ρ = SustainedRate/LinkCapacity (0 when no sustained rate given).
	PredictedUtilization float64
}

// AdvisorInput describes the deployment RecommendParams plans for.
type AdvisorInput struct {
	// N and Degree describe the overlay (defaults 1000 and 8).
	N, Degree int
	// AdversaryFraction is the assumed corrupted-node fraction f. Zero
	// means planning for a purely external observer (no corrupted group
	// members).
	AdversaryFraction float64
	// TargetFloor is the highest acceptable worst-case deanonymization
	// probability (default 0.2, i.e. 5-anonymity among honest members).
	TargetFloor float64
	// CoverFraction is the fraction of the network the diffusion phase
	// should cover before the flood (default 0.1).
	CoverFraction float64
	// DCInterval and ADInterval are the phase cadences (defaults 2 s and
	// 500 ms).
	DCInterval, ADInterval time.Duration
	// LatencyMs is the per-hop latency (default 50).
	LatencyMs int
	// LossRate is the expected per-link message loss probability in
	// [0,1) (e.g. a netem profile's Loss). Loss thins the overlay the
	// diffusion ball grows on — the advisor plans with an effective
	// degree of Degree·(1−loss), deepening d to keep the coverage
	// target — and degrades PredictedLatency by the expected
	// 1/(1−loss) retransmission factor per hop.
	LossRate float64
	// SustainedRate is the open-world transaction rate (tx/s) the
	// deployment must absorb continuously. Zero keeps the classic
	// single-broadcast plan. A positive rate is compared against
	// LinkCapacity: utilization ρ = SustainedRate/LinkCapacity inflates
	// per-hop latency by the M/M/1 queueing factor 1/(1−ρ), and past
	// 50% utilization the usable fanout shrinks linearly (a saturated
	// link can no longer serve its full neighbor burst in time), which
	// deepens d. ρ ≥ 1 is over capacity and rejected.
	SustainedRate float64
	// LinkCapacity is one directed link's sustainable message rate in
	// msgs/s (default 1000). Only consulted when SustainedRate > 0.
	LinkCapacity float64
}

func (in *AdvisorInput) applyDefaults() {
	in.N = cmp.Or(in.N, 1000)
	in.Degree = cmp.Or(in.Degree, 8)
	in.TargetFloor = cmp.Or(in.TargetFloor, 0.2)
	in.CoverFraction = cmp.Or(in.CoverFraction, 0.1)
	in.DCInterval = cmp.Or(in.DCInterval, 2*time.Second)
	in.ADInterval = cmp.Or(in.ADInterval, 500*time.Millisecond)
	in.LatencyMs = cmp.Or(in.LatencyMs, 50)
	in.LinkCapacity = cmp.Or(in.LinkCapacity, 1000)
}

// RecommendParams picks the smallest (k, d) meeting the privacy targets:
// k so that the k-anonymity floor 1/⌈k·(1−f)⌉ stays at or below
// TargetFloor even in a minimum-size group, and d so the diffusion ball
// reaches CoverFraction·N nodes on a Degree-regular overlay. It mirrors
// the paper's guidance that k is "typically a value between four and
// ten" and d is "chosen based on the network diameter".
func RecommendParams(in AdvisorInput) (*Recommendation, error) {
	in.applyDefaults()
	switch {
	case in.TargetFloor <= 0 || in.TargetFloor >= 1:
		return nil, errors.New("TargetFloor must be in (0,1)")
	case in.AdversaryFraction < 0 || in.AdversaryFraction >= 1:
		return nil, errors.New("AdversaryFraction must be in [0,1)")
	case in.LossRate < 0 || in.LossRate >= 1:
		return nil, errors.New("LossRate must be in [0,1)")
	case in.SustainedRate < 0:
		return nil, errors.New("SustainedRate must be >= 0")
	}
	rho := 0.0
	if in.SustainedRate > 0 {
		rho = in.SustainedRate / in.LinkCapacity
		if rho >= 1 {
			return nil, errors.New("SustainedRate at or above LinkCapacity; no stable plan exists")
		}
	}

	// Smallest k with 1/ceil(k(1−f)) ≤ target.
	k := 2
	for ; k <= in.N; k++ {
		honest := int(math.Ceil(float64(k) * (1 - in.AdversaryFraction)))
		if honest > 0 && 1/float64(honest) <= in.TargetFloor {
			break
		}
	}

	// Loss thins the effective overlay: each diffusion edge only
	// carries its message with probability 1−loss, so the ball grows on
	// an effective degree of Degree·(1−loss) (never below the line
	// graph's 2) and each hop costs 1/(1−loss) expected transmissions.
	// Utilization composes with loss on both axes: queueing inflates
	// every hop by 1/(1−ρ), and past 50% utilization the usable fanout
	// shrinks linearly — below that links absorb the forwarding burst
	// with headroom to spare, so moderate load costs latency only.
	congest := 1.0
	if rho > 0.5 {
		congest = 2 * (1 - rho)
	}
	effDeg := max(int(float64(in.Degree)*(1-in.LossRate)*congest), 2)
	retx := 1 / (1 - in.LossRate) / (1 - rho)

	// Smallest d whose effective-degree tree ball reaches the cover
	// target.
	target := int(in.CoverFraction * float64(in.N))
	d := 1
	for ; d < 64; d++ {
		if BallSize(effDeg, d) >= target {
			break
		}
	}

	honest := int(math.Ceil(float64(k) * (1 - in.AdversaryFraction)))
	hop := time.Duration(float64(in.LatencyMs) * retx * float64(time.Millisecond))
	// Submission waits ~1.5 DC rounds (announce + data), then d
	// diffusion rounds, then a flood across the remaining diameter
	// (≈ log_{deg−1} N hops on an expander) at the loss-degraded
	// per-hop cost.
	floodHops := int(math.Ceil(math.Log(float64(in.N)) / math.Log(float64(max(effDeg-1, 2)))))
	latency := in.DCInterval*3/2 +
		time.Duration(d)*in.ADInterval +
		time.Duration(floodHops)*hop

	return &Recommendation{
		K:                           k,
		D:                           d,
		PredictedFloor:              1 / float64(honest),
		PredictedBallSize:           BallSize(effDeg, d),
		PredictedLatency:            latency,
		PredictedPhase1MsgsPerRound: DCNetRoundMsgs(k),
		PredictedUtilization:        rho,
	}, nil
}
