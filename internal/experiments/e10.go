package experiments

import (
	"math/rand/v2"
	"time"

	"repro/internal/chain"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/simulate"
)

// E10MinerFairness quantifies the §II motivation: "each transaction
// needs to be broadcast to all miners with low latency, such that each
// miner has the same chance to earn the associated transaction fee".
//
// Method: per protocol we measure delivery-time profiles of real
// simulated broadcasts, then run a fee lottery over them: blocks arrive
// as a Poisson process, the winner is drawn from the miners' hashpower
// distribution (uniform here), and the winner collects the fees of every
// pending transaction that has reached it by then. Propagation delay
// approaching the block interval makes the realized fee share deviate
// from the hashpower share — the total-variation unfairness column —
// and delays inclusion.
func E10MinerFairness(sc Scenario) *metrics.Table {
	n, deg := sc.size(300), sc.degree(8)
	const minerCount = 20
	profileCount := sc.trials(3, 10)
	txCount := sc.pick(200, 2000)
	t := metrics.NewTable(
		"E10 — broadcast latency vs miner fairness (20 miners, Poisson blocks)",
		"protocol", "block interval", "mean inclusion delay", "fee-share TV vs hashpower", "max miner share",
	)

	rng := rand.New(rand.NewPCG(2024, 6))
	miners := make([]proto.NodeID, minerCount)
	hashpower := make(map[proto.NodeID]float64, minerCount)
	for i := range miners {
		miners[i] = proto.NodeID(i * (n / minerCount))
		hashpower[miners[i]] = 1.0 / minerCount
	}

	protocols := []struct {
		p simulate.Protocol
		k int
	}{
		{simulate.ProtocolFlood, 0},
		{simulate.ProtocolFlexnet, 5},
	}
	intervals := []time.Duration{2 * time.Second, 20 * time.Second}
	for _, pr := range protocols {
		// Delivery-time profiles are independent seeded simulations —
		// the expensive part — and run through the worker pool; the fee
		// lottery below consumes one shared RNG stream and stays
		// sequential.
		profs := runner.MapWorker(profileCount, sc.Par, sc.trial, func(tr *simulate.Trial, i int) *sim.DeliverySet {
			_, prof := sc.broadcast(tr, simulate.Config{
				N: n, Degree: deg, Protocol: pr.p, K: pr.k, D: 4,
				Seed: uint64(i + 1),
			})
			return prof
		})
		for _, interval := range intervals {
			fees := make(map[proto.NodeID]uint64)
			var totalFee uint64
			delay := metrics.NewSummary()
			// Enough blocks that lottery variance does not drown the
			// latency effect: ~100 wins per miner in full mode.
			blocksTarget := sc.pick(300, 2000)
			horizon := time.Duration(blocksTarget) * interval
			type tx struct {
				born    time.Duration
				profile *sim.DeliverySet
				fee     uint64
				done    bool
			}
			txs := make([]*tx, txCount)
			for i := range txs {
				txs[i] = &tx{
					born:    time.Duration(rng.Int64N(int64(horizon))),
					profile: profs[rng.IntN(len(profs))],
					fee:     uint64(1 + rng.IntN(100)),
				}
			}
			for at := time.Duration(0); at < horizon+time.Minute; {
				at += time.Duration(rng.ExpFloat64() * float64(interval))
				winner := miners[rng.IntN(minerCount)]
				for _, x := range txs {
					if x.done || x.born > at {
						continue
					}
					arrival, ok := x.profile.Time(winner)
					if !ok {
						continue
					}
					if x.born+arrival <= at {
						x.done = true
						fees[winner] += x.fee
						totalFee += x.fee
						delay.Add(float64(at - x.born))
					}
				}
			}
			share := make(map[proto.NodeID]float64, len(fees))
			var maxShare float64
			for m, f := range fees {
				share[m] = float64(f) / float64(totalFee)
				if share[m] > maxShare {
					maxShare = share[m]
				}
			}
			tv := chain.TotalVariation(share, hashpower)
			t.AddRow(pr.p.String(), interval.String(),
				fmtDuration(time.Duration(delay.Mean())), tv, maxShare)
		}
	}
	t.AddNote("fair share per miner is 1/%d = 0.05; unfairness rises as propagation time approaches the block interval", minerCount)
	return t
}
