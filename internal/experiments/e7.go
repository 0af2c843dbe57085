package experiments

import (
	"time"

	"repro/internal/dcnet"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/runner"
)

// E7AnnounceOptimization measures the §V-A optimization: "the base
// message size could be restricted to an integer representing the length
// of the next message, e.g. 32 bit … protected by CRC bits". Idle rounds
// then cost 8-byte slots instead of full-size ones. We compare bytes per
// round for fixed vs announce mode across activity rates, and record the
// collision rate that the CRC + backoff machinery resolves.
func E7AnnounceOptimization(sc Scenario) *metrics.Table {
	const g = 8
	const slot = 512
	// pick, not trials: this is the number of DC-net rounds measured,
	// not a repetition count a -trials override should touch.
	roundsToRun := sc.pick(30, 150)
	t := metrics.NewTable(
		"E7 — announcement-round optimization (g=8, payload 500 B)",
		"mode", "offered load (msgs/round)", "bytes/round", "collisions", "delivered", "savings vs fixed",
	)

	type result struct {
		bytesPerRound float64
		collisions    int
		delivered     int
	}
	run := func(mode dcnet.Mode, load float64, seed uint64) result {
		net, all := dcNetwork(sc, g, seed)
		members := make([]*dcnet.Member, g)
		// One count per member: each runs on its own node's event loop.
		delivered := make([]int, g)
		net.SetHandlers(func(id proto.NodeID) proto.Handler {
			m, err := dcnet.NewMember(dcnet.Config{
				Self:     id,
				Members:  all,
				Mode:     mode,
				SlotSize: slot,
				Interval: 100 * time.Millisecond,
				Policy:   dcnet.PolicyNone,
				OnDeliver: func(proto.Context, uint32, []byte) {
					delivered[id]++
				},
			})
			if err != nil {
				panic(err)
			}
			members[id] = m
			return &memberHandler{m}
		})
		net.Start()
		// Offer load: schedule payload submissions as a Poisson-ish
		// process with the given per-round rate, spread across members.
		interval := 100 * time.Millisecond
		totalRounds := roundsToRun
		count := int(load * float64(totalRounds))
		for i := 0; i < count; i++ {
			at := time.Duration(i) * time.Duration(float64(interval)/load)
			member := members[i%g]
			payload := make([]byte, 500)
			payload[0] = byte(i)
			payload[1] = byte(i >> 8)
			net.At(at, all[i%g], func() { _ = member.Queue(payload) })
		}
		net.RunUntil(time.Duration(totalRounds) * interval)
		rounds := members[0].RoundsCompleted
		if rounds == 0 {
			rounds = 1
		}
		collisions := 0
		for _, m := range members {
			if m.Collisions > collisions {
				collisions = m.Collisions
			}
		}
		total := 0
		for _, d := range delivered {
			total += d
		}
		return result{
			bytesPerRound: float64(net.TotalBytes()) / float64(rounds),
			collisions:    collisions,
			delivered:     total,
		}
	}

	loads := []float64{0, 0.1, 0.5}
	type sample struct{ fixed, ann result }
	samples := runner.Map(len(loads), sc.Par, func(i int) sample {
		return sample{
			fixed: run(dcnet.ModeFixed, loads[i], 11),
			ann:   run(dcnet.ModeAnnounce, loads[i], 11),
		}
	})
	for i, load := range loads {
		fixed, ann := samples[i].fixed, samples[i].ann
		t.AddRow("fixed", load, fixed.bytesPerRound, fixed.collisions, fixed.delivered, 1.0)
		t.AddRow("announce", load, ann.bytesPerRound, ann.collisions, ann.delivered,
			fixed.bytesPerRound/maxf(ann.bytesPerRound, 1))
	}
	t.AddNote("announce idle rounds move 8-byte slots; fixed idle rounds move %d-byte slots", slot)
	return t
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
