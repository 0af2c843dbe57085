package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/adversary"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stack"
)

// e4Conds are E4's two arms. Its measured axis is the network condition
// itself (constant vs jittered WAN links), so both are fixed presets and
// -netem does not override them.
var e4Conds = [2]netem.Profile{netem.WAN, netem.WANJitter}

// E4FloodDeanonymization quantifies Fig. 2 and the Biryukov et al. attack
// the introduction cites: against plain flooding, a botnet-style
// adversary controlling a small fraction of nodes deanonymizes the
// originator with high probability, using first-spy and arrival-time
// triangulation.
func E4FloodDeanonymization(sc Scenario) *metrics.Table {
	n, deg := sc.size(1000), sc.degree(8)
	nTrials := sc.trials(5, 40)
	sc.Netem = nil // e4Conds are the measured axis
	t := metrics.NewTable(
		fmt.Sprintf("E4 — deanonymizing plain flooding (N=%d, %d-regular)", n, deg),
		"adversary f", "first-spy precision", "timing precision (const lat.)", "timing precision (jittered lat.)", "anonymity set (jittered)",
	)
	fractions := []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	if sc.Quick {
		fractions = []float64{0.1, 0.2}
	}
	// The overlay and the timing estimator are shared read-only across
	// all (parallel) trials.
	g := regular(n, deg, 99)
	est := &adversary.Timing{Topo: g, HopLatency: 50 * time.Millisecond}

	type sample struct {
		src                    proto.NodeID
		firstSpy               proto.NodeID
		timingConst, timingJit proto.NodeID
		anonSet                float64
	}
	for _, f := range fractions {
		// One fixture per arm: the topology repeats, so only the seed
		// changes between trials.
		type arms = [2]func(seed uint64) *sim.Network
		samples := runner.MapWorker(nTrials, sc.Par, func() (a arms) {
			for i, cond := range e4Conds {
				a[i] = sc.fixture(g, cond, stack.Spec{Kind: stack.Flood})
			}
			return a
		}, func(a arms, trial int) sample {
			rng := rand.New(rand.NewPCG(uint64(trial+1), uint64(f*1000)))
			corrupted := adversary.SampleCorrupted(n, f, rng)
			var s sample
			for cond := range e4Conds {
				jitter := cond == 1
				obs := adversary.NewObserver(corrupted)
				net := a[cond](uint64(trial + 1))
				net.AddTap(obs)
				net.Start()
				srcRNG := rand.New(rand.NewPCG(uint64(trial+1), uint64(f*1000)+7))
				src := pickHonestSource(n, obs.Corrupted, srcRNG)
				id, err := net.Originate(src, []byte{byte(trial), byte(f * 100)})
				if err != nil {
					panic(err)
				}
				net.RunUntil(time.Minute)

				observations := obs.Observations(id)
				var honest []proto.NodeID
				for v := 0; v < n; v++ {
					if !obs.Corrupted(proto.NodeID(v)) {
						honest = append(honest, proto.NodeID(v))
					}
				}
				suspect, anonSet := est.Estimate(observations, honest)
				s.src = src
				if jitter {
					s.timingJit = suspect
					s.anonSet = float64(anonSet)
				} else {
					s.firstSpy = adversary.FirstSpy(observations)
					s.timingConst = suspect
				}
			}
			return s
		})

		fs := &adversary.Aggregate{}
		tmConst := &adversary.Aggregate{}
		tmJitter := &adversary.Aggregate{}
		anon := metrics.NewSummary()
		for _, s := range samples {
			fs.AddExact(s.src, s.firstSpy)
			tmConst.AddExact(s.src, s.timingConst)
			tmJitter.AddExact(s.src, s.timingJit)
			anon.Add(s.anonSet)
		}
		t.AddRow(f, fs.Precision(), tmConst.Precision(), tmJitter.Precision(), anon.Mean())
	}
	t.AddNote("paper/[12]: ~20%% observer fraction suffices against symmetric broadcast")
	t.AddNote("jittered latency: per-hop U(25ms,75ms) — the realistic setting for arrival-time triangulation")
	return t
}
