package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/adversary"
	"repro/internal/flood"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
)

// e4Worker is E4's per-worker state — like adWorker (e6.go), but with
// one long-lived network per link profile plus one shared flood state,
// Reset per trial; the topology repeats, so only the seed changes.
// Reset ≡ fresh (TestResetEqualsFresh), hence tables stay bit-identical
// to the fresh-network form (TestNetworkReuseBitIdentical runs both
// arms). A zero worker (FreshNet scenarios) rebuilds per trial.
type e4Worker struct {
	nets   [2]*sim.Network // indexed like e4Conds
	shared *flood.Shared
}

// e4Conds are E4's two arms. Its measured axis is the network condition
// itself (constant vs jittered WAN links), so both are fixed presets
// rather than a single Scenario-threaded profile.
var e4Conds = [2]*netem.Profile{&netem.WAN, &netem.WANJitter}

func newE4Worker(sc Scenario, g *topology.Graph, n int) *e4Worker {
	w := &e4Worker{}
	if sc.FreshNet {
		return w
	}
	for i, p := range e4Conds {
		w.nets[i] = sim.NewNetwork(g, sim.Options{Netem: p})
	}
	w.shared = flood.NewShared(n)
	return w
}

// trial returns the network and shared state ready for one seeded
// sub-run under the selected arm of e4Conds.
func (w *e4Worker) trial(g *topology.Graph, n int, seed uint64, cond int) (*sim.Network, *flood.Shared) {
	net := w.nets[cond]
	if net == nil {
		return sim.NewNetwork(g, sim.Options{Seed: seed, Netem: e4Conds[cond]}), flood.NewShared(n)
	}
	net.Reset(seed)
	net.ClearTaps()
	w.shared.Reset()
	return net, w.shared
}

// E4FloodDeanonymization quantifies Fig. 2 and the Biryukov et al. attack
// the introduction cites: against plain flooding, a botnet-style
// adversary controlling a small fraction of nodes deanonymizes the
// originator with high probability, using first-spy and arrival-time
// triangulation.
func E4FloodDeanonymization(sc Scenario) *metrics.Table {
	n, deg := sc.size(1000), sc.degree(8)
	nTrials := sc.trials(5, 40)
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
		samples := runner.MapWorker(nTrials, sc.Par, func() *e4Worker {
			return newE4Worker(sc, g, n)
		}, func(w *e4Worker, trial int) sample {
			rng := rand.New(rand.NewPCG(uint64(trial+1), uint64(f*1000)))
			corrupted := adversary.SampleCorrupted(n, f, rng)
			var s sample
			for cond := range e4Conds {
				jitter := cond == 1
				obs := adversary.NewObserver(corrupted)
				net, shared := w.trial(g, n, uint64(trial+1), cond)
				net.AddTap(obs)
				net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
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
