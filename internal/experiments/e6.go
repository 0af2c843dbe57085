package experiments

import (
	"time"

	"repro/internal/adaptive"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/topology"
)

// tokenTracker records the last virtual-source token holder.
type tokenTracker struct{ last proto.NodeID }

func (t *tokenTracker) OnSend(_ time.Duration, _, to proto.NodeID, msg proto.Message) {
	if _, ok := msg.(*adaptive.TokenMsg); ok {
		t.last = to
	}
}
func (*tokenTracker) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (*tokenTracker) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte)    {}

// centreDistances runs nTrials seeded diffusions from src on g, one
// fixture per runner worker, and returns one sample per trial:
// src's distance from the final token holder — the centre of the
// infected ball, all the adversary of E6 and A1 observes.
func centreDistances(sc Scenario, g *topology.Graph, src proto.NodeID, nTrials int, cfg adaptive.Config) []int {
	return runner.MapWorker(nTrials, sc.Par, func() func(uint64) *sim.Network {
		return sc.fixture(g, netem.Loopback, stack.Spec{Kind: stack.Adaptive, Adaptive: cfg})
	}, func(trialNet func(uint64) *sim.Network, trial int) int {
		tracker := &tokenTracker{last: proto.NoNode}
		net := trialNet(uint64(trial + 1))
		net.AddTap(tracker)
		net.Start()
		if _, err := net.Originate(src, []byte{byte(trial), byte(trial >> 8)}); err != nil {
			panic(err)
		}
		net.RunUntil(time.Minute)
		return g.BFS(tracker.last)[src]
	})
}

// E6Obfuscation reproduces the perfect-obfuscation claim the paper
// inherits from adaptive diffusion (§V-B, [17]): "the probability to
// detect the true origin is close to the goal of perfect obfuscation,
// i.e., 1/n".
//
// The adversary observes the final infected ball (equivalently its
// centre c) and plays the MAP estimator. By branch symmetry the only
// informative statistic is the source's distance h from the centre:
// the posterior over a node at distance h is P(h)/n_h, so the MAP
// success probability is max_h P(h)/n_h. Perfect obfuscation means
// P(h) = n_h/N(D), collapsing every level to 1/N(D). We estimate P(h)
// empirically on a line and a 3-regular tree and report the MAP success
// next to the 1/n ideal.
func E6Obfuscation(sc Scenario) *metrics.Table {
	nTrials := sc.trials(300, 2500)
	t := metrics.NewTable(
		"E6 — adaptive diffusion source obfuscation (paper target: P(detect) ≈ 1/n)",
		"graph", "D", "ball size n", "ideal 1/n", "MAP P(detect)", "P(center=src)",
	)

	runs := []struct {
		name  string
		build func() *topology.Graph
		src   proto.NodeID
		d     int
		deg   int
	}{
		{"line(201)", func() *topology.Graph {
			g, err := topology.Line(201)
			if err != nil {
				panic(err)
			}
			return g
		}, 100, 6, 2},
		{"3-regular tree(depth 10)", func() *topology.Graph {
			g, err := topology.RegularTree(3, 10)
			if err != nil {
				panic(err)
			}
			return g
		}, 0, 4, 3},
	}
	for _, r := range runs {
		g := r.build()
		ballSize := adaptive.BallSize(r.deg, r.d)
		distCounts := make([]int, r.d+2)
		centerHits := 0
		hs := centreDistances(sc, g, r.src, nTrials,
			adaptive.Config{D: r.d, RoundInterval: 100 * time.Millisecond, TreeDegree: r.deg})
		for _, h := range hs {
			if h == 0 {
				centerHits++
			}
			if h >= 0 && h < len(distCounts) {
				distCounts[h]++
			}
		}
		// n_h on the infinite d-regular tree.
		nh := func(h int) float64 {
			if h == 0 {
				return 1
			}
			v := float64(r.deg)
			for j := 1; j < h; j++ {
				v *= float64(r.deg - 1)
			}
			return v
		}
		mapDetect := 0.0
		for h := 1; h < len(distCounts); h++ {
			p := float64(distCounts[h]) / float64(nTrials)
			if s := p / nh(h); s > mapDetect {
				mapDetect = s
			}
		}
		t.AddRow(r.name, r.d, ballSize, 1/float64(ballSize), mapDetect,
			float64(centerHits)/float64(nTrials))
	}
	t.AddNote("MAP P(detect) = max_h P̂(h)/n_h; perfect obfuscation collapses all levels to 1/n")
	t.AddNote("P(center=src) must be 0: the forced first pass moves the token off the source")
	return t
}
