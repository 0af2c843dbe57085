// Package experiments regenerates every quantitative and qualitative
// result of the paper's evaluation (see DESIGN.md §3 for the experiment
// index and the measured-vs-paper numbers). Each experiment returns a
// metrics.Table so that cmd/flexsim, the benchmarks in bench_test.go and
// the tables quoted in README.md and DESIGN.md all print identical rows.
//
// Experiments take a Scenario: quick mode trades trial counts for
// runtime (used by `go test -bench` and CI; published numbers come from
// full mode), N/Degree resize the overlay where the experiment is
// network-scale, and Par sets the trial worker-pool size. Trials are
// independent seeded networks executed through internal/runner — per
// -trial seeds derive from the trial index and samples reduce in
// trial-index order, so every table is bit-identical at any Par (guarded
// by TestParallelDeterminism).
package experiments

import (
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/simulate"
	"repro/internal/stack"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Scenario configures one experiment run.
type Scenario struct {
	// Quick trades trial counts for runtime (CI and golden-table mode).
	Quick bool
	// N overrides the overlay size on network-scale experiments
	// (e1, e3–e5, e9, e10, e14–e17, a2); 0 keeps each experiment's paper
	// default. Experiments bound to special substrates (line/tree
	// obfuscation runs, DC-net group sweeps, the Fig.-5 trace) ignore it.
	N int
	// Degree overrides the overlay degree on the same experiments.
	Degree int
	// Trials overrides the per-mode trial count; 0 keeps the default.
	Trials int
	// Par is the trial worker-pool size: 0 means GOMAXPROCS, 1 forces
	// the sequential loop. Tables are identical at every setting.
	Par int
	// Shards partitions each trial network across per-shard event loops
	// (`flexsim -shards`); tables are bit-identical at every setting
	// (TestShardedGoldenTables). A network that cannot shard (zero-delay
	// profile, N < Shards) clamps to one loop; so do 0 and 1.
	Shards int
	// Verbose reports every trial network's resolved shard layout to
	// stderr, and per-shard run diagnostics (event counts, lookahead
	// stalls, cross-shard handoffs) on E1 and E14 (`flexsim -v`).
	Verbose bool
	// Netem overrides the network-condition profile an experiment
	// declares (`flexsim -netem`): every trial network then runs under
	// this profile instead of the experiment's preset. Experiments
	// whose measured axis is the network condition itself (E4's
	// const-vs-jitter arms, E13's hop sweep, the E15–E17 impairment
	// grids) keep their own conditions.
	Netem *netem.Profile

	// freshNet makes fixture and trial build anew per trial: the
	// comparison arm of TestNetworkReuseBitIdentical, which alone sets
	// it. codec turns on byte accounting (bare DC-net runs).
	freshNet bool
	codec    *wire.Codec
}

// Quick returns the CI scenario (fewer trials, default size).
func Quick() Scenario { return Scenario{Quick: true} }

// Full returns the full-trial scenario behind published numbers.
func Full() Scenario { return Scenario{} }

// trials resolves the trial count for the scenario mode.
func (sc Scenario) trials(quickN, fullN int) int {
	if sc.Trials > 0 {
		return sc.Trials
	}
	if sc.Quick {
		return quickN
	}
	return fullN
}

// pick resolves a quick/full quantity that is not the experiment's
// primary trial count, so a -trials override does not distort it
// (e.g. E10's transaction and block counts).
func (sc Scenario) pick(quickN, fullN int) int {
	if sc.Quick {
		return quickN
	}
	return fullN
}

// size resolves the overlay size against an experiment default.
func (sc Scenario) size(def int) int {
	if sc.N > 0 {
		return sc.N
	}
	return def
}

// degree resolves the overlay degree against an experiment default.
func (sc Scenario) degree(def int) int {
	if sc.Degree > 0 {
		return sc.Degree
	}
	return def
}

// network builds one trial network over g under the experiment's declared
// condition def — or the -netem override — seeded, with the scenario's
// shard request. Every experiment network is built here, so -netem and
// -shards reach them all and -v reports each one's resolved layout. An
// experiment whose measured axis is the condition itself clears sc.Netem
// first.
func (sc Scenario) network(g *topology.Graph, seed uint64, def netem.Profile) *sim.Network {
	p := def
	if sc.Netem != nil {
		p = *sc.Netem
	}
	net := sim.NewNetwork(g, sim.Options{Seed: seed, Netem: &p, Shards: sc.Shards, Codec: sc.codec})
	if sc.Verbose {
		fmt.Fprintf(os.Stderr, "network N=%d %s seed=%d: %d shard(s) of %d requested, lookahead %v\n",
			g.N(), p.Name, seed, net.ShardCount(), max(sc.Shards, 1), net.Lookahead())
	}
	return net
}

// trial returns a runner worker's broadcast trial: one simulate.Trial
// over sc.network, kept across the worker's broadcasts — or, in the
// freshNet arm, nil, for broadcast to build every trial anew.
func (sc Scenario) trial() *simulate.Trial {
	if sc.freshNet {
		return nil
	}
	return simulate.NewTrial(sc.network)
}

// broadcast runs one simulate trial on tr (a one-shot one when tr is nil)
// with networks built by sc.network, and returns its outcome and delivery
// record. Experiments pass constant configurations, so an error is a bug.
func (sc Scenario) broadcast(tr *simulate.Trial, cfg simulate.Config) (*simulate.Result, *sim.DeliverySet) {
	if tr == nil {
		tr = simulate.NewTrial(sc.network)
	}
	res, deliveries, err := tr.Run(cfg)
	if err != nil {
		panic(err)
	}
	return res, deliveries
}

// toleranceNote names the loss-tolerant configuration a single-broadcast
// experiment ran under a -netem override that can lose messages or crash
// nodes (stack.Spec.For): every stack's retransmit timeout and budget,
// and flexnet's fail-safe at each of ds. Under a clean profile the
// stacks run strict and the table gets no note.
func (sc Scenario) toleranceNote(t *metrics.Table, ds ...int) {
	if sc.Netem == nil {
		return
	}
	var s stack.Spec
	fs := make([]string, len(ds))
	for i, d := range ds {
		s = simulate.Spec(simulate.Config{Protocol: simulate.ProtocolFlexnet, D: d}, 0, nil).For(sc.Netem)
		fs[i] = fmt.Sprintf("%s at d=%d", fmtDuration(s.Composed.FailSafe), d)
	}
	if s.Composed.FailSafe == 0 {
		return
	}
	t.AddNote("the profile can lose messages or crash nodes, so the stacks ran loss-tolerant: retransmit timeout %s, budget %d; flexnet fail-safe %s",
		fmtDuration(s.Composed.DCNet.RetransmitTimeout), s.Composed.DCNet.RetryBudget, strings.Join(fs, ", "))
}

// fixture returns the trial function of one runner worker on the
// experiments that repeat a topology: each call returns the network ready
// for one seeded run — handlers mounted, no taps, not started — built on
// the first call and rewound on every later one. Reset ≡ fresh, so tables
// are bit-identical to a rebuild per trial, the freshNet arm
// TestNetworkReuseBitIdentical holds them to.
func (sc Scenario) fixture(g *topology.Graph, def netem.Profile, spec stack.Spec) func(seed uint64) *sim.Network {
	var net *sim.Network
	var st *stack.Mounted
	return func(seed uint64) *sim.Network {
		if net == nil || sc.freshNet {
			net = sc.network(g, seed, def)
			st = stack.Mount(net, spec)
			return net
		}
		net.Reset(seed)
		net.ClearTaps()
		st.Reset()
		return net
	}
}

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scenario) *metrics.Table
}

// all is the experiment index, built once at package init.
var all = [...]Experiment{
	{ID: "e1", Title: "§V-A message counts: adaptive diffusion vs flood-and-prune (N=1000)", Run: E1Messages},
	{ID: "e2", Title: "§V-A Phase-1 message complexity O(k²)", Run: E2DCNetComplexity},
	{ID: "e3", Title: "Fig. 1 privacy–performance landscape", Run: E3Landscape},
	{ID: "e4", Title: "Fig. 2 / [12]: deanonymizing plain flooding", Run: E4FloodDeanonymization},
	{ID: "e5", Title: "§III-B: Dandelion decay vs flexnet k-anonymity floor", Run: E5DandelionVsFlexnet},
	{ID: "e6", Title: "§V-B [17]: adaptive diffusion perfect obfuscation", Run: E6Obfuscation},
	{ID: "e7", Title: "§V-A: announcement-round optimization", Run: E7AnnounceOptimization},
	{ID: "e8", Title: "§IV-C: overlapping groups and origin probabilities", Run: E8OverlapGroups},
	{ID: "e9", Title: "§III-A: delivery guarantees", Run: E9Delivery},
	{ID: "e10", Title: "§II: broadcast latency and miner fairness", Run: E10MinerFairness},
	{ID: "e11", Title: "§V-C: blame protocol vs dissolve policy", Run: E11Blame},
	{ID: "e12", Title: "Fig. 5: three-phase trace", Run: E12PhaseTrace},
	{ID: "e13", Title: "§III-B: Dissent announcement startup scaling", Run: E13DissentStartup},
	{ID: "e14", Title: "scale sweep: flood + adaptive diffusion at N=1k/10k/100k/1M", Run: E14ScaleSweep},
	{ID: "e15", Title: "robustness: coverage/latency/overhead under loss and churn (netem sweep)", Run: E15Robustness},
	{ID: "e16", Title: "adversarial anonymity: spy-fraction sweep across the netem grid", Run: E16AdversarialAnonymity},
	{ID: "e17", Title: "throughput vs privacy frontier: sustained workload sweep with admission", Run: E17Frontier},
	{ID: "a1", Title: "ablation: derived α(ρ,h) vs naive pass probabilities", Run: A1AlphaAblation},
	{ID: "a2", Title: "parameter advisor: (k,d) for a target privacy/latency budget", Run: A2ParameterAdvisor},
}

// All returns the experiments in index order. The slice is shared; the
// caller must not mutate it.
func All() []Experiment { return all[:] }

// Find returns the experiment with the given ID, or nil, without
// rebuilding the index per lookup.
func Find(id string) *Experiment {
	for i := range all {
		if all[i].ID == id {
			return &all[i]
		}
	}
	return nil
}

// regular builds the paper's random d-regular overlay.
func regular(n, d int, seed uint64) *topology.Graph {
	rng := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
	g, err := topology.RandomRegular(n, d, rng)
	if err != nil {
		panic(fmt.Sprintf("experiments: building %d-regular graph: %v", d, err))
	}
	return g
}

// pickHonestSource draws a node outside the corrupted set.
func pickHonestSource(n int, corrupted func(proto.NodeID) bool, rng *rand.Rand) proto.NodeID {
	for {
		v := proto.NodeID(rng.IntN(n))
		if corrupted == nil || !corrupted(v) {
			return v
		}
	}
}

// fmtDuration renders virtual times compactly.
func fmtDuration(d time.Duration) string {
	return d.Round(10 * time.Millisecond).String()
}
