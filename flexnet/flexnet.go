// Package flexnet is the public API of this repository: a Go
// implementation of "A Flexible Network Approach to Privacy of Blockchain
// Transactions" (Mödinger, Kopp, Kargl, Hauck — ICDCS 2018).
//
// The library provides the paper's three-phase privacy-preserving
// broadcast — a DC-net group phase (cryptographic k-anonymity), an
// adaptive-diffusion phase (statistical obfuscation), and a
// flood-and-prune phase (guaranteed delivery) — together with the
// baselines it is evaluated against (plain flooding, Dandelion, adaptive
// diffusion alone), a deterministic network simulator, an adversary
// toolkit, and a runnable TCP blockchain node.
//
// Two entry points cover the two ways to use it:
//
//   - Simulate runs one broadcast on a simulated overlay and reports
//     cost, coverage and (optionally) deanonymization outcomes — the
//     building block of the experiments indexed in DESIGN.md §3.
//   - StartNode launches a real node over TCP: privacy broadcast for
//     transactions, plain flood for blocks, mempool and toy-PoW miner.
package flexnet

import (
	"sync"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/simulate"
	"repro/internal/topology"
)

// Protocol selects the broadcast protocol under test.
type Protocol = simulate.Protocol

// Supported protocols: the four stacks internal/stack builds.
const (
	// ProtocolFlood is plain flood-and-prune (no privacy).
	ProtocolFlood = simulate.ProtocolFlood
	// ProtocolDandelion is the stem/fluff baseline of §III-A.
	ProtocolDandelion = simulate.ProtocolDandelion
	// ProtocolAdaptive is adaptive diffusion alone (no delivery
	// guarantee, §III-A).
	ProtocolAdaptive = simulate.ProtocolAdaptive
	// ProtocolFlexnet is the paper's three-phase protocol (§IV).
	ProtocolFlexnet = simulate.ProtocolFlexnet
)

// Topology selects the overlay family for Simulate.
type Topology = simulate.Topology

// Supported topologies.
const (
	// TopologyRandomRegular is a random d-regular overlay (the paper's
	// simulation substrate).
	TopologyRandomRegular = simulate.TopologyRandomRegular
	// TopologyRing is a cycle.
	TopologyRing = simulate.TopologyRing
	// TopologyLine is a path.
	TopologyLine = simulate.TopologyLine
	// TopologySmallWorld is Watts–Strogatz with β = 0.2.
	TopologySmallWorld = simulate.TopologySmallWorld
	// TopologyScaleFree is Barabási–Albert.
	TopologyScaleFree = simulate.TopologyScaleFree
)

// SimConfig parametrizes one simulated broadcast; its fields and
// defaults are documented on simulate.Config.
type SimConfig = simulate.Config

// SimResult reports one simulated broadcast; its fields are documented
// on simulate.Result.
type SimResult = simulate.Result

// Simulate runs one broadcast on a network with a constant LatencyMs hop
// and reports the outcome. It is safe for concurrent use; each call runs
// on a simulate.Trial from a pool, so a loop of calls overwrites the
// random-regular overlay, network, adversary, directory and stacks of an
// earlier call in place instead of constructing them.
func Simulate(cfg SimConfig) (*SimResult, error) {
	t := trials.Get().(*simulate.Trial)
	res, _, err := t.Run(cfg)
	trials.Put(t)
	return res, err
}

// trials holds the Trials idle between Simulate calls.
var trials = sync.Pool{New: func() any { return simulate.NewTrial(plainNetwork) }}

// plainNetwork is Simulate's network: the declared profile, one event
// loop.
func plainNetwork(g *topology.Graph, seed uint64, def netem.Profile) *sim.Network {
	return sim.NewNetwork(g, sim.Options{Seed: seed, Netem: &def})
}
