// Package parity is the differential test harness that closes the
// sim-vs-deployment gap: it runs the same protocol handlers, with the
// same seeds, topology and parameters, once under the deterministic
// discrete-event simulator (internal/sim) and once as a live cluster of
// internal/transport nodes exchanging real framed bytes — then diffs
// the two per-type message/byte tables and reports any divergence,
// structured by phase and message type.
//
// Exactness model. Three properties make bit-exact comparison of a
// wall-clock run against a virtual-time run possible:
//
//  1. Identical randomness: transport nodes are seeded with
//     sim.NodeSeed(seed, id) (Config.SeedStream), so every handler draws
//     the same per-node random stream under both runtimes.
//  2. Deterministic round counts: the DC-net phase is bounded by
//     dcnet.Config.MaxRounds instead of "however many rounds fit in the
//     wall-clock window", so Phase-1 cost is a pure function of the
//     configuration.
//  3. Schedule-independent scenarios: scenario parameters are chosen so
//     per-type totals do not depend on goroutine scheduling — flood
//     counts are arrival-order independent on any topology (every node
//     forwards degree−1 once), and the adaptive/composed scenarios run
//     on a ring, where diffusion waves are per-link FIFO chains with no
//     equal-length alternative paths, with round intervals far above
//     the loopback round-trip. Under those conditions every per-type
//     message count and marshaled byte count is exactness-checked;
//     wall-clock duration is the one timing-dependent quantity, checked
//     only against the declared tolerance (Scenario.WallTolerance).
//
// The harness is also a fault detector: Scenario.Fault installs a
// misbehaving handler on the real side (e.g. a node silently dropping
// relays), and the resulting report names the diverging phase and
// message type.
package parity

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/adaptive"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/netem"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/stack"
	"repro/internal/topology"
)

// Variant selects which protocol stack the scenario runs: one of the
// four internal/stack builds.
type Variant = stack.Kind

// Supported variants.
const (
	// VariantFlood is plain flood-and-prune.
	VariantFlood = stack.Flood
	// VariantAdaptive is adaptive diffusion alone.
	VariantAdaptive = stack.Adaptive
	// VariantDandelion is the stem/fluff baseline.
	VariantDandelion = stack.Dandelion
	// VariantComposed is the full three-phase protocol inside an
	// internal/node blockchain node (miner off).
	VariantComposed = stack.Composed
)

// Transport selects the byte-stream substrate of the real run.
type Transport int

// Supported substrates.
const (
	// TransportMem runs the cluster over transport.MemNet: hermetic,
	// race-detector friendly, no sockets.
	TransportMem Transport = iota + 1
	// TransportTCP runs the cluster over loopback TCP sockets.
	TransportTCP
)

// String returns the substrate name.
func (t Transport) String() string {
	if t == TransportTCP {
		return "tcp"
	}
	return "mem"
}

// Fault installs a misbehaving handler on the real side: the node
// silently drops every incoming message of the given type. The sim side
// stays honest, so the report must flag the divergence — the harness's
// self-test that drift is detected, not just asserted away.
type Fault struct {
	Node proto.NodeID
	Type proto.MsgType
}

// Scenario configures one differential run.
type Scenario struct {
	// Variant selects the protocol stack (default VariantComposed).
	Variant Variant
	// Transport selects the real-run substrate (default TransportMem).
	Transport Transport
	// N is the cluster size (default 64; TCP runs default 16).
	N int
	// Degree is the overlay degree for random-regular variants (flood,
	// dandelion; default 8). Adaptive and composed scenarios always use
	// a ring — see the package comment on schedule independence.
	Degree int
	// Seed drives every random choice in both runs (default 1).
	Seed uint64
	// Source is the originating node (composed: must be a group member).
	Source proto.NodeID
	// Payload is the broadcast content; nil derives an encoded
	// transaction from the seed (valid for every variant).
	Payload []byte

	// K is the composed anonymity parameter (default 4); Group overrides
	// the default evenly spaced member set.
	K     int
	Group []proto.NodeID
	// DCInterval spaces DC-net rounds (default 250 ms) and DCRounds
	// bounds them (default 3: announce, data, idle announce).
	DCInterval time.Duration
	DCRounds   int
	// D is the number of adaptive-diffusion rounds (default 4);
	// ADInterval spaces them (default 50 ms).
	D          int
	ADInterval time.Duration
	// Q is Dandelion's per-hop fluff probability (default 0.25).
	Q float64

	// Netem applies one network-condition profile to both runs: the sim
	// delivers through Options.Netem and every transport node shapes its
	// sends through Config.Shaper, built from the same (profile, seed) —
	// so loss and hold decisions are the identical pure function on both
	// sides, and per-type counts/bytes/coverage stay exactness-checked
	// even on a lossy, jittered network. Delivery-time distributions are
	// the quantity that only matches statistically; set DistTolerance to
	// check them. Churn profiles are rejected (a wall-clock cluster
	// cannot replay virtual-time crashes). A lossy profile mounts the
	// variant's loss tolerance (see spec); flood needs none, each directed
	// link carrying at most one data message. Drop decisions key on
	// per-(link, type) seeded streams, so each message's fate depends only
	// on its position in its own type's FIFO stream, and retransmissions
	// are the same pure function of the seed on both sides.
	Netem *netem.Profile
	// DistTolerance, when positive, checks the delivery-time
	// distributions: each probed quantile must satisfy
	// |real − sim| ≤ DistTolerance × sim + 250 ms. Zero reports the
	// distribution diff without asserting.
	DistTolerance float64

	// Timeout bounds the real run's wall clock (default 60 s).
	Timeout time.Duration
	// WallTolerance, when positive, asserts the real run's wall-clock
	// duration is at most WallTolerance × the sim's virtual duration
	// plus a 2 s floor — the declared tolerance for the one
	// timing-dependent quantity. Zero reports timing without asserting.
	WallTolerance float64
	// Fault optionally corrupts one real-side handler (divergence
	// self-test).
	Fault *Fault
}

func (sc *Scenario) applyDefaults() {
	if sc.Variant == 0 {
		sc.Variant = VariantComposed
	}
	if sc.Transport == 0 {
		sc.Transport = TransportMem
	}
	if sc.N == 0 {
		sc.N = 64
		if sc.Transport == TransportTCP {
			sc.N = 16
		}
	}
	if sc.Degree == 0 {
		sc.Degree = 8
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.K == 0 {
		sc.K = 4
	}
	if sc.DCInterval <= 0 {
		sc.DCInterval = 250 * time.Millisecond
	}
	if sc.DCRounds == 0 {
		sc.DCRounds = 3
	}
	if sc.D == 0 {
		sc.D = 4
	}
	if sc.ADInterval <= 0 {
		sc.ADInterval = 50 * time.Millisecond
	}
	if sc.Q == 0 {
		sc.Q = 0.25
	}
	if sc.Timeout <= 0 {
		sc.Timeout = 60 * time.Second
	}
	if sc.Variant == VariantComposed {
		if len(sc.Group) == 0 {
			// K members evenly spaced on the ring, well outside each
			// other's diffusion balls.
			step := sc.N / sc.K
			if step == 0 {
				step = 1
			}
			for i := 0; i < sc.K && i*step < sc.N; i++ {
				sc.Group = append(sc.Group, proto.NodeID(i*step))
			}
		}
		// Only a group member can originate. The defaulted group always
		// contains node 0, so the zero-value Source is a member; any
		// non-member Source — including 0 against a caller-set group
		// that excludes it — is rejected by validate rather than
		// silently remapped.
	}
	if sc.Payload == nil {
		tx := &chain.Tx{Nonce: sc.Seed ^ 0x70617269, Fee: 10, Payload: []byte("parity probe tx")}
		sc.Payload = tx.Encode()
	}
}

// validate rejects configurations that would measure a different
// scenario than the one written down.
func (sc *Scenario) validate() error {
	if int(sc.Source) < 0 || int(sc.Source) >= sc.N {
		return fmt.Errorf("parity: source %d outside [0,%d)", sc.Source, sc.N)
	}
	if sc.Variant == VariantComposed && !slices.Contains(sc.Group, sc.Source) {
		return fmt.Errorf("parity: composed source %d is not a group member %v (set Scenario.Source to a member)", sc.Source, sc.Group)
	}
	if sc.Netem != nil {
		if err := sc.Netem.Validate(); err != nil {
			return err
		}
		if sc.Netem.Churn.Enabled() {
			return fmt.Errorf("parity: churn profiles are simulator-only (no faithful wall-clock replay)")
		}
	}
	return nil
}

// lossy reports whether the scenario's profile sheds messages — the
// runs then settle on counter stability instead of full coverage.
func (sc *Scenario) lossy() bool { return sc.Netem != nil && sc.Netem.Loss > 0 }

// ring reports whether the scenario runs on a ring overlay.
func (sc *Scenario) ring() bool {
	return sc.Variant == VariantAdaptive || sc.Variant == VariantComposed
}

// topo builds the scenario overlay.
func (sc *Scenario) topo() (*topology.Graph, error) {
	if sc.ring() {
		return topology.Ring(sc.N)
	}
	rng := randFor(sc.Seed)
	return topology.RandomRegular(sc.N, sc.Degree, rng)
}

// treeDegree is the Alpha degree assumption for the overlay in use.
func (sc *Scenario) treeDegree() int {
	if sc.ring() {
		return 2
	}
	return sc.Degree
}

// spec is the stack both runtimes mount, with the loss tolerance the
// profile calls for (stack.Spec.For). On parity's profiles that is a
// 130 ms timeout, a budget of 3 and a 2 s composed fail-safe.
func (sc *Scenario) spec() stack.Spec {
	return stack.Spec{
		Kind:     sc.Variant,
		Adaptive: adaptive.Config{D: sc.D, RoundInterval: sc.ADInterval, TreeDegree: sc.treeDegree()},
		// Epoch is set beyond any run horizon so the successor graph is
		// drawn exactly once (at Init) under both runtimes; the fail-safe
		// stays off because virtual time reaches it in the simulator
		// while wall-clock runs end long before it.
		Dandelion: dandelion.Config{Q: sc.Q, Epoch: time.Hour, FailSafe: 0},
		Composed: core.Config{
			Group: sc.Group,
			DCNet: dcnet.Config{
				Mode:      dcnet.ModeAnnounce,
				Interval:  sc.DCInterval,
				Policy:    dcnet.PolicyNone,
				MaxRounds: sc.DCRounds,
			},
		},
	}.For(sc.Netem)
}

// handler builds the protocol handler for one node — the single factory
// both runtimes share, in the map-backed live form on both, so any config
// skew between the runs is impossible by construction.
func (sc *Scenario) handler(id proto.NodeID, hashes map[proto.NodeID][32]byte) proto.Handler {
	spec := sc.spec()
	if spec.Kind != VariantComposed {
		return stack.Live(spec, id)
	}
	// The composed stack runs inside the blockchain node, which builds its
	// own core.Protocol.
	cfg := node.Config{Core: spec.Composed}
	cfg.Core.Hashes, cfg.Core.Adaptive = hashes, spec.Adaptive
	n, err := node.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("parity: building node %d: %v", id, err))
	}
	return n
}

// Run executes the scenario under both runtimes and returns the diff.
func Run(sc Scenario) (*Report, error) {
	sc.applyDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	simAcct, err := sc.runSim()
	if err != nil {
		return nil, fmt.Errorf("parity: sim run: %w", err)
	}
	realAcct, err := sc.runReal()
	if err != nil {
		return nil, fmt.Errorf("parity: real run: %w", err)
	}
	return compare(&sc, simAcct, realAcct), nil
}

// dropHandler is the Fault wrapper: it discards incoming messages of one
// type and passes everything else through.
type dropHandler struct {
	inner proto.Handler
	drop  proto.MsgType
}

func (d *dropHandler) Init(ctx proto.Context) { d.inner.Init(ctx) }

func (d *dropHandler) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	if msg.Type() == d.drop {
		return
	}
	d.inner.HandleMessage(ctx, from, msg)
}

func (d *dropHandler) HandleTimer(ctx proto.Context, payload any) { d.inner.HandleTimer(ctx, payload) }

// Broadcast forwards the Broadcaster role of the wrapped handler, so a
// fault placed on the source node still yields a divergence report
// instead of an injection error.
func (d *dropHandler) Broadcast(ctx proto.Context, payload []byte) (proto.MsgID, error) {
	b, ok := d.inner.(proto.Broadcaster)
	if !ok {
		return proto.MsgID{}, fmt.Errorf("parity: faulted handler %T is not a Broadcaster", d.inner)
	}
	return b.Broadcast(ctx, payload)
}
