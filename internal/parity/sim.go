package parity

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
)

// simLatency is the constant per-hop latency of the sim twin. It is a
// placeholder for loopback delay: small against every round interval,
// so virtual-time event ordering matches the wall-clock ordering of the
// real cluster wherever ordering matters (it never matters for the
// exactness-checked counts — see the package comment).
const simLatency = time.Millisecond

// simHorizon bounds the dandelion sim run: past all stem/fluff activity,
// before the (one-hour) successor epoch timer.
const simHorizon = 30 * time.Second

// randFor derives the topology RNG — shared by both runs so they build
// the identical overlay.
func randFor(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x51ed2701))
}

// runSim executes the scenario under the discrete-event simulator and
// extracts its accounting.
func (sc *Scenario) runSim() (*Accounting, error) {
	g, err := sc.topo()
	if err != nil {
		return nil, err
	}
	opts := sim.Options{
		Seed:    sc.Seed,
		Latency: sim.ConstLatency(simLatency),
		Codec:   codec.New(),
	}
	if sc.Netem != nil {
		// Shaped twin: the profile supersedes the loopback placeholder
		// latency, so both runs draw delay and loss from the same
		// decision function.
		opts.Netem = sc.Netem
	}
	net := sim.NewNetwork(g, opts)
	hashes := core.SimHashes(sc.N)
	net.SetHandlers(func(id proto.NodeID) proto.Handler { return sc.handler(id, hashes) })
	net.Start()
	id, err := net.Originate(sc.Source, sc.Payload)
	if err != nil {
		return nil, err
	}
	if sc.Variant == VariantDandelion {
		// The epoch timer re-arms forever; run to a horizon instead of
		// draining the queue.
		net.RunUntil(simHorizon)
	} else {
		// Every other variant's timers terminate (DC-net rounds are
		// bounded, diffusion ends in a final spread), so the queue
		// drains completely.
		net.Run(0)
	}
	if id != proto.NewMsgID(sc.Payload) {
		return nil, fmt.Errorf("originated id %s does not match payload id", id)
	}

	acct := newAccounting()
	// Sweep the full allocated type space, not just the canonical index,
	// so the collection is symmetric with the real side's per-type
	// counters — a type missing from the index still diffs per-type
	// instead of surfacing as a false (sim 0, real N) divergence.
	for t := proto.MsgType(0); t < proto.RangeEnd; t++ {
		if msgs := net.MessagesOfType(t); msgs != 0 {
			acct.Msgs[t] = msgs
			acct.Bytes[t] = net.BytesOfType(t)
		}
	}
	acct.TotalMsgs = net.TotalMessages()
	acct.TotalBytes = net.TotalBytes()
	acct.Delivered = net.Delivered(id)
	acct.Elapsed = lastDelivery(net, id)
	acct.NetemDropped = net.NetemDropped()
	acct.DeliveryTimes = make([]time.Duration, sc.N)
	for i := range acct.DeliveryTimes {
		acct.DeliveryTimes[i] = -1
	}
	for nodeID, at := range net.Deliveries(id).All() {
		acct.DeliveryTimes[nodeID] = at
	}
	return acct, nil
}

// lastDelivery returns the virtual time of the final delivery (the
// broadcast's completion time, excluding trailing idle DC rounds).
func lastDelivery(net *sim.Network, id proto.MsgID) time.Duration {
	var last time.Duration
	for _, at := range net.Deliveries(id).All() {
		if at > last {
			last = at
		}
	}
	return last
}
