package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stack"
)

// e15Horizon bounds each robustness run's virtual time: far past every
// protocol's completion on a clean network, so a row that stalls short
// of coverage reflects the impairment, not the clock.
const e15Horizon = 60 * time.Second

// e15Condition builds one sweep point over the common wide-area base
// (50 ms per hop plus up to 20 ms jitter).
func e15Condition(name string, loss, churn float64) netem.Profile {
	p := netem.Profile{
		Name:    name,
		Latency: netem.Const(50 * time.Millisecond),
		Jitter:  netem.Uniform{Hi: 20 * time.Millisecond},
		Loss:    loss,
	}
	if churn > 0 {
		// Churners crash for 2 s once, phased across the first second —
		// inside the flood/dandelion wave (~200–300 ms) and squarely
		// across the composed protocol's multi-second three-phase run.
		p.Churn = netem.Churn{
			Fraction: churn,
			Start:    time.Millisecond,
			Down:     2 * time.Second,
			Period:   time.Second,
			Cycles:   1,
		}
	}
	return p
}

// e15Spec is the protocol configuration E15, E16 and E17 share, so the
// three experiments measure exactly the same stacks — E15 their coverage
// under impairment, E16 the anonymity they buy under the same
// conditions, E17 both under sustained load.
func e15Spec(kind stack.Kind, n, deg int) stack.Spec {
	// The composed arm's DC-net group: k = 4 evenly spaced members.
	group := make([]proto.NodeID, 4)
	for i := range group {
		group[i] = proto.NodeID(i * (n / len(group)))
	}
	return stack.Spec{
		Kind:      kind,
		Adaptive:  adaptive.Config{D: 4, RoundInterval: 250 * time.Millisecond, TreeDegree: deg},
		Dandelion: dandelion.Config{Q: 0.25, Epoch: time.Hour, FailSafe: 2 * time.Second},
		Composed: core.Config{
			Group: group,
			// The loss-tolerance stack under test: ack/retransmit
			// sized to the 50–70 ms links (RTO > worst-case RTT),
			// eviction after 2 silent rounds down to a floor of 3,
			// and the 2 s fail-safe flood. The stall timeout leaves
			// room for a full retry chain (RetryBudget·RTO plus a
			// link delay), so a round being repaired is not
			// abandoned mid-retransmission at high loss.
			DCNet: dcnet.Config{
				Mode: dcnet.ModeAnnounce, Interval: 250 * time.Millisecond,
				Policy: dcnet.PolicyNone, MaxRounds: 16,
				RetransmitTimeout: 150 * time.Millisecond,
				RetryBudget:       3,
				Timeout:           600 * time.Millisecond,
				EvictAfter:        2,
				MinMembers:        3,
			},
			FailSafe: 2 * time.Second,
		},
	}
}

// e15Sample is one trial's outcome.
type e15Sample struct {
	delivered  int
	msgs       int64
	drops      int64
	retx       int
	nacks      int
	handoffs   int
	deliveries []time.Duration
}

// e15RelStats sums a trial's reliability-layer counters across every
// handler that mounts a channel: the DC-net member's Phase-1
// ack/retransmit plus the overlay channels (custody deposits, and the
// diffusion or stem surfaces when a protocol mounts them).
func e15RelStats(net *sim.Network) (retx, nacks, handoffs int) {
	for id := 0; id < net.Topology().N(); id++ {
		switch v := net.Handler(proto.NodeID(id)).(type) {
		case *core.Protocol:
			retx += v.RelRetransmits()
			nacks += v.RelNacks()
			handoffs += v.RelHandoffs()
			if m := v.Member(); m != nil {
				retx += m.Retransmits()
				nacks += m.Nacks()
			}
		case *adaptive.Protocol:
			ch := v.Engine().Channel()
			retx += ch.Retransmits
			nacks += ch.Nacks
		case *dandelion.Protocol:
			ch := v.Channel()
			retx += ch.Retransmits
			nacks += ch.Nacks
		}
	}
	return
}

// E15Robustness opens the degraded-network scenario axis none of
// E1–E14 covers: the paper claims the three-phase protocol is a
// *flexible* network approach, yet every prior experiment runs on
// lossless links with a static node set. This sweep measures coverage,
// delivery latency and message overhead for flood, adaptive diffusion,
// Dandelion and the composed protocol across packet-loss rates and
// churn fractions — the node-dynamicity regime Dandelion++ (Fanti et
// al.) identifies as where dissemination protocols actually
// differentiate, under the configurable loss/latency network models
// ethp2psim (Béres et al.) argues credible evaluation needs. All
// columns are virtual-time quantities, so the table is deterministic at
// any -par. E15 declares its own conditions; -netem does not override
// the sweep.
//
// The composed stack runs with its reliability layer on — DC-net
// ack/retransmit, failover eviction with a floor of 3, and the
// fail-safe flood — the configuration whose absence this sweep
// originally exposed: under the pre-reliability protocol one lost share
// stalled Phase 1 (coverage 0% at ≥5% loss) and one crashed group
// member zeroed coverage at 20% churn. It also runs on the same
// deg-regular overlay as the other protocols (the earlier ring was a
// parity-harness artifact, and a ring's single-path floods confound the
// phase-1 recovery this sweep measures with phase-3 wave deaths).
func E15Robustness(sc Scenario) *metrics.Table {
	n, deg := sc.size(96), sc.degree(8)
	nTrials := sc.trials(2, 8)
	conds := []netem.Profile{
		e15Condition("clean", 0, 0),
		e15Condition("loss2", 0.02, 0),
		e15Condition("loss5", 0.05, 0),
		e15Condition("loss10", 0.10, 0),
		e15Condition("churn20", 0, 0.20),
		e15Condition("loss5+churn20", 0.05, 0.20),
	}
	t := metrics.NewTable(
		fmt.Sprintf("E15 — robustness under loss and churn (N=%d, %d-regular; 50ms+jitter links; composed runs loss-tolerant)", n, deg),
		"protocol", "conditions", "trials", "coverage", "p50", "p95", "msgs/node", "drops/node", "retx", "nacks", "handoffs",
	)

	// E15 declares its own conditions: the impairment sweep is the
	// measured axis.
	sc.Netem = nil
	for _, kind := range [...]stack.Kind{stack.Flood, stack.Adaptive, stack.Dandelion, stack.Composed} {
		spec := e15Spec(kind, n, deg)
		for _, cond := range conds {
			samples := runner.Map(nTrials, sc.Par, func(trial int) e15Sample {
				seed := uint64(trial + 1)
				net := sc.network(regular(n, deg, seed), seed, cond)
				stack.Mount(net, spec)
				net.Start()
				id, err := net.Originate(0, []byte{byte(trial), 0x15})
				if err != nil {
					panic(err)
				}
				net.RunUntil(e15Horizon)
				retx, nacks, handoffs := e15RelStats(net)
				s := e15Sample{
					delivered: net.Delivered(id),
					msgs:      net.TotalMessages(),
					drops:     net.NetemDropped(),
					retx:      retx,
					nacks:     nacks,
					handoffs:  handoffs,
				}
				for _, at := range net.Deliveries(id).All() {
					s.deliveries = append(s.deliveries, at)
				}
				return s
			})

			coverage := metrics.NewSummary()
			var msgs, drops int64
			var retx, nacks, handoffs int
			var pooled []time.Duration
			for _, s := range samples {
				coverage.Add(float64(s.delivered) / float64(n) * 100)
				msgs += s.msgs
				drops += s.drops
				retx += s.retx
				nacks += s.nacks
				handoffs += s.handoffs
				pooled = append(pooled, s.deliveries...)
			}
			sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
			t.AddRow(kind.String(), cond.Name, nTrials,
				fmt.Sprintf("%.4g%%", coverage.Mean()),
				fmtDuration(metrics.DurationQuantile(pooled, 0.50)),
				fmtDuration(metrics.DurationQuantile(pooled, 0.95)),
				float64(msgs)/float64(int64(nTrials)*int64(n)),
				float64(drops)/float64(int64(nTrials)*int64(n)),
				float64(retx)/float64(nTrials),
				float64(nacks)/float64(nTrials),
				float64(handoffs)/float64(nTrials),
			)
		}
	}
	t.AddNote("links: 50ms const + U(0,20ms) jitter; loss = per-link message drop rate; churn = fraction crashing 2s mid-run")
	t.AddNote("adaptive covers only its diffusion ball by design; dandelion's fail-safe re-broadcast buys its loss resilience")
	t.AddNote("composed runs the reliability layer (dcnet ack/retransmit + group failover + fail-safe + custody); before it,")
	t.AddNote("one lost share stalled Phase 1 under PolicyNone — coverage was 32%% at 2%% loss, 0%% at 5-10%% loss and churn")
	t.AddNote("retx/nacks/handoffs: per-trial reliability-channel totals; a handoff is a custodian launching Phase 2 for a")
	t.AddNote("churned originator — the repair that lifted loss5+churn20 composed coverage from ~55%% to full")
	return t
}
