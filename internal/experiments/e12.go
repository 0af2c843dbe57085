package experiments

import (
	"slices"
	"time"

	"repro/internal/adaptive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dcnet"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/stack"
)

// tracedPhases are the three families E12 traces, in Fig. 5's order.
var tracedPhases = []string{codec.PhaseDCNet, codec.PhaseAdaptive, codec.PhaseFlood}

// phaseTracer records per-family first/last send times and counts.
type phaseTracer struct {
	stats map[string]*phaseStat
}

type phaseStat struct {
	first, last time.Duration
	count       int64
}

func (p *phaseTracer) OnSend(at time.Duration, _, _ proto.NodeID, msg proto.Message) {
	e, _ := codec.Lookup(msg.Type())
	if !slices.Contains(tracedPhases, e.Phase) {
		return
	}
	s := p.stats[e.Phase]
	if s == nil {
		s = &phaseStat{first: at}
		p.stats[e.Phase] = s
	}
	s.last = at
	s.count++
}

func (*phaseTracer) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (*phaseTracer) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte)    {}

// E12PhaseTrace traces one broadcast through the three phases of Fig. 5:
// the k-sized DC-net clique, the depth-d diffusion tree, and the final
// flood — reporting when each phase ran, how many messages it used, and
// how much of the network it had covered when it ended.
// E12 is a single trace, not a trial family; it runs sequentially and
// ignores the scenario's size and parallelism knobs.
func E12PhaseTrace(sc Scenario) *metrics.Table {
	const n, deg, d = 100, 6, 2 // Fig. 5 uses k=3 (the group below), d=2
	t := metrics.NewTable(
		"E12 — one broadcast through the three phases (N=100, k=3, d=2; Fig. 5 parameters)",
		"phase", "first msg", "last msg", "messages", "coverage at phase end",
	)
	g := regular(n, deg, 5)

	tracer := &phaseTracer{stats: make(map[string]*phaseStat)}
	net := sc.network(g, 3, netem.Metro)
	net.AddTap(tracer)
	stack.Mount(net, stack.Spec{
		Kind:     stack.Composed,
		Adaptive: adaptive.Config{D: d, RoundInterval: 200 * time.Millisecond, TreeDegree: deg},
		Composed: core.Config{
			Group: []proto.NodeID{10, 40, 70},
			DCNet: dcnet.Config{
				Mode: dcnet.ModeFixed, SlotSize: 300,
				Interval: 500 * time.Millisecond, Policy: dcnet.PolicyNone,
			},
		},
	})
	net.Start()
	id, err := net.Originate(40, []byte("figure-5 trace"))
	if err != nil {
		panic(err)
	}
	// Run until full coverage (bounded), then compute per-phase coverage
	// from the recorded delivery times.
	for step := 0; step < 600 && net.Delivered(id) < n; step++ {
		net.RunUntil(net.Now() + 100*time.Millisecond)
	}
	times := net.Deliveries(id)
	coverageBy := func(at time.Duration) int {
		c := 0
		for _, dt := range times.All() {
			if dt <= at {
				c++
			}
		}
		return c
	}
	var total int64
	for _, fam := range tracedPhases {
		st := tracer.stats[fam]
		if st == nil {
			t.AddRow(fam, "-", "-", 0, 0)
			continue
		}
		total += st.count
		t.AddRow(fam, fmtDuration(st.first), fmtDuration(st.last), st.count, coverageBy(st.last))
	}
	t.AddRow("total", "-", "-", total, net.Delivered(id))
	t.AddNote("phase 1 runs periodically; its count includes idle DC-net rounds around the broadcast")
	return t
}
