package experiments

import (
	"time"

	"repro/internal/dcnet"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// dcNetwork builds the byte-accounted complete-graph LAN network of the
// bare DC-net experiments (E2, E7, E11) and the group's member list.
func dcNetwork(sc Scenario, g int, seed uint64) (*sim.Network, []proto.NodeID) {
	topo, err := topology.Complete(g)
	if err != nil {
		panic(err)
	}
	sc.codec = wire.NewCodec()
	dcnet.RegisterMessages(sc.codec)
	all := make([]proto.NodeID, g)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	return sc.network(topo, seed, netem.LAN), all
}

// dcGroup runs one DC-net group of size g for `rounds` rounds and
// returns (messages, bytes, rounds completed).
func dcGroup(sc Scenario, g int, mode dcnet.Mode, policy dcnet.Policy, rounds int, seed uint64, queue func(i int, m *dcnet.Member)) (int64, int64, int) {
	net, all := dcNetwork(sc, g, seed)
	members := make([]*dcnet.Member, g)
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		m, err := dcnet.NewMember(dcnet.Config{
			Self:     id,
			Members:  all,
			Mode:     mode,
			SlotSize: 256,
			Interval: 100 * time.Millisecond,
			Policy:   policy,
		})
		if err != nil {
			panic(err)
		}
		members[id] = m
		return &memberHandler{m}
	})
	net.Start()
	if queue != nil {
		for i, m := range members {
			queue(i, m)
		}
	}
	net.RunUntil(time.Duration(rounds)*100*time.Millisecond + 50*time.Millisecond)
	return net.TotalMessages(), net.TotalBytes(), members[0].RoundsCompleted
}

// memberHandler adapts a dcnet.Member to proto.Handler.
type memberHandler struct{ m *dcnet.Member }

func (h *memberHandler) Init(ctx proto.Context) { h.m.Start(ctx) }
func (h *memberHandler) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	h.m.HandleMessage(ctx, from, msg)
}
func (h *memberHandler) HandleTimer(ctx proto.Context, payload any) {
	h.m.HandleTimer(ctx, payload)
}

// E2DCNetComplexity verifies §V-A's "first phase incurs O(k²) messages
// periodically": one Fig.-4 round of a group of size g exchanges exactly
// 3·g·(g−1) messages (plus g·(g−1) commitments under PolicyBlame).
func E2DCNetComplexity(sc Scenario) *metrics.Table {
	t := metrics.NewTable(
		"E2 — DC-net messages per round vs group size (paper: O(k²))",
		"group size g", "rounds", "msgs/round", "3·g·(g−1)", "with commitments", "4·g·(g−1)",
	)
	sizes := []int{4, 6, 8, 10, 14, 19}
	if sc.Quick {
		sizes = []int{4, 8, 19}
	}
	rounds := sc.trials(3, 10)
	// One trial per group size; each runs its plain and blame groups.
	type sample struct {
		done                    int
		perRound, perRoundBlame float64
	}
	samples := runner.Map(len(sizes), sc.Par, func(i int) sample {
		g := sizes[i]
		msgs, _, done := dcGroup(sc, g, dcnet.ModeFixed, dcnet.PolicyNone, rounds, uint64(g), nil)
		msgsBlame, _, doneBlame := dcGroup(sc, g, dcnet.ModeFixed, dcnet.PolicyBlame, rounds, uint64(g), nil)
		return sample{
			done:          done,
			perRound:      float64(msgs) / float64(done),
			perRoundBlame: float64(msgsBlame) / float64(doneBlame),
		}
	})
	for i, g := range sizes {
		s := samples[i]
		t.AddRow(g, s.done, s.perRound, 3*g*(g-1), s.perRoundBlame, 4*g*(g-1))
	}
	t.AddNote("group sizes span the paper's k ∈ [4,10] band [k, 2k−1]")
	return t
}
