package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/dissent"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/topology"
)

// E13DissentStartup measures the Dissent-style announcement phase the
// paper rejects in §III-B: "The announcement phase … causes a startup
// phase scaling linearly in the number of group members and becoming
// noticeably slow, e.g., 30 seconds, for group sizes of 8 to 12. This
// latency might not be acceptable in real world blockchain
// applications." We run the serial verifiable-shuffle pipeline across
// group sizes and contrast it with the paper's announce-mode DC-net,
// whose announcement cost is one constant-depth round (three half
// round-trips) regardless of group size.
//
// Absolute numbers depend on link latency — Dissent's 30 s figure comes
// from WAN deployments with per-hop work; the reproduction target is the
// *linear* scaling and the contrast with the O(1)-depth DC-net round.
func E13DissentStartup(sc Scenario) *metrics.Table {
	t := metrics.NewTable(
		"E13 — Dissent-style announcement startup vs group size (per-hop 250 ms WAN)",
		"group size", "shuffle pipeline latency", "messages", "dc-net announce round (paper)", "scaling",
	)
	sizes := []int{4, 8, 12, 16}
	if sc.Quick {
		sizes = []int{4, 12}
	}
	const hop = 250 * time.Millisecond // WAN-ish, matching Dissent's setting
	type sample struct {
		lat  time.Duration
		msgs int64
	}
	samples := runner.Map(len(sizes), sc.Par, func(i int) sample {
		lat, msgs := dissentRound(sc, sizes[i], hop)
		return sample{lat: lat, msgs: msgs}
	})
	base := samples[0].lat // scaling is relative to the smallest group
	for i, n := range sizes {
		// The DC-net announce round: shares, S-partials, T-partials —
		// three message depths regardless of group size.
		dcLat := 3 * hop
		t.AddRow(n, fmtDuration(samples[i].lat), samples[i].msgs, fmtDuration(dcLat),
			float64(samples[i].lat)/float64(base))
	}
	t.AddNote("shuffle latency grows linearly (serial pipeline); the DC-net announcement is constant-depth")
	t.AddNote("Dissent's published 30 s at g=8–12 includes per-hop crypto/proof work our simulation prices at the link only")
	return t
}

// dissentRound runs one announcement round of the shuffle at group size
// n and returns (pipeline latency, messages).
func dissentRound(sc Scenario, n int, hop time.Duration) (time.Duration, int64) {
	g, err := topology.Complete(n)
	if err != nil {
		panic(err)
	}
	secrets := dissent.SharedLayerSecrets(core.SimHashes(n))
	// The hop latency is E13's measured constant, not an overridable
	// preset.
	sc.Netem = nil
	net := sc.network(g, uint64(n)+7, netem.Profile{Name: "dissent-hop", Latency: netem.Const(hop)})
	// Each member records when it published round 1, on its own node's
	// event loop; the pipeline's latency is the first of them.
	publishedAt := make([]time.Duration, n)
	all := make([]proto.NodeID, n)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		keys, err := dissent.Setup(id, secrets)
		if err != nil {
			panic(err)
		}
		m, err := dissent.NewMember(dissent.Config{
			// One round per minute isolates round 1's message count.
			Self: id, Members: all, Keys: keys, Interval: time.Minute,
			OnAnnouncements: func(ctx proto.Context, round uint32, _ []uint32) {
				if round == 1 && publishedAt[id] == 0 {
					publishedAt[id] = ctx.Now()
				}
			},
		})
		if err != nil {
			panic(err)
		}
		m.Announce(256)
		return &dissentHandler{m}
	})
	net.Start()
	net.RunUntil(100 * time.Second)
	var first time.Duration
	for _, at := range publishedAt {
		if at != 0 && (first == 0 || at < first) {
			first = at
		}
	}
	if first == 0 {
		panic("dissent round never published")
	}
	return first - time.Minute, net.TotalMessages()
}

// dissentHandler adapts a dissent.Member to proto.Handler.
type dissentHandler struct{ m *dissent.Member }

func (h *dissentHandler) Init(ctx proto.Context) { h.m.Start(ctx) }
func (h *dissentHandler) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	h.m.HandleMessage(ctx, from, msg)
}
func (h *dissentHandler) HandleTimer(ctx proto.Context, payload any) { h.m.HandleTimer(ctx, payload) }
