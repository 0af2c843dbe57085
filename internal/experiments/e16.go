package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/adversary"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/stack"
)

// e16Sample is one trial's attack outcome.
type e16Sample struct {
	truth    proto.NodeID
	exact    bool           // point estimate (first-spy) vs suspect set
	suspect  proto.NodeID   // when exact
	suspects []proto.NodeID // when !exact (group attack / no-sighting fallback)
	obs      int            // sightings the spies recorded for this payload
}

// e16HonestNodes returns every node the adversary does not control.
func e16HonestNodes(n int, corrupted func(proto.NodeID) bool) []proto.NodeID {
	out := make([]proto.NodeID, 0, n)
	for v := 0; v < n; v++ {
		if !corrupted(proto.NodeID(v)) {
			out = append(out, proto.NodeID(v))
		}
	}
	return out
}

// e16Cell is one protocol arm of the sweep at one overlay size: the
// label the table prints and the stack under attack (the composed
// estimator targets spec.Composed.Group).
type e16Cell struct {
	label  string
	n, deg int
	spec   stack.Spec
}

// e16Cells builds the protocol arms for one overlay size. Scale rows
// pass a non-empty suffix (e.g. "@N=1000") and drop the composed arm:
// the §V group attack runs inside a fixed k=4 group, so its outcome is
// N-independent by construction and re-measuring it at city scale would
// only restate the default-N row.
func e16Cells(n, deg int, suffix string, withComposed bool) []e16Cell {
	kinds := []stack.Kind{stack.Flood, stack.Dandelion, stack.Adaptive}
	if withComposed {
		kinds = append(kinds, stack.Composed)
	}
	cells := make([]e16Cell, 0, len(kinds))
	for _, kind := range kinds {
		cells = append(cells, e16Cell{label: kind.String() + suffix, n: n, deg: deg, spec: e15Spec(kind, n, deg)})
	}
	return cells
}

// trial runs one seeded spy-attack trial of the cell: sample the
// colluding set, run the broadcast over the shaped (and possibly
// sharded) network with the Observer tapped in, and attack the
// observation stream with the cell's estimator.
func (c e16Cell) trial(sc Scenario, f float64, cond netem.Profile, trial int) e16Sample {
	seed := uint64(trial + 1)
	trialRNG := rand.New(rand.NewPCG(seed, 0xe16))
	corrupted := adversary.SampleCorrupted(c.n, f, trialRNG)
	obs := adversary.NewObserver(corrupted)
	composed, group := c.spec.Kind == stack.Composed, c.spec.Composed.Group
	honestMembers := func() []proto.NodeID {
		out := make([]proto.NodeID, 0, len(group))
		for _, m := range group {
			if !obs.Corrupted(m) {
				out = append(out, m)
			}
		}
		return out
	}
	if composed {
		// The originator must be an honest group member; re-roll the
		// (vanishingly rare, ≤ f^k) adversary draw that corrupts the
		// whole group.
		for len(honestMembers()) == 0 {
			obs = adversary.NewObserver(adversary.SampleCorrupted(c.n, f, trialRNG))
		}
	}
	net := sc.network(regular(c.n, c.deg, seed), seed, cond)
	net.AddTap(obs)
	stack.Mount(net, c.spec)
	net.Start()
	var src proto.NodeID
	if composed {
		hm := honestMembers()
		src = hm[trialRNG.IntN(len(hm))]
	} else {
		src = pickHonestSource(c.n, obs.Corrupted, trialRNG)
	}
	id, err := net.Originate(src, []byte{byte(trial), 0x16})
	if err != nil {
		panic(err)
	}
	net.RunUntil(e15Horizon)

	sightings := obs.Observations(id)
	s := e16Sample{truth: src, obs: len(sightings)}
	if composed {
		if suspects, tapped := adversary.GroupSuspects(group, obs.Corrupted); tapped {
			s.suspects = suspects
			return s
		}
	}
	if suspect := adversary.FirstSpy(sightings); suspect != proto.NoNode {
		s.exact = true
		s.suspect = suspect
		return s
	}
	s.suspects = e16HonestNodes(c.n, obs.Corrupted)
	return s
}

// e16Row runs one sweep cell's trials and appends its table row.
func e16Row(t *metrics.Table, sc Scenario, c e16Cell, f float64, cond netem.Profile, nTrials int) {
	samples := runner.Map(nTrials, sc.Par, func(trial int) e16Sample {
		return c.trial(sc, f, cond, trial)
	})
	agg := &adversary.Aggregate{}
	obsTotal := 0
	for _, s := range samples {
		if s.exact {
			agg.AddExact(s.truth, s.suspect)
		} else {
			agg.AddSet(s.truth, s.suspects)
		}
		obsTotal += s.obs
	}
	t.AddRow(c.label, cond.Name, f, nTrials,
		agg.Precision(), agg.Recall(), agg.MeanAnonymitySet(),
		float64(obsTotal)/float64(nTrials))
}

// E16AdversarialAnonymity measures the thing the paper actually
// promises and E1–E15 never touched: anonymity under attack. A
// colluding fraction f of nodes runs as passive spies — delivery-time
// taps on real simulated traffic (Tap.OnReceive, so spies see exactly
// the messages the shaped network delivered, when it delivered them) —
// and per-protocol estimators deanonymize the originator:
//
//   - flood / adaptive / dandelion: the first-spy estimator of the
//     Dandelion analysis — suspect the honest node whose message first
//     reached any spy. Against flooding the source's own push usually
//     arrives first (precision ≈ P(spy neighbor)); against Dandelion the
//     earliest sighting is a stem relay, which is the wrong node except
//     when the stem's first hop was a spy.
//   - composed: the §V collusion attack. The DC-net hides the
//     originator from the outside, so the adversary wins only when it
//     seated a spy inside the originating group (suspects = the group's
//     honest members, paper bound ≈ 1/k + f); untapped groups fall back
//     to first-spy over the Phase-2/3 traffic, which starts at the
//     virtual source, not the originator.
//
// A trial with no sightings at all degrades to a uniform guess over the
// honest nodes. The sweep crosses f ∈ {0.05, 0.1, 0.2} with the E15
// impairment grid, because loss and churn thin out exactly the
// observations the estimators feed on — robustness and privacy are one
// frontier, not two. Spy taps ride the sharded loop (the per-shard
// observation logs replay the merged single-loop stream, sim/obs.go),
// so a -shards request applies to every trial; the closing scale rows
// push the first-spy protocols to N ∈ {1k, 10k} on exactly that path.
// All columns are virtual-time quantities: tables are bit-identical at
// any -par and any -shards.
func E16AdversarialAnonymity(sc Scenario) *metrics.Table {
	n, deg := sc.size(96), sc.degree(8)
	nTrials := sc.trials(25, 80)
	sc.Netem = nil // the condition grid is a measured axis
	fractions := []float64{0.05, 0.1, 0.2}
	conds := []netem.Profile{
		e15Condition("clean", 0, 0),
		e15Condition("loss5", 0.05, 0),
		{
			// Heavy jitter, no loss: arrival times scatter by more than a
			// full hop latency, the worst case for timing-based suspicion
			// ordering while every message still arrives.
			Name:    "jitter",
			Latency: netem.Const(50 * time.Millisecond),
			Jitter:  netem.Uniform{Hi: 80 * time.Millisecond},
		},
		e15Condition("churn20", 0, 0.20),
	}

	t := metrics.NewTable(
		fmt.Sprintf("E16 — adversarial anonymity under attack (N=%d, %d-regular; f = colluding spy fraction)", n, deg),
		"protocol", "conditions", "f", "trials", "precision", "recall", "anon set", "obs/trial",
	)

	for _, c := range e16Cells(n, deg, "", true) {
		for _, f := range fractions {
			for _, cond := range conds {
				e16Row(t, sc, c, f, cond, nTrials)
			}
		}
	}

	// Scale rows: the spy sweep at city scale, riding the sharded loop
	// the tap merge de-clamped. One representative attack point (f=0.1,
	// clean) per first-spy protocol — the question these rows answer is
	// how first-spy precision moves with overlay size, not the full
	// grid.
	scaleTrials := sc.pick(3, 10)
	scaleCond := conds[0]
	for _, sn := range []int{1000, 10000} {
		for _, c := range e16Cells(sn, deg, fmt.Sprintf("@N=%d", sn), false) {
			e16Row(t, sc, c, 0.1, scaleCond, scaleTrials)
		}
	}

	t.AddNote("spies are delivery-time taps (Tap.OnReceive): they see only messages the shaped network delivered, at arrival time")
	t.AddNote("flood/adaptive/dandelion: first-spy estimator; a trial with zero sightings degrades to a uniform guess over honest nodes")
	t.AddNote("composed: §V group attack — a spy inside the originating DC-net group collapses the suspect set to its honest")
	t.AddNote("members (bound ≈ 1/k + f, k=4); untapped groups fall back to first-spy on Phase-2/3 traffic (starts at the")
	t.AddNote("virtual source, not the originator); Phase-1/custody traffic is pairwise-protected and carries no payload ID")
	t.AddNote("precision: expected success of the adversary's single guess; recall: trials with the originator in the suspect set")
	t.AddNote("@N rows: first-spy attack at overlay scale (f=0.1, clean), sharded when -shards > 1; composed's group attack is N-independent")
	return t
}
