// Package adversary implements the observation and estimation machinery
// behind the paper's motivating attacks (§I, [12]): an honest-but-curious
// adversary controlling a fraction of nodes records which honest node
// first relayed each message and when, then runs estimators —
// first-spy, timing-based maximum likelihood, and the group-level
// attack against the composed protocol — to deanonymize the originator.
package adversary

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"repro/internal/adaptive"
	"repro/internal/dandelion"
	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Observation is one adversarial sighting: a protocol message from an
// honest node arrived at a node the adversary controls. At is the
// arrival time — the moment the spy's handler would run, with the
// link's shaped delay applied.
type Observation struct {
	At   time.Duration
	Spy  proto.NodeID // the adversarial receiver
	From proto.NodeID // the honest sender (the immediate suspect)
	Kind proto.MsgType
}

// Observer is a sim.Tap recording everything a set of corrupted nodes
// sees. It never influences the run — the honest-but-curious model. It
// is a sim.SpyTap over its corrupted set, so the network reports to it
// only the receives at those nodes.
type Observer struct {
	spies   []proto.NodeID // the corrupted set as given, served by Spies
	corrupt map[proto.NodeID]bool
	// logs[ids[id]] holds the sightings of message id. Reset empties the
	// logs in place, so the next trial's sightings reuse their storage;
	// logs past len(ids) are kept empty ones.
	ids  map[proto.MsgID]int
	logs [][]Observation
	perm []proto.NodeID // ResetSampled's permutation
}

var _ sim.SpyTap = (*Observer)(nil)

// NewObserver corrupts the given nodes.
func NewObserver(corrupted []proto.NodeID) *Observer {
	o := &Observer{
		corrupt: make(map[proto.NodeID]bool, len(corrupted)),
		ids:     make(map[proto.MsgID]int),
	}
	o.Reset(corrupted)
	return o
}

// SampleCorrupted picks ⌊f·n⌋ distinct nodes uniformly at random —
// the botnet-style adversary of [12]: the first ones of the permutation
// rng.Perm(n) draws.
func SampleCorrupted(n int, f float64, rng *rand.Rand) []proto.NodeID {
	perm := permute(nil, n, rng)
	count := corruptedCount(n, f)
	return perm[:count:count]
}

// corruptedCount is ⌊f·n⌋. The epsilon before flooring absorbs
// binary-representation error in f·n: 0.3×10 evaluates to 2.9999…96 in
// float64, and a bare int() would seat 2 spies, not 3.
func corruptedCount(n int, f float64) int {
	return int(math.Floor(f*float64(n) + 1e-9))
}

// permute returns the permutation rng.Perm(n) returns, with the same
// draws, in perm's storage when it is large enough.
func permute(perm []proto.NodeID, n int, rng *rand.Rand) []proto.NodeID {
	perm = slices.Grow(perm[:0], n)[:n]
	for i := range perm {
		perm[i] = proto.NodeID(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// Corrupted reports whether the adversary controls the node.
func (o *Observer) Corrupted(n proto.NodeID) bool { return o.corrupt[n] }

// Observations returns the sightings for a message in arrival order. The
// slice is the Observer's own and valid until its next Reset, which
// overwrites it.
func (o *Observer) Observations(id proto.MsgID) []Observation {
	if i, ok := o.ids[id]; ok {
		return o.logs[i]
	}
	return nil
}

// Spies implements sim.SpyTap: the corrupted set, without allocating.
// The slice is the Observer's own; callers must not modify it.
func (o *Observer) Spies() []proto.NodeID { return o.spies }

// Reset clears every recorded observation and re-corrupts the given
// nodes, so one Observer — its maps and its sighting storage — can be
// reused across trials by a runner worker alongside
// Network.Reset/ClearTaps. The network reads the corrupted set at
// AddTap, so a registered Observer is reset between Network.ClearTaps
// and AddTap, never while registered.
func (o *Observer) Reset(corrupted []proto.NodeID) {
	clear(o.corrupt)
	for _, i := range o.ids {
		o.logs[i] = o.logs[i][:0]
	}
	clear(o.ids)
	o.spies = append(o.spies[:0], corrupted...)
	for _, n := range corrupted {
		o.corrupt[n] = true
	}
}

// ResetSampled is Reset(SampleCorrupted(n, f, rng)), with the same draws
// from rng, sampling in storage the Observer keeps.
func (o *Observer) ResetSampled(n int, f float64, rng *rand.Rand) {
	o.perm = permute(o.perm, n, rng)
	o.Reset(o.perm[:corruptedCount(n, f)])
}

// OnReceive implements sim.Tap: record messages from honest nodes that
// arrive at corrupted ones, keyed by the payload ID carried in the
// message. Recording at delivery time is load-bearing: the spy only
// sees messages the network actually delivered, at timestamps that
// include the link's latency and jitter — what a listening node on the
// real network would log.
func (o *Observer) OnReceive(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	if !o.corrupt[to] || o.corrupt[from] {
		return
	}
	id, ok := messageID(msg)
	if !ok {
		return
	}
	i, ok := o.ids[id]
	if !ok {
		i = len(o.ids)
		o.ids[id] = i
		if i == len(o.logs) {
			o.logs = append(o.logs, nil)
		}
	}
	o.logs[i] = append(o.logs[i], Observation{At: at, Spy: to, From: from, Kind: msg.Type()})
}

// OnSend implements sim.Tap (unused): send-side events fire before the
// shaper's drop decision and carry unshaped timestamps, so recording
// them would credit the spy with sightings of messages that never
// arrived.
func (*Observer) OnSend(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}

// OnDeliverLocal implements sim.Tap (unused).
func (*Observer) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte) {}

// messageID extracts the broadcast payload ID observable in a protocol
// message. DC-net traffic carries no message ID — that is exactly the
// point of Phase 1 — so it yields nothing here.
func messageID(msg proto.Message) (proto.MsgID, bool) {
	switch m := msg.(type) {
	case *flood.DataMsg:
		return m.ID, true
	case *dandelion.StemMsg:
		return m.ID, true
	case *adaptive.InfectMsg:
		return m.ID, true
	case *adaptive.ExtendMsg:
		return m.ID, true
	case *adaptive.TokenMsg:
		return m.ID, true
	case *adaptive.FinalMsg:
		return m.ID, true
	default:
		return proto.MsgID{}, false
	}
}

// FirstSpy returns the first-spy estimate: the honest node that first
// relayed the message to any corrupted node — the estimator the
// Dandelion analysis shows is near-optimal against flooding.
func FirstSpy(obs []Observation) proto.NodeID {
	if len(obs) == 0 {
		return proto.NoNode
	}
	best := obs[0]
	for _, o := range obs[1:] {
		if o.At < best.At {
			best = o
		}
	}
	return best.From
}

// FirstSpyOfKinds restricts first-spy to certain message families (e.g.
// only stem messages, or only adaptive-diffusion traffic).
func FirstSpyOfKinds(obs []Observation, kinds ...proto.MsgType) proto.NodeID {
	var filtered []Observation
	for _, o := range obs {
		for _, k := range kinds {
			if o.Kind == k {
				filtered = append(filtered, o)
				break
			}
		}
	}
	return FirstSpy(filtered)
}

// Timing is the timing-triangulation estimator for symmetric broadcasts
// (the Fig.-2 attack): assuming per-hop latency L, the source minimizes
// the variance of (arrival time at spy − L·dist(candidate, spy)) over
// spies. It reproduces the arrival-time analysis of [12].
type Timing struct {
	Topo       *topology.Graph
	HopLatency time.Duration
}

// Estimate returns the best candidate and, for diagnostics, the size of
// the score-tied anonymity set (candidates within tolerance of the best
// score). Candidates must be honest nodes.
func (t *Timing) Estimate(obs []Observation, candidates []proto.NodeID) (proto.NodeID, int) {
	if len(obs) == 0 || len(candidates) == 0 {
		return proto.NoNode, len(candidates)
	}
	// Earliest arrival per spy.
	earliest := make(map[proto.NodeID]time.Duration)
	for _, o := range obs {
		if cur, ok := earliest[o.Spy]; !ok || o.At < cur {
			earliest[o.Spy] = o.At
		}
	}
	spies := make([]proto.NodeID, 0, len(earliest))
	for s := range earliest {
		spies = append(spies, s)
	}
	sort.Slice(spies, func(i, j int) bool { return spies[i] < spies[j] })

	// BFS distances from every spy (cheaper than from every candidate).
	dist := make(map[proto.NodeID][]int, len(spies))
	for _, s := range spies {
		dist[s] = t.Topo.BFS(s)
	}

	L := float64(t.HopLatency)
	bestScore := 0.0
	best := proto.NoNode
	scores := make([]float64, len(candidates))
	for i, cand := range candidates {
		var sum, sumSq float64
		n := 0
		for _, s := range spies {
			d := dist[s][cand]
			if d < 0 {
				continue
			}
			r := float64(earliest[s]) - L*float64(d)
			sum += r
			sumSq += r * r
			n++
		}
		if n == 0 {
			scores[i] = 0
			continue
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if variance < 0 {
			// sumSq/n and mean² are both ~mean² for tightly clustered
			// residuals, and their difference is dominated by rounding
			// once |mean| is large (catastrophic cancellation). A
			// negative "variance" here would poison the tolerance below
			// (tol = bestScore·0.001 + floor turns negative), shrinking
			// the anonymity set to zero. True variance is ≥ 0; clamp.
			variance = 0
		}
		scores[i] = variance
		if best == proto.NoNode || variance < bestScore {
			best, bestScore = cand, variance
		}
	}
	// Anonymity set: candidates whose score is within 0.1% (or an
	// absolute epsilon) of the best.
	tol := bestScore*0.001 + 1e3 // 1e3 ns² absolute floor
	anon := 0
	for _, sc := range scores {
		if sc <= bestScore+tol {
			anon++
		}
	}
	return best, anon
}

// GroupSuspects implements the group-level collusion attack on the
// composed protocol (§V): the DC-net hides the originator only from
// outsiders, so when the adversary controls at least one member of the
// originating group it sees the group's Phase-1 activity from inside
// and the suspect set collapses to the group's honest members. An
// untapped group yields no suspects — the adversary has to fall back to
// traffic analysis of the later phases, which start at the virtual
// source, not the originator. This is the worst case for the paper's
// 1/k bound: a tapped group of size k with one spy leaves k−1 suspects.
func GroupSuspects(group []proto.NodeID, corrupted func(proto.NodeID) bool) (honest []proto.NodeID, tapped bool) {
	for _, m := range group {
		if corrupted(m) {
			tapped = true
		} else {
			honest = append(honest, m)
		}
	}
	if !tapped {
		return nil, false
	}
	return honest, true
}

// Aggregate accumulates per-trial attack outcomes into the
// precision/recall/anonymity-set numbers the experiments report.
// Precision is the expected success probability of the adversary's
// single guess; recall is the fraction of trials where the true
// originator was in the suspect set at all (for point estimates the
// two coincide).
type Aggregate struct {
	Trials  int
	hitProb float64
	hitSet  float64
	anonSum float64
}

// AddExact records a point estimate: success iff suspect == truth.
func (a *Aggregate) AddExact(truth, suspect proto.NodeID) {
	a.Trials++
	if truth == suspect {
		a.hitProb++
		a.hitSet++
	}
	a.anonSum++
}

// AddSet records a set estimate: the adversary guesses uniformly inside
// the suspect set, so the per-trial success probability is 1/|set| when
// the truth is inside and 0 otherwise.
func (a *Aggregate) AddSet(truth proto.NodeID, suspects []proto.NodeID) {
	a.Trials++
	if len(suspects) == 0 {
		a.anonSum++
		return
	}
	for _, s := range suspects {
		if s == truth {
			a.hitProb += 1 / float64(len(suspects))
			a.hitSet++
			break
		}
	}
	a.anonSum += float64(len(suspects))
}

// Precision returns the expected deanonymization success probability.
func (a *Aggregate) Precision() float64 {
	if a.Trials == 0 {
		return 0
	}
	return a.hitProb / float64(a.Trials)
}

// Recall returns the fraction of trials whose suspect set contained
// the true originator.
func (a *Aggregate) Recall() float64 {
	if a.Trials == 0 {
		return 0
	}
	return a.hitSet / float64(a.Trials)
}

// MeanAnonymitySet returns the mean suspect-set size.
func (a *Aggregate) MeanAnonymitySet() float64 {
	if a.Trials == 0 {
		return 0
	}
	return a.anonSum / float64(a.Trials)
}
