package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"
)

// floodSpec is one flood-on-simulator configuration: flood1m, spy100k
// and the ladder rungs are all instances, so a rung differs from its
// neighbour by exactly one field.
type floodSpec struct {
	n, degree, shards int
	shaped            bool    // shapedProfile instead of a constant hop
	spies             float64 // share of nodes corrupted; origins are drawn among the rest
	tap               bool    // mount the observer on the corrupted nodes
	origins           int     // distinct (origin, run seed) pairs the reps cycle through
}

// floodRig is a built network and the state reps reuse.
type floodRig struct {
	spec      floodSpec
	seed      uint64
	g         *graph
	net       *network
	shared    *floodShared
	obs       *observer // nil unless spec.tap
	corrupted []nodeID
	origins   []nodeID
	fresh     bool            // nothing has run on net since it was built
	times     []time.Duration // delivery times of the latest rep
}

// floodRep is what one broadcast produced: the simulated outcome, which
// repeats exactly for a (spec, seed, rep index), and where the wall time
// went.
type floodRep struct {
	steps     uint64
	msgs      int64
	dropped   int64
	delivered int
	cover     time.Duration
	timeSum   time.Duration // Σ delivery times: the order-free fingerprint of the delivery set
	sightings int
	spyHit    bool
	shards    []shardStats

	wall, reset, run, collect, estimate time.Duration
	agg                                 layerAgg // traced reps only, scaled to every node
}

// fingerprint folds the simulated outcome, and nothing measured, into
// one comparable value.
func (r floodRep) fingerprint() string {
	return fmt.Sprint(r.steps, r.msgs, r.dropped, r.delivered, r.cover, r.timeSum, r.sightings, r.spyHit)
}

// buildFloodRig is the set-up of a flood workload. g may carry a
// topology built earlier (the ladder reuses spy100k's).
func buildFloodRig(spec floodSpec, seed uint64, g *graph, rec *recorder, parent int) (*floodRig, error) {
	r := &floodRig{spec: spec, seed: seed, g: g, fresh: true}
	var err error
	if r.g == nil {
		rec.timed("topology.build", parent, 0, func() { r.g, err = randomRegular(spec.n, spec.degree, seed) })
		if err != nil {
			return nil, fmt.Errorf("building %d-regular overlay on %d nodes: %w", spec.degree, spec.n, err)
		}
	}
	rec.timed("sim.new_network", parent, 0, func() {
		r.net = newNetwork(r.g, seed, spec.shards, spec.shaped)
		r.shared = newFloodShared(spec.n, spec.shards)
	})
	// Inputs: who is corrupted, and which honest nodes originate.
	rng := rand.New(rand.NewPCG(seed, 3))
	honest := func(nodeID) bool { return true }
	if spec.spies > 0 {
		r.corrupted = sampleCorrupted(spec.n, spec.spies, rng)
		obs := newObserver(r.corrupted)
		honest = func(v nodeID) bool { return !obs.Corrupted(v) }
		if spec.tap {
			r.obs = obs
		}
	}
	for len(r.origins) < spec.origins {
		if v := nodeID(rng.IntN(spec.n)); honest(v) {
			r.origins = append(r.origins, v)
		}
	}
	return r, nil
}

// rep runs broadcast i to quiescence. Rep i and rep i+origins are the
// same broadcast; the first rep on a fresh rig skips Reset, so it is the
// "fresh" side of reset ≡ fresh.
func (r *floodRig) rep(i int, traced bool, rec *recorder, parent int) (floodRep, error) {
	var out floodRep
	slot := i % len(r.origins)
	runSeed := r.seed + uint64(slot)
	var sampled []*tracedHandler
	var tap *tracedTap
	whole := rec.begin("rep", parent, i, 0)

	out.reset = rec.timed("sim.reset", whole, i, func() {
		if !r.fresh {
			r.net.Reset(runSeed)
			r.shared.Reset()
		}
		r.fresh = false
		r.net.ClearTaps()
		if r.obs != nil {
			r.obs.Reset(r.corrupted)
			if traced {
				tap = &tracedTap{inner: r.obs}
				r.net.AddTap(tap)
			} else {
				r.net.AddTap(r.obs)
			}
		}
		r.net.SetHandlers(func(id nodeID) handler {
			h := floodAt(r.shared, id)
			if !traced || id%sampleEvery != 0 {
				return h
			}
			th := &tracedHandler{inner: h}
			sampled = append(sampled, th)
			return th
		})
		r.net.Start()
	})

	var id msgID
	var err error
	out.run = rec.timed("sim.run", whole, i, func() {
		id, err = r.net.Originate(r.origins[slot], []byte{byte(slot), byte(slot >> 8), 0xf1})
		if err == nil {
			r.net.Run(0)
		}
	})
	if err != nil {
		return out, fmt.Errorf("originate at node %d: %w", r.origins[slot], err)
	}

	out.collect = rec.timed("sim.collect", whole, i, func() {
		out.steps, out.msgs, out.dropped = r.net.Steps(), r.net.TotalMessages(), r.net.NetemDropped()
		out.shards = r.net.ShardStats()
		ds := r.net.Deliveries(id)
		out.delivered = ds.Count()
		r.times = r.times[:0]
		for _, at := range ds.All() {
			r.times = append(r.times, at)
			out.timeSum += at
			out.cover = max(out.cover, at)
		}
	})
	if r.obs != nil {
		out.estimate = rec.timed("adversary.estimate", whole, i, func() {
			var suspect nodeID
			suspect, out.sightings = firstSpy(r.obs, id)
			out.spyHit = suspect == r.origins[slot]
		})
	}
	out.wall = rec.end(whole)

	for _, th := range sampled {
		out.agg.merge(th.agg())
	}
	out.agg.scaleSample()
	if tap != nil {
		out.agg.tap = tap.scaled()
	}
	return out, nil
}

// loopNsPerEvent is what is left of a run after the handlers and the tap:
// engine, Network.send bookkeeping and shard barrier. Handlers of k
// shards run side by side, so their summed time counts 1/k against the
// wall clock; the tap runs alone (inline, or at the barrier).
func loopNsPerEvent(r floodRep, shards int) float64 {
	rest := float64(r.run) - float64(r.agg.handler.ns)/float64(max(shards, 1)) - float64(r.agg.tap.ns)
	return rest / float64(r.steps)
}

// shardImbalance is max/mean events per shard; 1 when unsharded.
func shardImbalance(st []shardStats) float64 {
	var sum, most uint64
	for _, s := range st {
		sum += s.Events
		most = max(most, s.Events)
	}
	if sum == 0 {
		return 1
	}
	return float64(most) * float64(len(st)) / float64(sum)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// floodSizes are the knobs the smoke test scales down.
type floodSizes struct {
	spec       floodSpec
	setups     int // timed set-up repetitions
	warm       int // warm reps at -seconds 10
	ladderWarm int // warm reps per ladder rung at -seconds 10; 0 runs no ladder
	micro      func(o runOpts, res *result)
}

func runFlood1M(o runOpts, rec *recorder) (*result, error) {
	sz := floodSizes{spec: floodSpec{n: 1_000_000, degree: 8, shards: 2, origins: 1}, setups: 3, warm: 2}
	events, pending := 1_000_000, 65_536
	if o.small {
		sz.spec.n, sz.setups = 10_000, 1
		events, pending = 10_000, 1024
	}
	// The floors under this workload's two hot layers.
	sz.micro = func(o runOpts, res *result) {
		res.set("sim.engine_ns_per_event", microEngine(events, pending, o.seed))
		res.set("flood.markseen_ns", microMarkSeen(sz.spec.n))
	}
	return runFloodSim(sz, o, rec)
}

func runSpy100K(o runOpts, rec *recorder) (*result, error) {
	sz := floodSizes{
		spec:   floodSpec{n: 100_000, degree: 8, shards: 2, shaped: true, spies: 0.01, tap: true, origins: 24},
		setups: 5, warm: 24, ladderWarm: 5,
	}
	calls := 1_000_000
	if o.small {
		sz.spec.n, sz.spec.origins, sz.setups, sz.warm, sz.ladderWarm = 1000, 4, 1, 4, 1
		calls = 10_000
	}
	sz.micro = func(o runOpts, res *result) { res.set("netem.decide_ns", microDecide(calls, o.seed)) }
	return runFloodSim(sz, o, rec)
}

// floodPass runs warm reps 0..n-1 and pools their delivery times.
func floodPass(rig *floodRig, n int, traced bool, rec *recorder) (reps []floodRep, pool []time.Duration, err error) {
	pool = make([]time.Duration, 0, n*rig.spec.n)
	for i := 0; i < n; i++ {
		r, err := rig.rep(i, traced, rec, -1)
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, r)
		pool = append(pool, rig.times...)
	}
	slices.Sort(pool)
	return reps, pool, nil
}

// seconds lists one duration of every rep, for the report.
func seconds[R any](reps []R, f func(R) time.Duration) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r).Seconds()
	}
	return v
}

func medianOf(reps []floodRep, f func(floodRep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

// runFloodSim is flood1m and spy100k. A -trace 0 run times warm reps; a
// -trace 1 run repeats half as many with and without the wrappers
// mounted and fails unless both passes saw the same simulation.
func runFloodSim(sz floodSizes, o runOpts, rec *recorder) (*result, error) {
	res := newResult()
	spec := sz.spec
	var rig *floodRig
	setup, err := medianSetup(sz.setups, rec, func(parent int) error {
		var err error
		rig, err = buildFloodRig(spec, o.seed, nil, rec, parent)
		return err
	}, func() { rig = nil })
	if err != nil {
		return nil, err
	}
	res.setupS = setup.Seconds()

	cold, err := rig.rep(0, false, rec, -1)
	if err != nil {
		return nil, err
	}
	warm := o.scale(sz.warm)
	if o.trace {
		warm = max(warm/2, 1)
	}
	plain, pool, err := floodPass(rig, warm, false, rec)
	if err != nil {
		return nil, err
	}
	res.note("N=%d degree=%d shards=%d (resolved %d) shaped=%t spies=%g tap=%t; %d set-ups, 1 cold rep, %d warm reps, medians over warm reps",
		spec.n, spec.degree, spec.shards, len(cold.shards), spec.shaped, spec.spies, spec.tap, sz.setups, warm)
	res.note("cold rep %.3f s, warm reps %.3f s", cold.wall.Seconds(), seconds(plain, func(r floodRep) time.Duration { return r.wall }))

	// Correctness: full coverage, the flood message formula where nothing
	// is lost, and reset ≡ fresh (the cold rep ran warm rep 0's broadcast
	// on the network as built; equal reps must stay equal).
	fp := ""
	for i, r := range append([]floodRep{cold}, plain...) {
		res.attempted += spec.n
		res.failed += spec.n - r.delivered
		if want := int64(spec.n*(spec.degree-1) + 1); !spec.shaped && r.msgs != want {
			res.fail("flood sent %d messages, want N(d-1)+1 = %d", r.msgs, want)
		}
		if i > 0 && (i-1)%spec.origins == 0 && r.fingerprint() != cold.fingerprint() {
			res.fail("warm rep %d on the reset network differs from the fresh cold rep: %s vs %s", i-1, r.fingerprint(), cold.fingerprint())
		}
		fp += r.fingerprint() + ";"
	}
	res.fingerprint = digest(fp)

	if !o.trace {
		var total time.Duration
		for _, r := range plain {
			total += r.wall
		}
		res.set("wall_s", medianOf(plain, func(r floodRep) float64 { return r.wall.Seconds() }))
		res.set("events_per_s", medianOf(plain, func(r floodRep) float64 { return float64(r.steps) / r.wall.Seconds() }))
		res.set("broadcasts_per_s", float64(len(plain))/total.Seconds())
		res.set("sim_msgs_per_node_tx", medianOf(plain, func(r floodRep) float64 { return float64(r.msgs) / float64(spec.n) }))
		return res, nil
	}

	traced, tracedPool, err := floodPass(rig, warm, true, rec)
	if err != nil {
		return nil, err
	}
	for i := range traced {
		if traced[i].fingerprint() != plain[i].fingerprint() {
			res.fail("traced rep %d simulated something else than the untraced one: %s vs %s", i, traced[i].fingerprint(), plain[i].fingerprint())
		}
	}
	if !slices.Equal(pool, tracedPool) {
		res.fail("traced pass delivered at other times than the untraced pass")
	}

	// Counts come from the untraced pass, times from the traced one.
	var steps, msgs, dropped, delivered, sightings, hits int64
	var windows, stalls, handoffs uint64
	for _, r := range plain {
		steps += int64(r.steps)
		msgs += r.msgs
		dropped += r.dropped
		delivered += int64(r.delivered)
		sightings += int64(r.sightings)
		hits += int64(b2i(r.spyHit))
		for _, s := range r.shards {
			windows += s.Windows
			stalls += s.Stalls
			handoffs += s.Handoffs
		}
	}
	res.set("sim.steps", float64(steps))
	res.set("sim.msgs", float64(msgs))
	res.set("sim.shard_windows", float64(windows))
	res.set("sim.shard_stalls", float64(stalls))
	res.set("sim.shard_handoffs", float64(handoffs))
	res.set("sim.shard_imbalance", medianOf(plain, func(r floodRep) float64 { return shardImbalance(r.shards) }))
	res.set("sim.cover_ms", medianOf(plain, func(r floodRep) float64 { return ms(r.cover) }))
	res.set("sim.deliver_p50_ms", ms(percentile(pool, 0.50)))
	res.set("sim.deliver_p99_ms", ms(percentile(pool, 0.99)))
	res.set("flood.dup_share", 1-float64(delivered)/float64(msgs-dropped))
	res.set("netem.dropped", float64(dropped))
	res.set("adversary.sightings", float64(sightings))
	if spec.tap {
		res.set("adversary.spy_precision", float64(hits)/float64(len(plain)))
	}

	var agg layerAgg
	for _, r := range traced {
		agg.merge(r.agg)
	}
	k := len(cold.shards)
	res.set("topology.build_s", rec.median("topology.build"))
	res.set("sim.new_network_s", rec.median("sim.new_network"))
	res.set("sim.cold_run_s", cold.run.Seconds())
	res.set("sim.reset_s", medianOf(traced, func(r floodRep) float64 { return r.reset.Seconds() }))
	res.set("sim.run_s", medianOf(traced, func(r floodRep) float64 { return r.run.Seconds() }))
	res.set("sim.collect_s", medianOf(traced, func(r floodRep) float64 { return r.collect.Seconds() }))
	res.set("sim.loop_ns_per_event", medianOf(traced, func(r floodRep) float64 { return loopNsPerEvent(r, k) }))
	res.set("sim.send_ns_per_msg", agg.send.perCall())
	res.set("sim.deliver_local_ns_per_call", agg.deliver.perCall())
	res.set("flood.handler_self_ns_per_msg", agg.handlerSelf().perCall())
	res.set("adversary.tap_ns_per_event", agg.tap.perCall())
	res.set("adversary.estimate_s", medianOf(traced, func(r floodRep) float64 { return r.estimate.Seconds() }))
	tracedWall := medianOf(traced, func(r floodRep) float64 { return r.wall.Seconds() })
	plainWall := medianOf(plain, func(r floodRep) float64 { return r.wall.Seconds() })
	res.set("trace_overhead_pct", (tracedWall/plainWall-1)*100)

	// Where a traced rep's wall time went: the self times of its layers.
	// Handler-side layers of k shards overlap, so they count 1/k.
	var wall, reset, run, collect, estimate time.Duration
	for _, r := range traced {
		wall, reset, run, collect, estimate = wall+r.wall, reset+r.reset, run+r.run, collect+r.collect, estimate+r.estimate
	}
	par := time.Duration(k)
	hs, send, dl, tap := time.Duration(agg.handlerSelf().ns)/par, time.Duration(agg.send.ns)/par, time.Duration(agg.deliver.ns)/par, time.Duration(agg.tap.ns)
	res.note("traced self times over %d reps: reset %v, loop %v, handler %v, ctx.Send %v, ctx.DeliverLocal %v, tap %v, collect %v, estimate %v = %v of wall %v",
		len(traced), reset, run-hs-send-dl-tap, hs, send, dl, tap, collect, estimate,
		reset+run+collect+estimate, wall)

	sz.micro(o, res)
	if sz.ladderWarm > 0 {
		if err := runLadder(sz, o, rig, plain, rec, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runLadder measures the workload's own broadcasts on its own overlay
// with one feature added per rung; a layer's cost is the difference
// between adjacent rungs. The last rung is the workload itself, already
// run.
func runLadder(sz floodSizes, o runOpts, rig *floodRig, own []floodRep, rec *recorder, res *result) error {
	nsPerEvent := func(r floodRep) float64 { return float64(r.run) / float64(r.steps) }
	warm := o.scale(sz.ladderWarm)
	rungs := []struct {
		name        string
		shards      int
		shaped, tap bool
	}{
		{"ladder.const_k1_ns_per_event", 1, false, false},
		{"ladder.const_k2_ns_per_event", 2, false, false},
		{"ladder.shaped_k1_ns_per_event", 1, true, false},
		{"ladder.tapped_k1_ns_per_event", 1, true, true},
	}
	for _, rung := range rungs {
		spec := sz.spec
		spec.shards, spec.shaped, spec.tap = rung.shards, rung.shaped, rung.tap
		parent := rec.begin(rung.name, -1, 0, 0)
		r, err := buildFloodRig(spec, o.seed, rig.g, rec, parent)
		if err != nil {
			return err
		}
		var reps []floodRep
		for i := -1; i < warm; i++ { // rep -1 is the cold one, not measured
			rep, err := r.rep(max(i, 0), false, rec, parent)
			if err != nil {
				return err
			}
			if i >= 0 {
				reps = append(reps, rep)
			}
		}
		rec.end(parent)
		res.set(rung.name, medianOf(reps, nsPerEvent))
	}
	res.set("ladder.tapped_k2_ns_per_event", medianOf(own, nsPerEvent))
	return nil
}
