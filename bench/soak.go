package main

import (
	"fmt"
	"time"
)

// soakRep is one SoakNet.Run: the simulated outcome (exact for a seed)
// and the wall time around it.
type soakRep struct {
	res  soakResult
	wall time.Duration
	agg  layerAgg // traced reps only, scaled to every node
}

func (r soakRep) fingerprint() string {
	s := r.res
	return fmt.Sprint(s.Offered, s.Unique, s.Launched, s.LaunchErrs, s.Coverage, s.Msgs, s.Drops, s.Steps,
		s.Admission, s.Latency.Count(), s.Latency.Max(), s.P50(), s.P99())
}

// runSoak2K is the open-world soak: a single event loop carrying
// hundreds of live broadcasts, with admission in front of every node.
// SoakNet.Run does reset, schedule, wiring, run and collection in one
// call, so from outside a rep is one span; its parts are measured by
// what SoakResult.Wall reports (the event loop) and by stand-alone
// calls of the exported pieces.
func runSoak2K(o runOpts, rec *recorder) (*result, error) {
	sz := soakSizes{n: 2000, rate: 200, duration: 3 * time.Second, drain: 2 * time.Second}
	setups, warm, calls := 15, 2, 1_000_000
	if o.small {
		sz = soakSizes{n: 20, rate: 40, duration: time.Second, drain: 2 * time.Second}
		setups, calls = 1, 10_000
	}
	res := newResult()

	// The inner protocol is built here rather than by SoakNet's default
	// so that the traced pass can mount the wrapper on it; untraced, the
	// stack is the default's dense flood.
	var soak *soakNet
	var shared *floodShared
	var sampled []*tracedHandler
	traced := false
	setup, err := medianSetup(setups, rec, func(int) error {
		shared = newFloodShared(sz.n, 1)
		soak = newSoakNet(sz, o.seed, func(id nodeID) handler {
			h := floodAt(shared, id)
			if !traced || id%sampleEvery != 0 {
				return h
			}
			th := &tracedHandler{inner: h}
			sampled = append(sampled, th)
			return th
		})
		return nil
	}, func() { soak, shared = nil, nil })
	if err != nil {
		return nil, err
	}
	res.setupS = setup.Seconds()

	fresh := true
	rep := func(i int) soakRep {
		var out soakRep
		sampled = sampled[:0]
		whole := rec.begin("rep", -1, i, 0)
		if !fresh {
			shared.Reset() // the last run is over; Run's own Reset discards what it left queued
		}
		fresh = false
		out.res = soak.Run(o.seed+uint64(i), nil)
		out.wall = rec.end(whole)
		rec.within(whole, "sim.run", out.res.Wall)
		for _, th := range sampled {
			out.agg.merge(th.agg())
		}
		out.agg.scaleSample()
		return out
	}
	pass := func(n int) []soakRep {
		reps := make([]soakRep, n)
		for i := range reps {
			reps[i] = rep(i)
		}
		return reps
	}

	cold := rep(0)
	n := o.scale(warm)
	if o.trace {
		n = max(n/2, 1)
	}
	plain := pass(n)
	res.note("N=%d rate=%g/s resubmit=0.1 inject %v drain %v, single loop; %d set-ups, 1 cold run, %d warm runs on seeds %d.., medians over warm runs",
		sz.n, sz.rate, sz.duration, sz.drain, setups, n, o.seed)

	// Correctness: every unique transaction launched and delivered at
	// every node, nothing shed, and reset ≡ fresh (warm run 0 repeats the
	// cold run's seed).
	fp := ""
	for _, r := range append([]soakRep{cold}, plain...) {
		s := r.res
		pairs := s.Unique * sz.n
		res.attempted += pairs
		res.failed += pairs - int(s.Latency.Count()) + s.LaunchErrs + int(s.Admission.Dropped)
		fp += r.fingerprint() + ";"
	}
	if cold.fingerprint() != plain[0].fingerprint() {
		res.fail("warm run 0 on the reset network differs from the fresh cold run: %s vs %s", plain[0].fingerprint(), cold.fingerprint())
	}
	res.fingerprint = digest(fp)

	walls := func(reps []soakRep) []float64 {
		return seconds(reps, func(r soakRep) time.Duration { return r.wall })
	}
	res.note("cold run %.3f s, warm runs %.3f s", cold.wall.Seconds(), walls(plain))
	if !o.trace {
		var evps, perNodeTx []float64
		var total time.Duration
		launched := 0
		for _, r := range plain {
			evps = append(evps, float64(r.res.Steps)/r.wall.Seconds())
			perNodeTx = append(perNodeTx, r.res.MsgsPerNodePerTx)
			total += r.wall
			launched += r.res.Launched
		}
		res.set("wall_s", median(walls(plain)))
		res.set("events_per_s", median(evps))
		res.set("broadcasts_per_s", float64(launched)/total.Seconds())
		res.set("sim_msgs_per_node_tx", median(perNodeTx))
		return res, nil
	}

	traced = true
	tracedReps := pass(n)
	for i := range tracedReps {
		if tracedReps[i].fingerprint() != plain[i].fingerprint() {
			res.fail("traced run %d simulated something else than the untraced one: %s vs %s", i, tracedReps[i].fingerprint(), plain[i].fingerprint())
		}
	}

	var steps, msgs, drops, delivered int64
	var adm struct{ admitted, deduped, dropped, peak int64 }
	var p50, p99, cover []float64
	for _, r := range plain {
		s := r.res
		steps += int64(s.Steps)
		msgs += s.Msgs
		drops += s.Drops
		delivered += int64(s.Latency.Count())
		adm.admitted += s.Admission.Admitted
		adm.deduped += s.Admission.Deduped
		adm.dropped += s.Admission.Dropped
		adm.peak = max(adm.peak, int64(s.Admission.PeakQueueDepth))
		p50 = append(p50, ms(s.P50()))
		p99 = append(p99, ms(s.P99()))
		cover = append(cover, ms(s.Latency.Max()))
	}
	res.set("sim.steps", float64(steps))
	res.set("sim.msgs", float64(msgs))
	res.set("sim.shard_imbalance", 1)
	res.set("sim.cover_ms", median(cover))
	res.set("sim.deliver_p50_ms", median(p50))
	res.set("sim.deliver_p99_ms", median(p99))
	res.set("flood.dup_share", 1-float64(delivered)/float64(msgs-drops))
	res.set("netem.dropped", float64(drops))
	res.set("workload.admitted", float64(adm.admitted))
	res.set("workload.deduped", float64(adm.deduped))
	res.set("workload.dropped", float64(adm.dropped))
	res.set("workload.peak_queue", float64(adm.peak))

	// Times, from the traced pass. reset_s is what is left of a rep after
	// the event loop, the schedule and a replica of the collection.
	var agg layerAgg
	var runs, loops, rests []float64
	schedule := rec.timed("workload.schedule", -1, 0, func() { sink += soakSchedule(sz, o.seed) })
	collect := rec.timed("sim.collect", -1, 0, func() {
		for _, l := range tracedReps[len(tracedReps)-1].res.Launches {
			for _, at := range soak.Net().Deliveries(l.ID).All() {
				sink += int(at)
			}
		}
	})
	for _, r := range tracedReps {
		agg.merge(r.agg)
		runs = append(runs, r.res.Wall.Seconds())
		loops = append(loops, float64(int64(r.res.Wall)-r.agg.handler.ns)/float64(r.res.Steps))
		rests = append(rests, (r.wall - r.res.Wall - schedule - collect).Seconds())
	}
	res.set("sim.cold_run_s", cold.res.Wall.Seconds())
	res.set("sim.run_s", median(runs))
	res.set("sim.reset_s", median(rests))
	res.set("sim.collect_s", collect.Seconds())
	res.set("sim.loop_ns_per_event", median(loops))
	res.set("sim.send_ns_per_msg", agg.send.perCall())
	res.set("sim.deliver_local_ns_per_call", agg.deliver.perCall())
	res.set("flood.handler_self_ns_per_msg", agg.handlerSelf().perCall())
	res.set("workload.schedule_s", schedule.Seconds())
	res.set("trace_overhead_pct", (median(walls(tracedReps))/median(walls(plain))-1)*100)
	last := tracedReps[len(tracedReps)-1]
	res.note("traced self times, last run: loop+admission %v, flood handler %v, ctx.Send %v, ctx.DeliverLocal %v, schedule %v, collect %v, reset+wiring %v = wall %v",
		last.res.Wall-time.Duration(last.agg.handler.ns), time.Duration(last.agg.handlerSelf().ns), time.Duration(last.agg.send.ns),
		time.Duration(last.agg.deliver.ns), schedule, collect, last.wall-last.res.Wall-schedule-collect, last.wall)

	// Floors: the admission layer's own timers are set on the runtime
	// context above the Stack hook, out of a wrapper's reach, so timer
	// cost is measured on a network of its own.
	res.set("sim.timer_ns_per_call", microTimers(calls/10, o.seed))
	res.set("workload.offer_ns", microOffer(calls/5))
	res.set("metrics.sketch_add_ns", microSketchAdd(calls, o.seed))
	return res, nil
}
