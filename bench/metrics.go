package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// metricDef describes one reported number. The tables below are the
// source BENCHMARK.json is written from; bench_test.go holds the two
// equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a per-layer number that is a pure function of
	// (workload, seed, seconds): -compare requires it to repeat exactly.
	Exact bool
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name, Why string
}

var workloads = []workloadDef{
	{"flood1m", "one flood at N=1M on 2 shards: memory-bound engine, simNode layout, MarkSeen and the shard barrier; netem, taps, admission and codec idle"},
	{"spy100k", "24 floods at N=100k under jitter+loss with a 1% observer on 2 shards: shaper, observation log merge, tap, and a heap with no same-instant ties"},
	{"soak2k", "open-world soak at N=2k in a single loop: hundreds of live messages, timers, DeliverySets, admission, sketch; shard-barrier changes must read flat"},
	{"composed1k", "closed loop of flexnet.Simulate at N=1000 cycling (K,D): the paper's three-phase protocol with construction paid per call; dcnet/adaptive/core/group do the work"},
	{"live16", "16 transport nodes on loopback TCP, closed then open loop: the only workload where codec, peer writer and socket run; per-message cost dominates"},
}

// endToEnd are the numbers a user of the system sees. Each is defined on
// every workload (README, "End-to-end metrics").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "events_per_s", Unit: "events/s", Better: "higher", Bound: 0.25},
	{Name: "broadcasts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "sim_msgs_per_node_tx", Unit: "msgs", Better: "lower", Bound: 0.02},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
func exact(d metricDef) metricDef        { d.Exact = true; return d }

// perLayer are the numbers of single layers, named after the module
// they measure. A layer that does not run on a workload reports 0 there.
var perLayer = []metricDef{
	lower("topology.build_s", "s"),

	lower("sim.new_network_s", "s"),
	lower("sim.reset_s", "s"),
	lower("sim.cold_run_s", "s"),
	lower("sim.run_s", "s"),
	lower("sim.collect_s", "s"),
	lower("sim.loop_ns_per_event", "ns"),
	lower("sim.send_ns_per_msg", "ns"),
	lower("sim.timer_ns_per_call", "ns"),
	lower("sim.deliver_local_ns_per_call", "ns"),
	exact(lower("sim.steps", "count")),
	exact(lower("sim.msgs", "count")),
	exact(lower("sim.shard_windows", "count")),
	exact(lower("sim.shard_stalls", "count")),
	exact(lower("sim.shard_handoffs", "count")),
	exact(lower("sim.shard_imbalance", "ratio")),
	lower("sim.engine_ns_per_event", "ns"),
	exact(lower("sim.cover_ms", "virtual_ms")),
	exact(lower("sim.deliver_p50_ms", "virtual_ms")),
	exact(lower("sim.deliver_p99_ms", "virtual_ms")),

	lower("ladder.const_k1_ns_per_event", "ns"),
	lower("ladder.const_k2_ns_per_event", "ns"),
	lower("ladder.shaped_k1_ns_per_event", "ns"),
	lower("ladder.tapped_k1_ns_per_event", "ns"),
	lower("ladder.tapped_k2_ns_per_event", "ns"),

	lower("flood.handler_self_ns_per_msg", "ns"),
	exact(lower("flood.dup_share", "fraction")),
	lower("flood.markseen_ns", "ns"),

	lower("netem.decide_ns", "ns"),
	exact(lower("netem.dropped", "count")),

	lower("adversary.tap_ns_per_event", "ns"),
	exact(lower("adversary.sightings", "count")),
	lower("adversary.estimate_s", "s"),
	exact(lower("adversary.spy_precision", "fraction")),

	lower("workload.schedule_s", "s"),
	lower("workload.offer_ns", "ns"),
	exact(higher("workload.admitted", "count")),
	exact(lower("workload.deduped", "count")),
	exact(lower("workload.dropped", "count")),
	exact(lower("workload.peak_queue", "count")),
	lower("metrics.sketch_add_ns", "ns"),

	lower("flexnet.simulate_ms_k5d4", "ms"),
	lower("flexnet.simulate_ms_k10d4", "ms"),
	lower("flexnet.simulate_ms_k20d6", "ms"),
	lower("flexnet.simulate_ms_flood", "ms"),
	exact(lower("flexnet.msgs_dcnet", "count")),
	exact(lower("flexnet.msgs_adaptive", "count")),
	exact(lower("flexnet.msgs_flood", "count")),
	exact(lower("flexnet.group_precision", "fraction")),

	lower("wire.marshal_ns_64", "ns"),
	lower("wire.marshal_ns_256", "ns"),
	lower("wire.marshal_ns_4096", "ns"),
	lower("wire.unmarshal_ns_64", "ns"),
	lower("wire.unmarshal_ns_256", "ns"),
	lower("wire.unmarshal_ns_4096", "ns"),
	lower("wire.allocs_per_msg_64", "count"),
	lower("wire.allocs_per_msg_256", "count"),
	lower("wire.allocs_per_msg_4096", "count"),
	exact(lower("wire.bytes_per_tx", "B")),

	lower("transport.send_ns_per_msg", "ns"),
	lower("transport.mailbox_wait_us", "us"),
	lower("transport.handler_ns_per_msg", "ns"),
	lower("transport.tx_dropped", "count"),
	exact(lower("transport.frames", "count")),
	higher("live.tx_per_s", "1/s"),
	lower("live.deliver_p50_ms", "ms"),
	lower("live.deliver_p99_ms", "ms"),
	lower("live.gen_late_ms", "ms"),

	lower("trace_overhead_pct", "%"),
}

// median and quartiles follow Python's statistics.quantiles(v, n=4), the
// rule the driver applies, so -compare agrees with it.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// exclusive method: position k(n+1)/4, 1-based, clamped to the data
		pos := float64(k*(len(s)+1)) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// percentile returns the value at rank ceil(p·n) of sorted data.
func percentile[T ~int64 | ~float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// digest shortens a fingerprint to a fixed width.
func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}
