package workload

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/topology"
)

// SoakConfig parametrizes one sustained-load run.
type SoakConfig struct {
	// Spec is the arrival process (required).
	Spec Spec
	// Duration is the injection window of virtual time (default 5s).
	Duration time.Duration
	// Drain is extra virtual time after the last arrival for in-flight
	// broadcasts to complete (default 10s).
	Drain time.Duration
	// N is the node count (default 64); ignored when Topo is set.
	N int
	// Degree is the overlay degree (default 8); ignored when Topo is set.
	Degree int
	// Seed drives the default topology build and, through Soak, the run.
	Seed uint64
	// Topo overrides the default random Degree-regular overlay.
	Topo *topology.Graph
	// Stack builds each node's broadcast protocol, over state the caller
	// owns and rewinds between runs (default: dense flood-and-prune the
	// fixture mounts and rewinds itself, as NewSoakNetOf does any stack).
	Stack func(self proto.NodeID) proto.Handler
	// Netem, when non-nil, sets the network condition profile.
	Netem *netem.Profile
	// Shards requests single-run event-loop parallelism (clamped by
	// the network exactly as sim.Options.Shards).
	Shards int
	// Admission is each node's admission layer configuration.
	Admission AdmissionConfig
	// Service is the per-launch processing time (0 = launch
	// immediately on admission; the queue then never builds).
	Service time.Duration
}

// withDefaults resolves the config's defaulted fields.
func (c SoakConfig) withDefaults() SoakConfig {
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Drain <= 0 {
		c.Drain = 10 * time.Second
	}
	if c.Topo != nil {
		c.N = c.Topo.N()
	} else {
		if c.N <= 0 {
			c.N = 64
		}
		if c.Degree <= 0 {
			c.Degree = 8
		}
	}
	return c
}

// SoakResult is one run's service-level report. All fields except
// HeapBytes and Wall are virtual-time quantities: a pure function of
// the run's (config, seed, originators), bit-identical at any -par or
// shard count.
type SoakResult struct {
	// Offered is the arrival-schedule length (submission attempts).
	Offered int
	// Unique is the number of distinct payloads in the schedule
	// (Offered minus resubmissions).
	Unique int
	// Launched is how many distinct payloads cleared admission and
	// entered the broadcast protocol somewhere.
	Launched int
	// LaunchErrs counts launches the protocol itself refused.
	LaunchErrs int
	// Coverage is delivered node-payload pairs over Unique × N.
	Coverage float64
	// Latency is the delivery-latency sketch (submission → local
	// delivery, queueing included), pooled over every delivery of
	// every launched payload.
	Latency *metrics.LatencySketch
	// Admission aggregates the per-node admission counters
	// (PeakQueueDepth is the max across nodes).
	Admission Stats
	// Msgs and Bytes are total network traffic; Drops is shaped loss.
	Msgs, Bytes, Drops int64
	// Steps is the total event count.
	Steps uint64
	// TxPerSec is sustained launched-transaction throughput over the
	// injection window.
	TxPerSec float64
	// MsgsPerNodePerSec is per-node message load over the injection
	// window.
	MsgsPerNodePerSec float64
	// MsgsPerNodePerTx is the dissemination cost per launched payload.
	MsgsPerNodePerTx float64
	// Launches is the deduped launch log: one entry per launched
	// payload, the earliest launch winning (ties to the lowest node).
	// Order is deterministic (by winning node, then its launch order).
	Launches []Launch
	// HeapBytes and Wall are wall-clock-side observations (heap in use
	// after the run, elapsed real time). Volatile: exclude from golden
	// comparisons.
	HeapBytes uint64
	Wall      time.Duration
}

// P50, P95, P99 are the conventional latency quantiles.
func (r *SoakResult) P50() time.Duration { return r.Latency.Quantile(0.50) }
func (r *SoakResult) P95() time.Duration { return r.Latency.Quantile(0.95) }
func (r *SoakResult) P99() time.Duration { return r.Latency.Quantile(0.99) }

// SoakNet is a reusable soak fixture: one simulated network plus the
// shared admission state and the protocol stack bound to it, reset
// between runs — the trial-loop form (one SoakNet per runner worker, Run
// per trial) that keeps steady-state allocation flat.
type SoakNet struct {
	cfg      SoakConfig
	net      *sim.Network
	adm      *Shared
	stack    *stack.Mounted // nil when cfg.Stack builds the protocol
	wrappers []*Wrapper
}

// NewSoakNet builds the fixture running cfg.Stack — or, without one,
// dense flood-and-prune. The topology is fixed for the fixture's
// lifetime (cfg.Topo, or a random cfg.Degree-regular overlay from
// cfg.Seed).
func NewSoakNet(cfg SoakConfig) *SoakNet {
	if cfg.Stack == nil {
		return NewSoakNetOf(cfg, stack.Spec{Kind: stack.Flood})
	}
	return newSoakNet(cfg)
}

// NewSoakNetOf builds the fixture with spec as the protocol under load,
// mounted on the fixture's own network — sized and partitioned to it —
// and rewound with it between runs. cfg.Stack is not consulted.
func NewSoakNetOf(cfg SoakConfig, spec stack.Spec) *SoakNet {
	s := newSoakNet(cfg)
	s.stack = stack.Mount(s.net, spec)
	return s
}

func newSoakNet(cfg SoakConfig) *SoakNet {
	cfg = cfg.withDefaults()
	s := &SoakNet{cfg: cfg}
	topo := cfg.Topo
	if topo == nil {
		rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5bd1e995))
		g, err := topology.RandomRegular(cfg.N, cfg.Degree, rng)
		if err != nil {
			panic(fmt.Sprintf("workload: building %d-regular soak overlay: %v", cfg.Degree, err))
		}
		topo = g
	}
	s.net = sim.NewNetwork(topo, sim.Options{Seed: cfg.Seed, Shards: cfg.Shards, Netem: cfg.Netem})
	s.adm = NewShared(cfg.N)
	s.adm.Partition(s.net.ShardCount())
	s.wrappers = make([]*Wrapper, cfg.N)
	return s
}

// Net exposes the underlying network (for taps and counters between
// runs).
func (s *SoakNet) Net() *sim.Network { return s.net }

// Run executes one soak trial: reset, schedule the arrivals for seed,
// drive them through admission into the protocol, and report.
// originators nil means every node; taps are registered for this run
// only.
func (s *SoakNet) Run(seed uint64, originators []proto.NodeID, taps ...sim.Tap) SoakResult {
	cfg := s.cfg
	// Reset even a freshly built fixture: its network still carries
	// cfg.Seed in its RNGs and netem shaper, and the run seed must win —
	// otherwise a first run and a reused run at the same seed draw
	// different jitter/loss streams and the reuse-equals-fresh contract
	// breaks (invisible under the default constant latency, fatal under
	// netem).
	s.net.Reset(seed)
	s.net.ClearTaps()
	s.adm.Reset()
	if s.stack != nil {
		s.stack.Reset() // also re-installs the handlers net.Reset dropped
	}
	for _, t := range taps {
		s.net.AddTap(t)
	}
	if originators == nil {
		originators = make([]proto.NodeID, cfg.N)
		for i := range originators {
			originators[i] = proto.NodeID(i)
		}
	}
	sched := Schedule(cfg.Spec, seed, cfg.Duration, originators)

	s.net.SetHandlers(func(id proto.NodeID) proto.Handler {
		inner := s.net.Handler(id) // the mounted stack's
		if s.stack == nil {
			inner = cfg.Stack(id)
		}
		b, ok := inner.(proto.Broadcaster)
		if !ok {
			panic("workload: soak Stack must build proto.Broadcaster handlers")
		}
		adm := NewAdmission(cfg.Admission, id, s.adm.Table(id))
		w := NewWrapper(b, adm, sched, cfg.Service)
		s.wrappers[id] = w
		return w
	})
	s.net.Start()
	for i := range sched {
		s.net.InjectTimerAt(sched[i].At, sched[i].Node, submitEvent{seq: i})
	}
	wallStart := time.Now()
	s.net.RunUntil(cfg.Duration + cfg.Drain)
	wall := time.Since(wallStart)
	return s.collect(sched, wall)
}

// collect folds the run into a SoakResult.
func (s *SoakNet) collect(sched []Arrival, wall time.Duration) SoakResult {
	cfg := s.cfg
	r := SoakResult{
		Offered: len(sched),
		Latency: new(metrics.LatencySketch),
		Wall:    wall,
	}
	for i := range sched {
		if sched[i].Orig == sched[i].Seq {
			r.Unique++
		}
	}

	// Dedup launches across nodes: the earliest launch of each payload
	// wins (ties to the lowest node, since wrappers iterate node-asc
	// and per-node logs are chronological) — deterministic at any
	// shard count.
	first := make(map[proto.MsgID]int, r.Unique)
	for _, w := range s.wrappers {
		r.LaunchErrs += w.LaunchErrs()
		for _, l := range w.Launches() {
			if j, ok := first[l.ID]; !ok {
				first[l.ID] = len(r.Launches)
				r.Launches = append(r.Launches, l)
			} else if l.LaunchAt < r.Launches[j].LaunchAt {
				r.Launches[j] = l
			}
		}
		r.Admission.Add(w.Admission().Stats())
	}
	r.Launched = len(r.Launches)

	var delivered int64
	for _, l := range r.Launches {
		ds := s.net.Deliveries(l.ID)
		delivered += int64(ds.Count())
		for _, at := range ds.All() {
			r.Latency.Add(at - l.SubmitAt)
		}
	}
	if r.Unique > 0 {
		r.Coverage = float64(delivered) / float64(r.Unique*cfg.N)
	}

	r.Msgs = s.net.TotalMessages()
	r.Bytes = s.net.TotalBytes()
	r.Drops = s.net.NetemDropped()
	r.Steps = s.net.Steps()
	secs := cfg.Duration.Seconds()
	r.TxPerSec = float64(r.Launched) / secs
	r.MsgsPerNodePerSec = float64(r.Msgs) / float64(cfg.N) / secs
	if r.Launched > 0 {
		r.MsgsPerNodePerTx = float64(r.Msgs) / float64(cfg.N) / float64(r.Launched)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.HeapBytes = ms.HeapAlloc
	return r
}

// Soak runs one sustained-load trial from scratch — the single-shot
// entry the CLIs use. Reuse a SoakNet directly for trial loops.
func Soak(cfg SoakConfig) SoakResult {
	return NewSoakNet(cfg).Run(cfg.Seed, nil)
}
