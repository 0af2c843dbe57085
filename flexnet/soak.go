package flexnet

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/workload"
)

// ClusterSoakConfig describes a sustained-load run over a real local TCP
// cluster: N in-process nodes on OS-assigned localhost ports, the first
// GroupSize forming one DC-net group, driven by the same deterministic
// workload generator the simulator's soak harness uses — but over actual
// sockets and wall-clock time.
type ClusterSoakConfig struct {
	// N is the cluster size (default 8).
	N int
	// GroupSize is the DC-net group size (default 5); the group is
	// nodes 0..GroupSize−1 and every submission originates there,
	// because only group members can launch Phase 1.
	GroupSize int
	// D is the adaptive-diffusion depth (default 2).
	D int
	// DCInterval is the Phase-1 cadence (default 300 ms — soak runs
	// want short rounds).
	DCInterval time.Duration
	// Spec is the arrival process (default 10 tx/s Poisson).
	Spec workload.Spec
	// Duration is the injection window (default 2 s); the run then
	// waits Drain (default 15 s) for in-flight traffic.
	Duration, Drain time.Duration
	// Seed seeds the arrival schedule and node randomness.
	Seed uint64
	// Admission, when non-nil, mounts the mempool-admission layer on
	// every node (dedup + bounded queue); SubmitService paces launches.
	Admission     *workload.AdmissionConfig
	SubmitService time.Duration
	// OnProgress, when set, receives one line per second of the run.
	OnProgress func(line string)
}

func (c *ClusterSoakConfig) withDefaults() {
	if c.N == 0 {
		c.N = 8
	}
	if c.GroupSize == 0 {
		c.GroupSize = min(5, c.N)
	}
	if c.D == 0 {
		c.D = 2
	}
	if c.DCInterval == 0 {
		c.DCInterval = 300 * time.Millisecond
	}
	if c.Spec.Rate == 0 && len(c.Spec.Trace) == 0 {
		c.Spec.Rate = 10
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Drain == 0 {
		c.Drain = 15 * time.Second
	}
}

// ClusterSoakReport is the outcome of one SoakCluster run.
type ClusterSoakReport struct {
	// Submitted counts schedule arrivals offered; Unique excludes the
	// resubmit stream.
	Submitted, Unique int
	// Delivered counts (transaction, node) deliveries; Coverage is
	// Delivered / (Unique × N).
	Delivered int64
	Coverage  float64
	// Latency is the submission→delivery sketch over every delivery,
	// wall-clock, queueing included.
	Latency *metrics.LatencySketch
	// Admission aggregates the per-node admission counters.
	Admission workload.Stats
	// Frames is the total TCP frames sent cluster-wide; the per-node
	// per-second rate is the bandwidth side of the report.
	Frames            int64
	MsgsPerNodePerSec float64
	// TxPerSec is the achieved unique-transaction throughput over the
	// injection window.
	TxPerSec float64
	// Wall is the total run time.
	Wall time.Duration
}

// P50 returns the median submission→delivery latency.
func (r *ClusterSoakReport) P50() time.Duration { return r.Latency.Quantile(0.50) }

// P95 returns the 95th-percentile latency.
func (r *ClusterSoakReport) P95() time.Duration { return r.Latency.Quantile(0.95) }

// P99 returns the 99th-percentile latency.
func (r *ClusterSoakReport) P99() time.Duration { return r.Latency.Quantile(0.99) }

// SoakCluster stands up the cluster, streams the workload schedule into
// the group members at its wall-clock arrival times, waits for the
// drain, and reports throughput, latency quantiles and admission
// counters. The schedule is deterministic in cfg.Seed; delivery timing
// is real-network wall clock, so latency numbers vary run to run.
func SoakCluster(cfg ClusterSoakConfig) (*ClusterSoakReport, error) {
	cfg.withDefaults()
	n := cfg.N

	seeds := make(map[int32][32]byte, cfg.GroupSize)
	var grp []int32
	for i := int32(0); i < int32(cfg.GroupSize); i++ {
		var s [32]byte
		binary.LittleEndian.PutUint32(s[:], uint32(i))
		copy(s[4:], "flexnet-soak")
		seeds[i] = s
		grp = append(grp, i)
	}
	// A connected overlay: ring plus seeded chords up to degree ~4.
	topoRNG := rand.New(rand.NewPCG(cfg.Seed, 0x50a6_c1a5))
	chord := func(i int32) int32 {
		return (i + 2 + int32(topoRNG.IntN(max(n-4, 1)))) % int32(n)
	}

	// Submission→delivery bookkeeping, keyed by payload (unique per
	// fresh arrival). A resubmission becomes a distinct transaction on
	// the wire (fresh nonce), so deliveries are deduplicated here per
	// (payload, node) — coverage counts first arrivals only.
	var mu sync.Mutex
	submitAt := make(map[string]time.Time)
	seen := make(map[string]*big.Int)
	sketch := new(metrics.LatencySketch)
	var delivered int64

	nodes := make([]*Node, n)
	addrs := make(map[int32]string, n)
	for i := int32(0); i < int32(n); i++ {
		self := i
		var nodeGroup []int32
		if int(i) < cfg.GroupSize {
			nodeGroup = grp
		}
		neighbors := []int32{(i + int32(n) - 1) % int32(n), (i + 1) % int32(n)}
		if n > 4 {
			neighbors = append(neighbors, chord(i))
		}
		nd, err := StartNode(NodeConfig{
			ID:            i,
			Listen:        "127.0.0.1:0",
			AddrBook:      map[int32]string{},
			Neighbors:     neighbors,
			Group:         nodeGroup,
			IdentitySeeds: seeds,
			D:             cfg.D,
			DCInterval:    cfg.DCInterval,
			FailSafe:      4 * cfg.DCInterval,
			Seed:          cfg.Seed + uint64(i) + 1,
			Admission:     cfg.Admission,
			SubmitService: cfg.SubmitService,
			OnTx: func(_ [16]byte, _ uint64, payload []byte) {
				now := time.Now()
				mu.Lock()
				if at, ok := submitAt[string(payload)]; ok {
					bits := seen[string(payload)]
					if bits == nil {
						bits = new(big.Int)
						seen[string(payload)] = bits
					}
					if bits.Bit(int(self)) == 0 {
						bits.SetBit(bits, int(self), 1)
						sketch.Add(now.Sub(at))
						delivered++
					}
				}
				mu.Unlock()
			},
		})
		if err != nil {
			for _, prev := range nodes {
				if prev != nil {
					_ = prev.Close()
				}
			}
			return nil, fmt.Errorf("flexnet: soak node %d: %w", i, err)
		}
		nodes[i] = nd
		addrs[i] = nd.Addr()
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for _, nd := range nodes {
		for id, addr := range addrs {
			nd.SetAddr(id, addr)
		}
	}

	// Submissions must land on group members: map the schedule's
	// originator slots onto the group.
	originators := make([]proto.NodeID, cfg.GroupSize)
	for i := range originators {
		originators[i] = proto.NodeID(i)
	}
	sched := workload.Schedule(cfg.Spec, cfg.Seed, cfg.Duration, originators)

	start := time.Now()
	unique := 0
	for i := range sched {
		a := &sched[i]
		if wait := a.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if a.Orig == a.Seq {
			unique++
			mu.Lock()
			submitAt[string(a.Payload)] = time.Now()
			mu.Unlock()
		}
		// A deterministic nonce makes a resubmission byte-identical to
		// the original, so the duplicate stream exercises admission
		// dedup over the wire exactly as it does in the simulator.
		tx := &chain.Tx{Nonce: uint64(a.Orig) + 1, Fee: 1, Payload: a.Payload}
		if err := nodes[a.Node].SubmitRawTx(tx.Encode()); err != nil {
			return nil, fmt.Errorf("flexnet: soak submit %d: %w", a.Seq, err)
		}
		if cfg.OnProgress != nil && i%64 == 63 {
			cfg.OnProgress(fmt.Sprintf("submitted %d/%d (%.1fs)", i+1, len(sched), time.Since(start).Seconds()))
		}
	}

	// Drain: poll until every unique transaction reached every node or
	// the drain budget runs out.
	deadline := time.Now().Add(cfg.Drain)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := delivered >= int64(unique*n)
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	rep := &ClusterSoakReport{
		Submitted: len(sched),
		Unique:    unique,
		Latency:   sketch,
		Wall:      time.Since(start),
	}
	mu.Lock()
	rep.Delivered = delivered
	mu.Unlock()
	if unique > 0 {
		rep.Coverage = float64(rep.Delivered) / float64(unique*n)
		rep.TxPerSec = float64(unique) / cfg.Duration.Seconds()
	}
	for _, nd := range nodes {
		rep.Admission.Add(nd.AdmissionStats())
		tx, _ := nd.trans.FrameCounts()
		rep.Frames += tx
	}
	rep.MsgsPerNodePerSec = float64(rep.Frames) / float64(n) / rep.Wall.Seconds()
	return rep, nil
}
