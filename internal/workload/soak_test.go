package workload

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/runner"
)

// soakCfg is the shared small soak configuration the determinism tests
// run: big enough to queue and dedup, small enough for -short.
func soakCfg() SoakConfig {
	return SoakConfig{
		Spec:      Spec{Rate: 400, Resubmit: 0.1},
		Duration:  time.Second,
		Drain:     2 * time.Second,
		N:         48,
		Degree:    6,
		Seed:      1,
		Admission: AdmissionConfig{QueueCap: 64, Policy: DropOldest},
		Service:   2 * time.Millisecond,
	}
}

// normalizeResult clears the wall-clock-side fields so results can be
// compared bit-for-bit.
func normalizeResult(r SoakResult) SoakResult {
	r.HeapBytes = 0
	r.Wall = 0
	return r
}

func TestSoakSmoke(t *testing.T) {
	r := Soak(soakCfg())
	if r.Offered == 0 || r.Launched == 0 {
		t.Fatalf("soak launched nothing: %+v", r)
	}
	if r.Coverage < 0.99 {
		t.Fatalf("flood on a clean network covered %.3f, want ~1", r.Coverage)
	}
	if r.Launched != r.Unique {
		t.Fatalf("launched %d of %d unique payloads on an uncapped clean run", r.Launched, r.Unique)
	}
	if r.Latency.Count() == 0 || r.P99() <= 0 {
		t.Fatal("latency sketch is empty")
	}
	if p50, p99 := r.P50(), r.P99(); p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if r.Admission.Deduped == 0 {
		t.Fatal("resubmit stream produced no dedups")
	}
	if r.Admission.PeakQueueDepth == 0 {
		t.Fatal("service pacing never queued")
	}
}

// TestSoakDeterministicAcrossPar runs the same trial set at -par 1 and
// 4 over reused SoakNets (the MapWorker form the experiments use) and
// requires bit-identical results.
func TestSoakDeterministicAcrossPar(t *testing.T) {
	run := func(par int) []SoakResult {
		return runner.MapWorker(4, par,
			func() *SoakNet { return NewSoakNet(soakCfg()) },
			func(w *SoakNet, trial int) SoakResult {
				return normalizeResult(w.Run(uint64(trial+1), nil))
			})
	}
	seq, parl := run(1), run(4)
	if !reflect.DeepEqual(seq, parl) {
		t.Fatal("soak results differ between -par 1 and -par 4")
	}
}

// TestSoakReuseEqualsFresh requires a reused SoakNet (reset between
// trials, previously run with a different seed) to reproduce a fresh
// run bit-for-bit.
func TestSoakReuseEqualsFresh(t *testing.T) {
	fresh := normalizeResult(NewSoakNet(soakCfg()).Run(5, nil))
	s := NewSoakNet(soakCfg())
	s.Run(3, nil)
	reused := normalizeResult(s.Run(5, nil))
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatal("reused SoakNet diverged from fresh run at the same seed")
	}
}

// TestSoakShardInvariance requires the full soak report to be
// bit-identical at shard requests k=1, 2 and 4. The sharded loop only
// engages when it can stay deterministic — the default 10 ms constant
// latency qualifies; conditions that cannot shard (taps, loss, zero
// min delay) clamp the request to one loop, so the comparison is sound
// in every configuration, just vacuous when clamped.
func TestSoakShardInvariance(t *testing.T) {
	var base SoakResult
	sharded := false
	for i, k := range []int{1, 2, 4} {
		cfg := soakCfg()
		cfg.Shards = k
		s := NewSoakNet(cfg)
		r := normalizeResult(s.Run(2, nil))
		if s.Net().ShardCount() > 1 {
			sharded = true
		}
		if i == 0 {
			base = r
			continue
		}
		if !reflect.DeepEqual(base, r) {
			t.Fatalf("soak result differs at shard request k=%d", k)
		}
	}
	if !sharded {
		t.Fatal("no shard request engaged; the invariance check never exercised a parallel loop")
	}
}

// TestSoakBackpressure overloads a tiny queue and checks the policies
// bite deterministically.
func TestSoakBackpressure(t *testing.T) {
	cfg := soakCfg()
	cfg.Spec = Spec{Rate: 2000}
	cfg.Admission = AdmissionConfig{QueueCap: 4, Policy: Reject}
	cfg.Service = 10 * time.Millisecond
	r := Soak(cfg)
	if r.Admission.Dropped == 0 {
		t.Fatalf("overload produced no drops: %+v", r.Admission)
	}
	if r.Admission.PeakQueueDepth != 4 {
		t.Fatalf("peak queue depth = %d, want cap 4", r.Admission.PeakQueueDepth)
	}
	if r.Launched >= r.Unique {
		t.Fatal("rejecting admission still launched every payload")
	}
	again := Soak(cfg)
	if !reflect.DeepEqual(normalizeResult(r), normalizeResult(again)) {
		t.Fatal("backpressured soak is not deterministic")
	}

	cfg.Admission.Policy = Block
	rb := Soak(cfg)
	if rb.Admission.Dropped != 0 {
		t.Fatalf("Block policy dropped %d", rb.Admission.Dropped)
	}
	if rb.Admission.PeakQueueDepth != 4 {
		t.Fatalf("Block peak depth = %d, want 4", rb.Admission.PeakQueueDepth)
	}
}

// TestWrapperLogsScheduledLaunchesOnly holds the launch log to
// scheduled submissions: a soak run logs one launch per admitted
// arrival, each with its schedule index, and an off-schedule Broadcast
// through the same wrappers afterwards disseminates without a record.
func TestWrapperLogsScheduledLaunchesOnly(t *testing.T) {
	cfg := soakCfg()
	cfg.Admission.QueueCap = 0 // unbounded: every admitted arrival launches
	s := NewSoakNet(cfg)
	r := s.Run(cfg.Seed, nil)
	if r.Launched != r.Unique || r.LaunchErrs != 0 {
		t.Fatalf("launched %d of %d unique payloads (%d errors)", r.Launched, r.Unique, r.LaunchErrs)
	}
	records := func() int64 {
		var k int64
		for _, w := range s.wrappers {
			for _, l := range w.Launches() {
				if l.Seq < 0 {
					t.Fatalf("launch record with off-schedule Seq %d", l.Seq)
				}
				k++
			}
		}
		return k
	}
	logged := records()
	if logged != r.Admission.Admitted {
		t.Fatalf("%d launch records for %d admitted arrivals", logged, r.Admission.Admitted)
	}

	net := s.Net()
	admitted := s.wrappers[5].Admission().Stats().Admitted
	id, err := net.Originate(5, []byte("off-schedule"))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(net.Now() + time.Second)
	if got := net.Deliveries(id).Count(); got != cfg.N {
		t.Fatalf("off-schedule broadcast reached %d/%d nodes", got, cfg.N)
	}
	if got := s.wrappers[5].Admission().Stats().Admitted; got != admitted+1 {
		t.Fatalf("off-schedule broadcast: admitted %d -> %d, want +1", admitted, got)
	}
	if got := records(); got != logged {
		t.Fatalf("off-schedule broadcast left a launch record: %d -> %d", logged, got)
	}
}
