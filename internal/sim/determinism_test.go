package sim

import (
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
	"repro/internal/wire"
)

// runFingerprint captures everything the determinism contract promises:
// aggregate counters, per-type accounting, the executed event count, and
// the full per-node delivery-time vector.
type runFingerprint struct {
	totalMsgs  int64
	totalBytes int64
	typeMsgs   int64
	typeBytes  int64
	steps      uint64
	delivered  int
	times      []time.Duration
}

// jitterLoss is the determinism tests' link model: every send draws a
// delay and a drop verdict.
var jitterLoss = netem.Profile{
	Latency: netem.Uniform{Min: 5 * time.Millisecond, Hi: 40 * time.Millisecond},
	Loss:    0.05,
}

// floodRun executes one seeded flood broadcast over a fixed topology with
// jittered latency and loss, exercising both shaper decisions.
func floodRun(t *testing.T, seed uint64) runFingerprint {
	t.Helper()
	g, err := topology.RandomRegular(200, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	codec := wire.NewCodec()
	flood.RegisterMessages(codec)
	net := NewNetwork(g, Options{Seed: seed, Codec: codec, Netem: &jitterLoss})
	net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
	net.Start()
	id, err := net.Originate(3, []byte("determinism probe"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)

	fp := runFingerprint{
		totalMsgs:  net.TotalMessages(),
		totalBytes: net.TotalBytes(),
		typeMsgs:   net.MessagesOfType(flood.TypeData),
		typeBytes:  net.BytesOfType(flood.TypeData),
		steps:      net.Steps(),
		delivered:  net.Delivered(id),
	}
	for _, at := range net.Deliveries(id).All() {
		fp.times = append(fp.times, at)
	}
	return fp
}

// TestDeterminismFingerprint is the regression guard for the determinism
// contract: the same topology, seed and options must replay the exact
// same event sequence — identical message totals, per-type byte counts,
// executed steps, and delivery times.
func TestDeterminismFingerprint(t *testing.T) {
	a := floodRun(t, 42)
	b := floodRun(t, 42)

	if a.totalMsgs != b.totalMsgs {
		t.Errorf("TotalMessages diverged: %d vs %d", a.totalMsgs, b.totalMsgs)
	}
	if a.totalBytes != b.totalBytes {
		t.Errorf("TotalBytes diverged: %d vs %d", a.totalBytes, b.totalBytes)
	}
	if a.typeMsgs != b.typeMsgs || a.typeBytes != b.typeBytes {
		t.Errorf("per-type counts diverged: (%d,%d) vs (%d,%d)",
			a.typeMsgs, a.typeBytes, b.typeMsgs, b.typeBytes)
	}
	if a.steps != b.steps {
		t.Errorf("Engine.Steps diverged: %d vs %d", a.steps, b.steps)
	}
	if a.delivered != b.delivered {
		t.Errorf("Delivered diverged: %d vs %d", a.delivered, b.delivered)
	}
	if len(a.times) != len(b.times) {
		t.Fatalf("delivery vectors diverged in length: %d vs %d", len(a.times), len(b.times))
	}
	for i := range a.times {
		if a.times[i] != b.times[i] {
			t.Fatalf("delivery time %d diverged: %v vs %v", i, a.times[i], b.times[i])
		}
	}

	if a.totalMsgs == 0 || a.totalBytes == 0 || a.delivered == 0 {
		t.Errorf("degenerate run: fingerprint %+v", a)
	}

	// A different seed must actually change the run, or the fingerprint
	// is not sensitive enough to catch divergence.
	c := floodRun(t, 43)
	if c.steps == a.steps && c.totalMsgs == a.totalMsgs {
		sameTimes := len(c.times) == len(a.times)
		if sameTimes {
			for i := range c.times {
				if c.times[i] != a.times[i] {
					sameTimes = false
					break
				}
			}
		}
		if sameTimes {
			t.Error("seed 43 produced a run identical to seed 42; fingerprint too weak")
		}
	}
}

// resetFingerprint runs the flood probe on an explicit network, so the
// same instance can be exercised fresh and after Reset.
func networkFingerprint(t *testing.T, net *Network) runFingerprint {
	t.Helper()
	net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
	net.Start()
	id, err := net.Originate(3, []byte("determinism probe"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	fp := runFingerprint{
		totalMsgs:  net.TotalMessages(),
		totalBytes: net.TotalBytes(),
		typeMsgs:   net.MessagesOfType(flood.TypeData),
		typeBytes:  net.BytesOfType(flood.TypeData),
		steps:      net.Steps(),
		delivered:  net.Delivered(id),
	}
	for _, at := range net.Deliveries(id).All() {
		fp.times = append(fp.times, at)
	}
	return fp
}

// TestResetEqualsFresh is the regression guard for the trial-loop reuse
// contract: a Reset network must replay exactly like a newly built one
// with the same seed — including when the reset crosses seeds, and when
// the dirty state includes crashes, drops and timers.
func TestResetEqualsFresh(t *testing.T) {
	g, err := topology.RandomRegular(200, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	codec := wire.NewCodec()
	flood.RegisterMessages(codec)
	opts := Options{Seed: 42, Codec: codec, Netem: &jitterLoss}

	fresh42 := networkFingerprint(t, NewNetwork(g, opts))
	opts.Seed = 43
	fresh43 := networkFingerprint(t, NewNetwork(g, opts))

	reused := NewNetwork(g, opts) // starts at seed 43
	_ = networkFingerprint(t, reused)
	reused.Crash(7) // extra dirty state Reset must clear
	reused.Reset(42)
	reset42 := networkFingerprint(t, reused)
	reused.Reset(43)
	reset43 := networkFingerprint(t, reused)

	compare := func(name string, a, b runFingerprint) {
		t.Helper()
		if a.totalMsgs != b.totalMsgs || a.totalBytes != b.totalBytes ||
			a.typeMsgs != b.typeMsgs || a.typeBytes != b.typeBytes ||
			a.steps != b.steps ||
			a.delivered != b.delivered || len(a.times) != len(b.times) {
			t.Fatalf("%s: fingerprints diverged: %+v vs %+v", name, a, b)
		}
		for i := range a.times {
			if a.times[i] != b.times[i] {
				t.Fatalf("%s: delivery time %d diverged: %v vs %v", name, i, a.times[i], b.times[i])
			}
		}
	}
	compare("reset to 42", fresh42, reset42)
	compare("reset to 43", fresh43, reset43)
}
