package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
	"repro/internal/wire"
)

// shardTestShape: 203 nodes so every tested shard count splits the ID
// space unevenly (203 = 7·29 is divisible by 7 but not by 2 or 4), and
// degree 8 as everywhere else.
func shardTestGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.RandomRegular(203, 8, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shardFingerprint floods one payload over g at the given options and
// returns the full observable fingerprint plus the shard count the
// network actually resolved to. dense selects the handlers: one
// map-backed flood.New per node, or flood.NewAt over a Shared partitioned
// like the network — one handler per partition cell. drive, when non-nil,
// schedules the arm's faults after Start; run, when non-nil, replaces the
// one Run(0) that executes the flood.
func shardFingerprint(t *testing.T, g *topology.Graph, opts Options, dense bool, drive, run func(*Network)) (runFingerprint, int) {
	t.Helper()
	codec := wire.NewCodec()
	flood.RegisterMessages(codec)
	opts.Codec = codec
	net := NewNetwork(g, opts)
	if dense {
		shared := flood.NewShared(g.N())
		shared.Partition(max(opts.Shards, 1))
		net.SetHandlers(func(id proto.NodeID) proto.Handler { return flood.NewAt(shared, id) })
	} else {
		net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
	}
	net.Start()
	if drive != nil {
		drive(net)
	}
	id, err := net.Originate(3, []byte("shard probe"))
	if err != nil {
		t.Fatal(err)
	}
	if run == nil {
		run = func(net *Network) { net.Run(0) }
	}
	run(net)
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
	return fp, net.ShardCount()
}

func compareFingerprints(t *testing.T, name string, a, b runFingerprint) {
	t.Helper()
	if a.totalMsgs != b.totalMsgs || a.totalBytes != b.totalBytes ||
		a.typeMsgs != b.typeMsgs || a.typeBytes != b.typeBytes ||
		a.steps != b.steps || a.delivered != b.delivered ||
		len(a.times) != len(b.times) {
		t.Fatalf("%s: fingerprints diverged:\n%+v\nvs\n%+v", name, a, b)
	}
	for i := range a.times {
		if a.times[i] != b.times[i] {
			t.Fatalf("%s: delivery time %d diverged: %v vs %v", name, i, a.times[i], b.times[i])
		}
	}
}

// TestShardedDeterminism is the headline guarantee of the sharded event
// loop: every observable — counters, per-type accounting, executed
// steps, the full per-node delivery-time vector — is bit-identical at
// ANY shard count, for both the fixed-delay case and the shaped case
// (jitter, loss-free churn), whose hash-based draws are
// position-independent by construction, and for crashes and restores a
// driver schedules through Network.At — some on the very instant a
// flood wave lands. Each shard count runs twice:
// with a map-backed handler per node and with the dense per-partition
// handlers of flood.NewAt over Partition(k), which must be
// indistinguishable from them and from each other at every k.
func TestShardedDeterminism(t *testing.T) {
	g := shardTestGraph(t)
	arms := []struct {
		name  string
		opts  Options
		drive func(*Network)
	}{
		{"const-latency", Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond)}, nil},
		{"netem-shaped", Options{Seed: 42, Netem: &netem.Profile{
			Latency: netem.Const(20 * time.Millisecond),
			Jitter:  netem.Uniform{Hi: 15 * time.Millisecond},
		}}, nil},
		// Jitter without loss, no constant base: a preset with a floor
		// (25 ms) well under its mean.
		{"jitter-only", Options{Seed: 42, Netem: &netem.WANJitter}, nil},
		{"netem-churn", Options{Seed: 42, Netem: &netem.Profile{
			Latency: netem.Const(20 * time.Millisecond),
			Jitter:  netem.Uniform{Hi: 15 * time.Millisecond},
			Churn:   netem.Churn{Fraction: 0.1, Start: 10 * time.Millisecond, Down: 50 * time.Millisecond},
		}}, nil},
		// Under 50 ms links the second wave lands at 100 ms: the crashes
		// there must fire ahead of that instant's deliveries on every
		// shard, the restore lets node 101 take a later copy.
		{"at-crash", Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond)}, func(net *Network) {
			for _, id := range []proto.NodeID{0, 101, 150, 202} {
				net.At(100*time.Millisecond, id, func() { net.Crash(id) })
			}
			net.At(120*time.Millisecond, 101, func() { net.Restore(101) })
			net.At(30*time.Millisecond, 57, func() { net.Crash(57) })
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			base, k := shardFingerprint(t, g, arm.opts, false, arm.drive, nil)
			if k != 1 {
				t.Fatalf("unsharded run resolved to %d shards", k)
			}
			if base.delivered == 0 || base.totalMsgs == 0 {
				t.Fatalf("degenerate baseline run: %+v", base)
			}
			if arm.drive != nil && base.delivered == g.N() {
				t.Fatal("the scheduled crashes cost no delivery; the arm tests nothing")
			}
			for _, shards := range []int{1, 2, 4, 7} {
				opts := arm.opts
				opts.Shards = shards
				for _, dense := range []bool{false, true} {
					fp, k := shardFingerprint(t, g, opts, dense, arm.drive, nil)
					if shards > 1 && k != shards {
						t.Errorf("requested %d shards, resolved %d (expected eligible)", shards, k)
					}
					compareFingerprints(t, fmt.Sprintf("%s/k=%d/dense=%t", arm.name, shards, dense), base, fp)
				}
			}
		})
	}
}

// timedOrigin is a flood handler that broadcasts its []byte timer
// payloads, so a test can originate inside a sharded window.
type timedOrigin struct{ *flood.Protocol }

func (h timedOrigin) HandleTimer(ctx proto.Context, payload any) {
	if _, err := h.Broadcast(ctx, payload.([]byte)); err != nil {
		panic(err)
	}
}

// TestShardedDeliveryRecord reads the first-delivery record step by step
// while shards write it: after the driver-phase origination and after
// every RunUntil, tapped and untapped, at k = 1/2/4/7 against the
// single-loop run. Two payloads are originated from the driver at the
// same instant in different shards. A Reset then re-originates them —
// the same MsgIDs come back, so a per-shard set cache that survives
// Reset shows as a stale record — and two more payloads start inside a
// window, so two shards create delivery sets concurrently.
func TestShardedDeliveryRecord(t *testing.T) {
	g := shardTestGraph(t)
	const (
		step     = 20 * time.Millisecond
		steps    = 20
		inWindow = 30 * time.Millisecond
	)
	driverPayloads := [][]byte{[]byte("record a"), []byte("record b")}
	windowPayloads := [][]byte{[]byte("record c"), []byte("record d")}
	// Node 3 is in shard 0 and node 190 in the last shard at every k > 1.
	origins := []proto.NodeID{3, 190}
	var ids []proto.MsgID
	for _, p := range slices.Concat(driverPayloads, windowPayloads) {
		ids = append(ids, proto.NewMsgID(p))
	}

	// trace returns, per read, each payload's Delivered count followed by
	// its DeliveryTime at every node (-1 where not delivered).
	trace := func(shards int, tapped bool) [][]time.Duration {
		net := NewNetwork(g, Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Shards: shards})
		if k := net.ShardCount(); k != shards {
			t.Fatalf("requested %d shards, resolved %d", shards, k)
		}
		if tapped {
			net.AddTap(nopTap{})
		}
		var reads [][]time.Duration
		for round := range 2 {
			if round > 0 {
				net.Reset(42)
			}
			net.SetHandlers(func(proto.NodeID) proto.Handler { return timedOrigin{flood.New()} })
			net.Start()
			for i, p := range driverPayloads {
				if _, err := net.Originate(origins[i], p); err != nil {
					t.Fatal(err)
				}
			}
			// Only after the Reset: the first round must end on driver
			// payloads, which the second starts with.
			started := ids[:len(driverPayloads)]
			if round > 0 {
				for i, p := range windowPayloads {
					net.InjectTimerAt(inWindow, origins[i], p)
				}
				started = ids
			}
			read := func() {
				var r []time.Duration
				for _, id := range ids {
					r = append(r, time.Duration(net.Delivered(id)))
					for v := range g.N() {
						at, ok := net.DeliveryTime(id, proto.NodeID(v))
						if !ok {
							at = -1
						}
						r = append(r, at)
					}
				}
				reads = append(reads, r)
			}
			read()
			for s := 1; s <= steps; s++ {
				net.RunUntil(time.Duration(s) * step)
				read()
			}
			for _, id := range started {
				if got := net.Delivered(id); got != g.N() {
					t.Fatalf("k=%d tapped=%t round %d: delivered %d of %d", shards, tapped, round, got, g.N())
				}
			}
		}
		return reads
	}

	base := trace(1, false)
	for _, shards := range []int{1, 2, 4, 7} {
		for _, tapped := range []bool{false, true} {
			got := trace(shards, tapped)
			for i := range base {
				if !slices.Equal(base[i], got[i]) {
					t.Fatalf("k=%d tapped=%t: read %d (round %d, step %d) differs from the single loop",
						shards, tapped, i, i/(steps+1), i%(steps+1))
				}
			}
		}
	}
}

// nopTap is the cheapest possible observer.
type nopTap struct{}

func (nopTap) OnSend(time.Duration, proto.NodeID, proto.NodeID, proto.Message)    {}
func (nopTap) OnReceive(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (nopTap) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte)    {}

// TestShardedClampsToSingleLoop pins the eligibility rules: only a
// profile with no positive minimum delay (no lookahead to advance
// under) or a network smaller than the request falls back to the single
// event loop. No link decision depends on global event order, so a
// jitter-only profile shards, and registered taps do not clamp either —
// they replay from the merged observation logs (obs.go).
func TestShardedClampsToSingleLoop(t *testing.T) {
	g := shardTestGraph(t)

	cases := []struct {
		name  string
		opts  Options
		prep  func(*Network)
		wantK int
	}{
		{"jitter-only-profile", Options{Seed: 1, Shards: 4, Netem: &netem.Profile{
			Latency: netem.Uniform{Min: 5 * time.Millisecond, Hi: 40 * time.Millisecond}}}, nil, 4},
		{"zero-floor-profile", Options{Seed: 1, Shards: 4, Netem: &netem.Profile{
			Latency: netem.Uniform{Hi: 40 * time.Millisecond}}}, nil, 1},
		{"taps", Options{Seed: 1, Shards: 4,
			Latency: ConstLatency(50 * time.Millisecond)},
			func(n *Network) { n.AddTap(nopTap{}) }, 4},
		{"more-shards-than-nodes", Options{Seed: 1, Shards: 500,
			Latency: ConstLatency(50 * time.Millisecond)}, nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(g, tc.opts)
			net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
			if tc.prep != nil {
				tc.prep(net)
			}
			net.Start()
			if k := net.ShardCount(); k != tc.wantK {
				t.Fatalf("config %s resolved to %d loops; want %d", tc.name, k, tc.wantK)
			}
		})
	}
}

// TestShardStatsResetToZero pins the reuse contract for the -v
// diagnostics: every ShardStats field must zero on Reset, so a reused
// trial network reports per-trial numbers, not accumulated ones.
func TestShardStatsResetToZero(t *testing.T) {
	g := shardTestGraph(t)
	net := NewNetwork(g, Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Shards: 4})
	net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
	net.Start()
	if _, err := net.Originate(3, []byte("stats probe")); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	for _, st := range net.ShardStats() {
		if st.Events == 0 || st.Windows == 0 || st.Clock == 0 || st.QueueRefills == 0 || st.QueueMaxRun == 0 {
			t.Fatalf("degenerate pre-reset stats: %+v", st)
		}
	}
	net.Reset(42)
	for _, st := range net.ShardStats() {
		if st.Events != 0 || st.Windows != 0 || st.Stalls != 0 || st.Handoffs != 0 || st.Clock != 0 ||
			st.QueueRefills != 0 || st.QueueMoves != 0 || st.QueueMaxRun != 0 {
			t.Errorf("shard %d stats survived Reset: %+v", st.Shard, st)
		}
	}
	// And the reused network must still run correctly afterwards.
	net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
	net.Start()
	if _, err := net.Originate(3, []byte("stats probe")); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	for _, st := range net.ShardStats() {
		if st.Events == 0 || st.Windows == 0 {
			t.Fatalf("degenerate post-reset stats: %+v", st)
		}
	}
}

// TestShardedResetEqualsFresh extends the trial-loop reuse contract to
// sharded networks: a Reset sharded network must replay exactly like a
// fresh one, and like the single-loop run of the same seed — including
// across a change in requested shard count.
func TestShardedResetEqualsFresh(t *testing.T) {
	g := shardTestGraph(t)
	codec := wire.NewCodec()
	flood.RegisterMessages(codec)
	opts := Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Codec: codec, Shards: 4}

	run := func(net *Network) runFingerprint {
		t.Helper()
		net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
		net.Start()
		id, err := net.Originate(3, []byte("shard probe"))
		if err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		fp := runFingerprint{
			totalMsgs: net.TotalMessages(), totalBytes: net.TotalBytes(),
			typeMsgs: net.MessagesOfType(flood.TypeData), typeBytes: net.BytesOfType(flood.TypeData),
			steps: net.Steps(), delivered: net.Delivered(id),
		}
		for _, at := range net.Deliveries(id).All() {
			fp.times = append(fp.times, at)
		}
		return fp
	}

	fresh := run(NewNetwork(g, opts))

	reused := NewNetwork(g, opts)
	_ = run(reused)
	reused.Reset(42)
	reset := run(reused)
	compareFingerprints(t, "sharded reset vs fresh", fresh, reset)

	// The same network, reset and re-run single-loop, must still match:
	// the shard split is pure execution strategy.
	single := NewNetwork(g, Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Codec: codec})
	compareFingerprints(t, "sharded vs single-loop", fresh, run(single))
}
