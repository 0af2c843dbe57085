package sim

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
)

// recEvent is one recorded tap callback in a directly comparable form.
type recEvent struct {
	kind byte // 'S' OnSend, 'R' OnReceive, 'D' OnDeliverLocal
	at   time.Duration
	a, b proto.NodeID // from/to ('S','R'); node/0 ('D')
	tp   proto.MsgType
	id   uint64 // MsgID prefix ('D')
}

// recTap records the full callback stream — the observation-stream
// fingerprint the sharded merge must reproduce bit-identically.
type recTap struct{ events []recEvent }

func (r *recTap) OnSend(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	r.events = append(r.events, recEvent{kind: 'S', at: at, a: from, b: to, tp: msg.Type()})
}

func (r *recTap) OnReceive(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	r.events = append(r.events, recEvent{kind: 'R', at: at, a: from, b: to, tp: msg.Type()})
}

func (r *recTap) OnDeliverLocal(at time.Duration, node proto.NodeID, id proto.MsgID, _ []byte) {
	r.events = append(r.events, recEvent{kind: 'D', at: at, a: node, id: binary.BigEndian.Uint64(id[:8])})
}

func compareStreams(t *testing.T, name string, want, got []recEvent) {
	t.Helper()
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: observation stream diverged at event %d/%d:\nwant %+v\ngot  %+v",
				name, i, len(want), want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: observation stream length %d, want %d", name, len(got), len(want))
	}
}

// tappedFlood floods one payload over g with a recording tap attached
// and returns the callback stream plus the resolved shard count.
func tappedFlood(t *testing.T, g *topology.Graph, opts Options) ([]recEvent, int) {
	t.Helper()
	net := NewNetwork(g, opts)
	rec := &recTap{}
	net.AddTap(rec)
	net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
	net.Start()
	if _, err := net.Originate(3, []byte("tap probe")); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	return rec.events, net.ShardCount()
}

// tapDeterminismArms are the network conditions the tap-merge contract
// is proven under: fixed-delay const latency, shaped jitter, shaped jitter
// with loss (pre-drop OnSend entries with no matching OnReceive), and
// shaped jitter with churn (control events racing same-instant
// deliveries on other shards).
func tapDeterminismArms() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"const-latency", Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond)}},
		{"netem-shaped", Options{Seed: 42, Netem: &netem.Profile{
			Latency: netem.Const(20 * time.Millisecond),
			Jitter:  netem.Uniform{Hi: 15 * time.Millisecond},
		}}},
		{"netem-lossy", Options{Seed: 42, Netem: &netem.Profile{
			Latency: netem.Const(20 * time.Millisecond),
			Jitter:  netem.Uniform{Hi: 15 * time.Millisecond},
			Loss:    0.05,
		}}},
		{"netem-churn", Options{Seed: 42, Netem: &netem.Profile{
			Latency: netem.Const(20 * time.Millisecond),
			Jitter:  netem.Uniform{Hi: 15 * time.Millisecond},
			Churn:   netem.Churn{Fraction: 0.1, Start: 10 * time.Millisecond, Down: 50 * time.Millisecond},
		}}},
	}
}

// TestShardedTapDeterminism is the tap half of the sharded-determinism
// guarantee: with an observer attached, the merged per-shard observation
// logs replay exactly the single-loop callback stream — same callbacks,
// same order, same timestamps — at every shard count, and a Reset
// network reproduces it again.
func TestShardedTapDeterminism(t *testing.T) {
	g := shardTestGraph(t)
	for _, arm := range tapDeterminismArms() {
		t.Run(arm.name, func(t *testing.T) {
			base, k := tappedFlood(t, g, arm.opts)
			if k != 1 {
				t.Fatalf("unsharded run resolved to %d shards", k)
			}
			if len(base) < g.N() {
				t.Fatalf("degenerate baseline stream: %d events", len(base))
			}
			for _, shards := range []int{1, 2, 4, 7} {
				opts := arm.opts
				opts.Shards = shards
				stream, k := tappedFlood(t, g, opts)
				if shards > 1 && k != shards {
					t.Errorf("requested %d shards, resolved %d (taps must not clamp)", shards, k)
				}
				compareStreams(t, arm.name, base, stream)
			}

			// Reset-equals-fresh: one long-lived sharded network, reset
			// between trials, replays the same stream for its fresh
			// recorder each time.
			opts := arm.opts
			opts.Shards = 4
			net := NewNetwork(g, opts)
			for trial := 0; trial < 2; trial++ {
				if trial > 0 {
					net.Reset(opts.Seed)
					net.ClearTaps()
				}
				rec := &recTap{}
				net.AddTap(rec)
				net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
				net.Start()
				if _, err := net.Originate(3, []byte("tap probe")); err != nil {
					t.Fatal(err)
				}
				net.Run(0)
				compareStreams(t, arm.name+"/reset", base, rec.events)
			}
		})
	}
}

// TestShardedTapSameInstantCrossShard proves the battery actually
// exercises the tie case the merge exists for: under constant latency a
// broadcast wave lands on one instant across every shard, so the merged
// stream must interleave same-instant receives from different shards —
// ordered by the packed (src, seq) tag, not by which shard got there
// first.
func TestShardedTapSameInstantCrossShard(t *testing.T) {
	g := shardTestGraph(t)
	const k = 4
	stream, resolved := tappedFlood(t, g, Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Shards: k})
	if resolved != k {
		t.Fatalf("resolved %d shards, want %d", resolved, k)
	}
	ties := 0
	for i := 1; i < len(stream); i++ {
		prev, cur := stream[i-1], stream[i]
		if prev.kind != 'R' || cur.kind != 'R' || prev.at != cur.at {
			continue
		}
		if topology.ShardOf(prev.b, g.N(), k) != topology.ShardOf(cur.b, g.N(), k) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no adjacent same-instant cross-shard receives in the merged stream; tie coverage lost")
	}
}

// TestShardedTapAddAfterStart pins late registration: a tap added to a
// sharded network mid-run (between RunUntil calls) observes everything
// from that point on, identically to a tap added at the same point of a
// single-loop run.
func TestShardedTapAddAfterStart(t *testing.T) {
	g := shardTestGraph(t)
	run := func(shards int) ([]recEvent, int) {
		net := NewNetwork(g, Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Shards: shards})
		net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
		net.Start()
		if _, err := net.Originate(3, []byte("late tap")); err != nil {
			t.Fatal(err)
		}
		net.RunUntil(120 * time.Millisecond) // mid-flood: wave 3 still in flight
		rec := &recTap{}
		net.AddTap(rec)
		net.Run(0)
		return rec.events, net.ShardCount()
	}
	base, _ := run(0)
	if len(base) == 0 {
		t.Fatal("late tap observed nothing; probe point past quiescence")
	}
	for _, k := range []int{2, 4, 7} {
		stream, resolved := run(k)
		if resolved != k {
			t.Fatalf("resolved %d shards, want %d", resolved, k)
		}
		compareStreams(t, "late-tap", base, stream)
	}
}

// TestShardedTapClearMidReuse pins ClearTaps on a reused sharded
// network: a cleared observer stops receiving callbacks, the untapped
// trial still runs sharded and matches the untapped fingerprint, and a
// re-registered observer sees the full stream again.
func TestShardedTapClearMidReuse(t *testing.T) {
	g := shardTestGraph(t)
	opts := Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Shards: 4}

	trial := func(net *Network) {
		t.Helper()
		net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
		net.Start()
		if _, err := net.Originate(3, []byte("clear probe")); err != nil {
			t.Fatal(err)
		}
		net.Run(0)
	}

	net := NewNetwork(g, opts)
	rec := &recTap{}
	net.AddTap(rec)
	trial(net)
	first := rec.events
	if len(first) == 0 {
		t.Fatal("degenerate tapped trial")
	}

	net.Reset(opts.Seed)
	net.ClearTaps()
	rec.events = nil
	trial(net)
	if len(rec.events) != 0 {
		t.Fatalf("cleared tap still observed %d events", len(rec.events))
	}
	if k := net.ShardCount(); k != 4 {
		t.Fatalf("untapped reuse trial resolved to %d shards, want 4", k)
	}

	net.Reset(opts.Seed)
	rec2 := &recTap{}
	net.AddTap(rec2)
	trial(net)
	compareStreams(t, "re-registered tap", first, rec2.events)
}

// idSpy is a SpyTap over a fixed list.
type idSpy struct {
	nopTap
	ids []proto.NodeID
}

func (s idSpy) Spies() []proto.NodeID { return s.ids }

// TestShardedTapSpyMarks pins the bookkeeping behind SpyTap: AddTap marks
// each listed node once however many spies list it, a tap without Spies
// marks none, Reset keeps the marks, and ClearTaps unmarks every one.
func TestShardedTapSpyMarks(t *testing.T) {
	g := shardTestGraph(t)
	net := NewNetwork(g, Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Shards: 4})
	marked := func() []proto.NodeID {
		var ids []proto.NodeID
		for i := range net.nodes {
			if net.nodes[i].watched {
				ids = append(ids, net.nodes[i].id)
			}
		}
		return ids
	}
	net.AddTap(idSpy{ids: []proto.NodeID{5, 1, 5}})
	net.AddTap(nopTap{})
	net.AddTap(idSpy{ids: []proto.NodeID{200, 1}})
	if got, want := marked(), []proto.NodeID{1, 5, 200}; !slices.Equal(got, want) {
		t.Fatalf("watched nodes %v, want %v", got, want)
	}
	if len(net.watched) != 3 || len(net.unscoped) != 1 || len(net.taps) != 3 {
		t.Fatalf("watched list %v, %d unscoped, %d taps; want 3 ids, 1, 3", net.watched, len(net.unscoped), len(net.taps))
	}
	net.Reset(7)
	if got := marked(); len(got) != 3 {
		t.Fatalf("Reset dropped marks: %v", got)
	}
	net.ClearTaps()
	if got := marked(); len(got) != 0 || len(net.watched) != 0 || len(net.unscoped) != 0 {
		t.Fatalf("ClearTaps left watched nodes %v, list %v, %d unscoped", got, net.watched, len(net.unscoped))
	}
}

// TestShardedTapSpyLogsOnlyWatched pins what SpyTap is for: with only
// spy taps registered, a sharded window parks nothing but
// the receives at watched nodes. One spy on a flood receives at most its
// degree of copies, so no shard's log ever grows past that, where the
// full stream parks hundreds of sends and receives per window.
func TestShardedTapSpyLogsOnlyWatched(t *testing.T) {
	g := shardTestGraph(t)
	const spy = proto.NodeID(100)
	net := NewNetwork(g, Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Shards: 4})
	net.AddTap(idSpy{ids: []proto.NodeID{spy}})
	net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
	net.Start()
	if _, err := net.Originate(3, []byte("spy log")); err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	for i, sh := range net.shards {
		if c := cap(sh.obsLog); c > g.Degree(spy) {
			t.Errorf("shard %d's observation log grew to %d entries; a lone spy of degree %d needs at most that many", i, c, g.Degree(spy))
		}
	}
}
