package sim

import (
	"encoding/binary"
	"fmt"
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

// childMsg carries how many more same-instant generations a receiver
// from a higher ID may start.
type childMsg struct{ hops int }

func (childMsg) Type() proto.MsgType { return 0x7e01 }

// childGo is the injected kick: send one childMsg to to.
type childGo struct {
	to   proto.NodeID
	hops int
}

// childNode receives from a higher ID by arming a zero-delay timer, whose
// child carries a smaller ordering tag than the delivery that armed it;
// the timer sends and re-arms itself while hops last.
type childNode struct{ n int }

func (childNode) Init(proto.Context) {}

func (c childNode) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	if m := msg.(childMsg); from > ctx.Self() && m.hops > 0 {
		ctx.SetTimer(0, m.hops-1)
	}
}

func (c childNode) HandleTimer(ctx proto.Context, payload any) {
	switch p := payload.(type) {
	case childGo:
		ctx.Send(p.to, childMsg{hops: p.hops})
	case int:
		ctx.Send(proto.NodeID((int(ctx.Self())*5+3)%c.n), childMsg{hops: p})
		if p > 0 {
			ctx.SetTimer(0, p-1)
		}
	}
}

// spyRec records through a recTap but watches only ids.
type spyRec struct {
	*recTap
	ids []proto.NodeID
}

func (s spyRec) Spies() []proto.NodeID { return s.ids }

// TestShardedTapSameInstantChild attempts the one case the head merge
// has to get right without help (obs.go, "Why the merge is exact"): node
// 1 receives from node 10 at 10 ms and arms a zero-delay timer that
// sends, keyed (1, ·) — below the delivery (10, ·) that armed it — while
// node 12, on another shard at every k > 1, receives from node 5 at the
// same instant, keyed (5, ·) in between. The single loop runs 5→12, then
// 10→1, then 1's timer; a merge that sorted by key would put the
// timer's send first. Every other node adds its own kick, so the
// instant carries many such ties. The stream must equal the single
// loop's at k = 1/2/4/7 under an unscoped tap, and under SpyTaps alone —
// one set that watches node 1, so the delivery has its entry, and one
// that does not, so nothing of the child chain is logged.
func TestShardedTapSameInstantChild(t *testing.T) {
	const n = 14
	g, err := topology.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int, spies []proto.NodeID) ([]recEvent, int) {
		net := NewNetwork(g, Options{Seed: 42, Latency: ConstLatency(10 * time.Millisecond), Shards: shards})
		rec := &recTap{}
		if spies == nil {
			net.AddTap(rec)
		} else {
			net.AddTap(spyRec{rec, spies})
		}
		net.SetHandlers(func(proto.NodeID) proto.Handler { return childNode{n} })
		net.Start()
		net.InjectTimerAt(0, 10, childGo{to: 1, hops: 2})
		net.InjectTimerAt(0, 5, childGo{to: 12, hops: 2})
		for v := range proto.NodeID(n) {
			net.InjectTimerAt(0, v, childGo{to: (v*3 + 1) % n, hops: 3})
		}
		net.Run(0)
		return rec.events, net.ShardCount()
	}
	base, _ := run(0, nil)
	tie := -1
	for i, e := range base {
		if e.kind == 'R' && e.at == 10*time.Millisecond && e.a == 5 && e.b == 12 {
			tie = i
		}
		if tie >= 0 && e.kind == 'S' && e.at == 10*time.Millisecond && e.a == 1 {
			tie = -2
			break
		}
	}
	if tie != -2 {
		t.Fatal("the single-loop stream lacks 5→12 before node 1's same-instant child send; the hazard is not built")
	}
	for _, spies := range [][]proto.NodeID{nil, {1, 12, 8}, {12, 8, 13}} {
		name := "unscoped"
		if spies != nil {
			name = fmt.Sprintf("spies=%v", spies)
		}
		want, _ := run(0, spies)
		if len(want) == 0 {
			t.Fatalf("%s: empty single-loop stream", name)
		}
		for _, k := range []int{1, 2, 4, 7} {
			got, resolved := run(k, spies)
			if resolved != k {
				t.Fatalf("requested %d shards, resolved %d", k, resolved)
			}
			if k > 1 && topology.ShardOf(1, n, k) == topology.ShardOf(12, n, k) {
				t.Fatalf("k=%d: nodes 1 and 12 share a shard; the tie is not cross-shard", k)
			}
			compareStreams(t, fmt.Sprintf("%s/k=%d", name, k), want, got)
		}
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
