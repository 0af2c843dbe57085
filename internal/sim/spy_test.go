package sim_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// unscoped hides an Observer's Spies: the network sees a plain Tap and
// reports the full stream, and the Observer's own filter picks what it
// records — the path every tap took before SpyTap.
type unscoped struct{ sim.Tap }

// countingSpy is an Observer that also counts the callbacks a SpyTap
// must never get.
type countingSpy struct {
	*adversary.Observer
	sends, delivers int
}

func (c *countingSpy) OnSend(time.Duration, proto.NodeID, proto.NodeID, proto.Message) { c.sends++ }

func (c *countingSpy) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte) {
	c.delivers++
}

// streamTap records the full callback stream as comparable strings.
type streamTap struct{ events []string }

func (r *streamTap) OnSend(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	r.events = append(r.events, fmt.Sprint("S", at, from, to, msg.Type()))
}

func (r *streamTap) OnReceive(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	r.events = append(r.events, fmt.Sprint("R", at, from, to, msg.Type()))
}

func (r *streamTap) OnDeliverLocal(at time.Duration, node proto.NodeID, id proto.MsgID, _ []byte) {
	r.events = append(r.events, fmt.Sprint("D", at, node, id))
}

// deferredMsg is a message a deferFlood node forwards from a timer.
type deferredMsg struct {
	from proto.NodeID
	msg  proto.Message
}

// deferFlood floods, but its even-numbered nodes handle every message
// from a zero-delay timer. The receive creating the timer is then a
// same-instant causal ancestor whose child may sort before it, so the
// merge needs its availability marker even when no tap wants the
// receive itself.
type deferFlood struct{ *flood.Protocol }

func (d deferFlood) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	if ctx.Self()%2 == 0 {
		ctx.SetTimer(0, deferredMsg{from, msg})
		return
	}
	d.Protocol.HandleMessage(ctx, from, msg)
}

func (d deferFlood) HandleTimer(ctx proto.Context, payload any) {
	if p, ok := payload.(deferredMsg); ok {
		d.Protocol.HandleMessage(ctx, p.from, p.msg)
	}
}

// spyArms are the link models the spy battery runs under: fixed delay
// (same-instant waves across shards), jitter, loss, and churn.
func spyArms() []struct {
	name string
	opts sim.Options
} {
	jitter := netem.Profile{Latency: netem.Const(20 * time.Millisecond), Jitter: netem.Uniform{Hi: 15 * time.Millisecond}}
	lossy, churn := jitter, jitter
	lossy.Loss = 0.05
	churn.Churn = netem.Churn{Fraction: 0.1, Start: 10 * time.Millisecond, Down: 50 * time.Millisecond}
	return []struct {
		name string
		opts sim.Options
	}{
		{"const", sim.Options{Seed: 42, Latency: sim.ConstLatency(50 * time.Millisecond)}},
		{"jitter", sim.Options{Seed: 42, Netem: &jitter}},
		{"loss", sim.Options{Seed: 42, Netem: &lossy}},
		{"churn", sim.Options{Seed: 42, Netem: &churn}},
	}
}

func spyGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.RandomRegular(203, 8, rand.New(rand.NewPCG(7, 8)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// spyOrigins are the originators of spyRun's three broadcasts.
var spyOrigins = []proto.NodeID{3, 100, 202}

// spyRun mounts handlers built by mk, registers taps in order, floods one
// payload from each spyOrigins node and runs to quiescence. It returns
// the payload IDs.
func spyRun(t *testing.T, net *sim.Network, mk func() proto.Handler, taps ...sim.Tap) []proto.MsgID {
	t.Helper()
	for _, tap := range taps {
		net.AddTap(tap)
	}
	net.SetHandlers(func(proto.NodeID) proto.Handler { return mk() })
	net.Start()
	var ids []proto.MsgID
	for i, src := range spyOrigins {
		id, err := net.Originate(src, []byte{'s', 'p', 'y', byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	net.Run(0)
	return ids
}

func plainFlood() proto.Handler    { return flood.New() }
func deferredFlood() proto.Handler { return deferFlood{flood.New()} }

// sightings returns every payload's observations, in order.
func sightings(obs *adversary.Observer, ids []proto.MsgID) [][]adversary.Observation {
	out := make([][]adversary.Observation, len(ids))
	for i, id := range ids {
		out[i] = obs.Observations(id)
	}
	return out
}

func sameSightings(t *testing.T, name string, want, got [][]adversary.Observation) {
	t.Helper()
	for i := range want {
		if !slices.Equal(want[i], got[i]) {
			t.Fatalf("%s: payload %d: sightings differ (order included):\nwant %v\ngot  %v", name, i, want[i], got[i])
		}
	}
}

// TestShardedTapSpyEquivalence holds a SpyTap to the full stream it
// narrows: an Observer registered directly — so the network logs only
// receives at its spies — records exactly what the same Observer records
// behind a wrapper that hides Spies, every payload's sightings in the
// same order (FirstSpy breaks ties by order), at k = 1/2/4/7 under
// const, jitter, loss and churn, with plain floods and with floods that
// forward from zero-delay timers.
func TestShardedTapSpyEquivalence(t *testing.T) {
	g := spyGraph(t)
	corrupted := adversary.SampleCorrupted(g.N(), 0.2, rand.New(rand.NewPCG(1, 2)))
	for _, arm := range spyArms() {
		for _, h := range []struct {
			name string
			mk   func() proto.Handler
		}{{"flood", plainFlood}, {"zero-delay", deferredFlood}} {
			name := arm.name + "/" + h.name
			t.Run(name, func(t *testing.T) {
				base := adversary.NewObserver(corrupted)
				ids := spyRun(t, sim.NewNetwork(g, arm.opts), h.mk, unscoped{base})
				want := sightings(base, ids)
				total := 0
				for _, s := range want {
					total += len(s)
				}
				if total < len(corrupted) {
					t.Fatalf("degenerate baseline: %d sightings for %d spies", total, len(corrupted))
				}
				for _, k := range []int{1, 2, 4, 7} {
					opts := arm.opts
					opts.Shards = k
					for _, wrap := range []bool{false, true} {
						obs := adversary.NewObserver(corrupted)
						var tap sim.Tap = obs
						if wrap {
							tap = unscoped{obs}
						}
						net := sim.NewNetwork(g, opts)
						if k > 1 && net.ShardCount() != k {
							t.Fatalf("requested %d shards, resolved %d", k, net.ShardCount())
						}
						ids := spyRun(t, net, h.mk, tap)
						sameSightings(t, fmt.Sprintf("%s k=%d wrapped=%v", name, k, wrap), want, sightings(obs, ids))
					}
				}
			})
		}
	}
}

// TestShardedTapSpyMixed registers a SpyTap beside a tap without Spies:
// the unscoped tap sees exactly the stream it sees alone, whichever was
// registered first, the spy records what it records alone, and the spy
// gets no OnSend and no OnDeliverLocal.
func TestShardedTapSpyMixed(t *testing.T) {
	g := spyGraph(t)
	corrupted := adversary.SampleCorrupted(g.N(), 0.1, rand.New(rand.NewPCG(3, 4)))
	for _, arm := range spyArms() {
		t.Run(arm.name, func(t *testing.T) {
			for _, k := range []int{1, 4} {
				opts := arm.opts
				opts.Shards = k
				alone := &streamTap{}
				spyRun(t, sim.NewNetwork(g, opts), deferredFlood, alone)
				soloSpy := adversary.NewObserver(corrupted)
				ids := spyRun(t, sim.NewNetwork(g, opts), deferredFlood, soloSpy)

				for _, spyFirst := range []bool{true, false} {
					rec := &streamTap{}
					spy := &countingSpy{Observer: adversary.NewObserver(corrupted)}
					taps := []sim.Tap{rec, spy}
					if spyFirst {
						taps = []sim.Tap{spy, rec}
					}
					spyRun(t, sim.NewNetwork(g, opts), deferredFlood, taps...)
					name := fmt.Sprintf("k=%d spyFirst=%v", k, spyFirst)
					if !slices.Equal(alone.events, rec.events) {
						t.Fatalf("%s: unscoped tap's stream changed beside a spy (%d events, alone %d)", name, len(rec.events), len(alone.events))
					}
					sameSightings(t, name, sightings(soloSpy, ids), sightings(spy.Observer, ids))
					if spy.sends != 0 || spy.delivers != 0 {
						t.Fatalf("%s: spy got %d OnSend and %d OnDeliverLocal calls, want 0", name, spy.sends, spy.delivers)
					}
				}

				spy := &countingSpy{Observer: adversary.NewObserver(corrupted)}
				spyRun(t, sim.NewNetwork(g, opts), deferredFlood, spy)
				if spy.sends != 0 || spy.delivers != 0 {
					t.Fatalf("k=%d alone: spy got %d OnSend and %d OnDeliverLocal calls, want 0", k, spy.sends, spy.delivers)
				}
			}
		})
	}
}

// TestShardedTapSpyReuse re-seats one Observer on one sharded network
// the documented way — ClearTaps, Observer.Reset to a disjoint set,
// AddTap — and demands the sightings of a fresh network and Observer on
// the new set: none from the old spies, none missed at the new ones.
func TestShardedTapSpyReuse(t *testing.T) {
	g := spyGraph(t)
	perm := rand.New(rand.NewPCG(5, 6)).Perm(g.N())
	var setA, setB []proto.NodeID
	for _, v := range perm[:20] {
		setA = append(setA, proto.NodeID(v))
	}
	for _, v := range perm[20:40] {
		setB = append(setB, proto.NodeID(v))
	}
	for _, arm := range spyArms() {
		t.Run(arm.name, func(t *testing.T) {
			opts := arm.opts
			opts.Shards = 4
			fresh := adversary.NewObserver(setB)
			ids := spyRun(t, sim.NewNetwork(g, opts), deferredFlood, fresh)
			want := sightings(fresh, ids)

			net := sim.NewNetwork(g, opts)
			obs := adversary.NewObserver(setA)
			spyRun(t, net, deferredFlood, obs)
			net.Reset(opts.Seed)
			net.ClearTaps()
			obs.Reset(setB)
			got := sightings(obs, spyRun(t, net, deferredFlood, obs))
			sameSightings(t, "reused", want, got)
			for _, s := range got {
				for _, o := range s {
					if !slices.Contains(setB, o.Spy) {
						t.Fatalf("sighting at %d, outside the re-seated set", o.Spy)
					}
				}
			}
		})
	}
}

// TestSpyTapRegisterAllocs pins the cost of re-seating a spy Observer on
// a warm N=100k sharded network: ClearTaps unmarks only what AddTap
// marked, Observer.Reset refills its slice and maps in place, and AddTap
// reads Spies without a copy — zero allocations per trial.
func TestSpyTapRegisterAllocs(t *testing.T) {
	g, err := topology.RandomRegular(100_000, 8, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(g, sim.Options{Seed: 1, Latency: sim.ConstLatency(50 * time.Millisecond), Shards: 2})
	if net.ShardCount() != 2 {
		t.Fatalf("resolved %d shards, want 2", net.ShardCount())
	}
	rng := rand.New(rand.NewPCG(3, 4))
	sets := [2][]proto.NodeID{
		adversary.SampleCorrupted(g.N(), 0.01, rng),
		adversary.SampleCorrupted(g.N(), 0.01, rng),
	}
	obs := adversary.NewObserver(sets[0])
	trial := 0
	reseat := func() {
		trial++
		net.ClearTaps()
		obs.Reset(sets[trial%2])
		net.AddTap(obs)
	}
	reseat()
	reseat()
	if allocs := testing.AllocsPerRun(20, reseat); allocs != 0 {
		t.Errorf("ClearTaps + Observer.Reset + AddTap allocates %.1f per trial; want 0", allocs)
	}
}
