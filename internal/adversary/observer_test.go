package adversary

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The battery below pins the Observer's delivery-time contract over
// shaped networks: spies record only messages the network actually
// delivered, at arrival timestamps that include the profile's latency
// and jitter, ignoring spy-to-spy and honest-to-honest edges — and the
// Observer/Network pair is reusable across runner trials.

func batteryGraph(t *testing.T) *topology.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(21, 22))
	g, err := topology.RandomRegular(60, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runFlood floods one payload from an honest source and returns the
// message ID.
func runFlood(t *testing.T, net *sim.Network, obs *Observer, seed uint64) proto.MsgID {
	t.Helper()
	net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
	net.Start()
	src := proto.NodeID(seed % 60)
	for obs.Corrupted(src) {
		src = (src + 1) % 60
	}
	id, err := net.Originate(src, []byte{byte(seed), 0x16})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	return id
}

func TestObserverSeesOnlyDeliveredMessages(t *testing.T) {
	g := batteryGraph(t)
	rng := rand.New(rand.NewPCG(3, 4))
	corrupted := SampleCorrupted(60, 0.2, rng)

	// A black-hole profile delivers nothing: the flood dies at the
	// source and the spies must come up empty even though send attempts
	// happened.
	blackhole := netem.Profile{Name: "blackhole", Latency: netem.Const(20 * time.Millisecond), Loss: 1}
	net := sim.NewNetwork(g, sim.Options{Seed: 1, Netem: &blackhole})
	obs := NewObserver(corrupted)
	net.AddTap(obs)
	id := runFlood(t, net, obs, 1)
	if net.TotalMessages() == 0 {
		t.Fatal("no send attempts — fixture broken")
	}
	if got := len(obs.Observations(id)); got != 0 {
		t.Errorf("observer recorded %d sightings under 100%% loss, want 0", got)
	}

	// Moderate loss: strictly fewer sightings than the lossless run of
	// the same seeded trial, and at least one (the flood still covers).
	lossy := netem.Profile{Name: "lossy", Latency: netem.Const(20 * time.Millisecond), Loss: 0.3}
	clean := netem.Profile{Name: "clean", Latency: netem.Const(20 * time.Millisecond)}
	netLossy := sim.NewNetwork(g, sim.Options{Seed: 2, Netem: &lossy})
	obsLossy := NewObserver(corrupted)
	netLossy.AddTap(obsLossy)
	idLossy := runFlood(t, netLossy, obsLossy, 2)
	netClean := sim.NewNetwork(g, sim.Options{Seed: 2, Netem: &clean})
	obsClean := NewObserver(corrupted)
	netClean.AddTap(obsClean)
	idClean := runFlood(t, netClean, obsClean, 2)
	nl, nc := len(obsLossy.Observations(idLossy)), len(obsClean.Observations(idClean))
	if nl == 0 || nl >= nc {
		t.Errorf("lossy run observed %d sightings vs %d clean — want 0 < lossy < clean", nl, nc)
	}
	if dropped := netLossy.NetemDropped(); dropped == 0 {
		t.Error("lossy run dropped nothing — fixture broken")
	}
}

func TestObserverArrivalTimesShaped(t *testing.T) {
	g := batteryGraph(t)
	rng := rand.New(rand.NewPCG(5, 6))
	corrupted := SampleCorrupted(60, 0.2, rng)
	const base = 40 * time.Millisecond

	// Constant latency: every arrival is a whole number of hops late.
	cst := netem.Profile{Name: "const", Latency: netem.Const(base)}
	net := sim.NewNetwork(g, sim.Options{Seed: 3, Netem: &cst})
	obs := NewObserver(corrupted)
	net.AddTap(obs)
	id := runFlood(t, net, obs, 3)
	if len(obs.Observations(id)) == 0 {
		t.Fatal("no observations — fixture broken")
	}
	for _, o := range obs.Observations(id) {
		if o.At < base || o.At%base != 0 {
			t.Fatalf("const-latency arrival %v is not a positive multiple of %v", o.At, base)
		}
	}

	// Added jitter: arrivals keep the latency floor but leave the
	// constant grid.
	jit := netem.Profile{Name: "jitter", Latency: netem.Const(base), Jitter: netem.Uniform{Hi: 15 * time.Millisecond}}
	netJ := sim.NewNetwork(g, sim.Options{Seed: 3, Netem: &jit})
	obsJ := NewObserver(corrupted)
	netJ.AddTap(obsJ)
	idJ := runFlood(t, netJ, obsJ, 3)
	offGrid := 0
	for _, o := range obsJ.Observations(idJ) {
		if o.At < base {
			t.Fatalf("jittered arrival %v below the latency floor %v", o.At, base)
		}
		if o.At%base != 0 {
			offGrid++
		}
	}
	if offGrid == 0 {
		t.Error("every jittered arrival sits on the constant grid — jitter not applied to observations")
	}
}

func TestObserverEdgeFiltering(t *testing.T) {
	g := batteryGraph(t)
	rng := rand.New(rand.NewPCG(7, 8))
	corrupted := SampleCorrupted(60, 0.3, rng)
	clean := netem.Profile{Name: "clean", Latency: netem.Const(10 * time.Millisecond)}
	net := sim.NewNetwork(g, sim.Options{Seed: 4, Netem: &clean})
	obs := NewObserver(corrupted)
	net.AddTap(obs)
	id := runFlood(t, net, obs, 4)
	if len(obs.Observations(id)) == 0 {
		t.Fatal("no observations — fixture broken")
	}
	for _, o := range obs.Observations(id) {
		if obs.Corrupted(o.From) {
			t.Fatalf("spy-to-spy edge %d→%d recorded", o.From, o.Spy)
		}
		if !obs.Corrupted(o.Spy) {
			t.Fatalf("honest receiver %d recorded as spy", o.Spy)
		}
	}
}

// TestObserverReuseAcrossTrials runs the same trial family twice — once
// with fresh networks/observers per trial, once with per-worker
// Reset/ClearTaps reuse under a parallel runner — and demands identical
// outcomes, the same worker-reuse contract the experiments rely on. The
// reused Observer samples its own corrupted set (ResetSampled) after its
// kept storage — sighting logs, permutation — was filled with junk, and
// must record exactly the fresh Observer's sightings. A warm trial's
// reset and recording then allocate nothing.
func TestObserverReuseAcrossTrials(t *testing.T) {
	g := batteryGraph(t)
	lossy := netem.Profile{Name: "lossy", Latency: netem.Const(10 * time.Millisecond), Loss: 0.1}
	const trials = 24

	type outcome struct {
		suspect   proto.NodeID
		spies     []proto.NodeID
		sightings []Observation
	}
	trialBody := func(net *sim.Network, obs *Observer, trial int) outcome {
		id := runFlood(t, net, obs, uint64(trial))
		return outcome{
			suspect:   FirstSpy(obs.Observations(id)),
			spies:     slices.Clone(obs.Spies()),
			sightings: slices.Clone(obs.Observations(id)),
		}
	}

	fresh := runner.Map(trials, 1, func(trial int) outcome {
		rng := rand.New(rand.NewPCG(uint64(trial), 9))
		net := sim.NewNetwork(g, sim.Options{Seed: uint64(trial + 1), Netem: &lossy})
		obs := NewObserver(SampleCorrupted(60, 0.2, rng))
		net.AddTap(obs)
		return trialBody(net, obs, trial)
	})

	type worker struct {
		net *sim.Network
		obs *Observer
	}
	reused := runner.MapWorker(trials, 4, func() *worker {
		return &worker{
			net: sim.NewNetwork(g, sim.Options{Seed: 1, Netem: &lossy}),
			obs: NewObserver(nil),
		}
	}, func(w *worker, trial int) outcome {
		rng := rand.New(rand.NewPCG(uint64(trial), 9))
		w.net.Reset(uint64(trial + 1))
		w.net.ClearTaps()
		junkFill(w.obs)
		w.obs.ResetSampled(60, 0.2, rng)
		w.net.AddTap(w.obs)
		return trialBody(w.net, w.obs, trial)
	})

	for i := range fresh {
		f, r := fresh[i], reused[i]
		if f.suspect != r.suspect || !slices.Equal(f.spies, r.spies) || !slices.Equal(f.sightings, r.sightings) {
			t.Fatalf("trial %d: fresh %+v != reused %+v — Reset/ClearTaps reuse is not transparent", i, f, r)
		}
		if len(f.sightings) == 0 {
			t.Fatalf("trial %d: no sightings — fixture broken", i)
		}
	}

	// The receives of one trial, replayed into a warm Observer that
	// re-samples the same corrupted set each time.
	rec := &receives{}
	net := sim.NewNetwork(g, sim.Options{Seed: 5, Netem: &lossy})
	obs := NewObserver(nil)
	net.AddTap(rec)
	pcg := rand.NewPCG(0, 0)
	rng := rand.New(pcg)
	pcg.Seed(5, 9)
	obs.ResetSampled(60, 0.2, rng)
	runFlood(t, net, obs, 5)
	warm := func() {
		pcg.Seed(5, 9)
		obs.ResetSampled(60, 0.2, rng)
		for _, r := range rec.log {
			obs.OnReceive(r.at, r.from, r.to, r.msg)
		}
	}
	warm()
	if len(obs.Observations(rec.log[0].id)) == 0 {
		t.Fatal("the replayed trial recorded no sightings — fixture broken")
	}
	if allocs := testing.AllocsPerRun(10, warm); allocs != 0 {
		t.Errorf("a warm trial's ResetSampled and sightings allocate %v times, want 0", allocs)
	}
}

// junkFill overwrites the Observer's kept storage — every sighting log to
// its capacity and the sample permutation — with values no trial
// records, as a later trial would find them if Reset forgot a part.
func junkFill(o *Observer) {
	for i := range o.logs {
		log := o.logs[i][:cap(o.logs[i])]
		for j := range log {
			log[j] = Observation{At: time.Hour, Spy: 59, From: 0, Kind: 0xffff}
		}
	}
	perm := o.perm[:cap(o.perm)]
	for i := range perm {
		perm[i] = proto.NodeID(len(perm) - 1 - i)
	}
}

// receives records every receive a network reports, with the payload ID
// of the messages that carry one.
type receives struct{ log []receive }

type receive struct {
	at       time.Duration
	from, to proto.NodeID
	msg      proto.Message
	id       proto.MsgID
}

func (r *receives) OnReceive(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	id, _ := messageID(msg)
	r.log = append(r.log, receive{at, from, to, msg, id})
}

func (*receives) OnSend(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (*receives) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte) {}
