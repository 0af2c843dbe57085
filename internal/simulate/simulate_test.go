package simulate

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/topology"
)

// plain builds the network flexnet.Simulate builds: the declared profile,
// one event loop.
func plain(g *topology.Graph, seed uint64, def netem.Profile) *sim.Network {
	return sim.NewNetwork(g, sim.Options{Seed: seed, Netem: &def})
}

// The delivery record Run returns is the one the result was read from.
func TestDeliveriesAgreeWithResult(t *testing.T) {
	for _, f := range []float64{0, 0.1} {
		cfg := Config{N: 120, Degree: 6, Protocol: ProtocolFlexnet, K: 4, D: 3, Seed: 21, AdversaryFraction: f}
		res, deliveries, err := Run(cfg, plain)
		if err != nil {
			t.Fatal(err)
		}
		var count int
		var last time.Duration
		for _, at := range deliveries.All() {
			count++
			last = max(last, at)
		}
		if count != res.Delivered || last != res.TimeToCoverage {
			t.Errorf("f=%v: delivery record has %d nodes, last at %v; the result reports %d, %v",
				f, count, last, res.Delivered, res.TimeToCoverage)
		}
		if _, ok := deliveries.Time(proto.NodeID(res.Originator)); !ok {
			t.Errorf("f=%v: originator %d is missing from the delivery record", f, res.Originator)
		}
	}
}

// Run builds exactly one network, seeded with cfg.Seed, under the
// constant LatencyMs hop the configuration declares.
func TestRunBuildsOneNetworkUnderDeclaredProfile(t *testing.T) {
	cfg := Config{N: 150, Degree: 6, K: 4, D: 3, Seed: 5, LatencyMs: 30}
	calls := 0
	_, _, err := Run(cfg, func(g *topology.Graph, seed uint64, def netem.Profile) *sim.Network {
		calls++
		if seed != cfg.Seed {
			t.Errorf("network seed %d, want %d", seed, cfg.Seed)
		}
		if d, fixed := def.FixedDelay(); !fixed || d != 30*time.Millisecond {
			t.Errorf("declared profile %+v, want a constant 30ms hop", def)
		}
		return plain(g, seed, def)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("%d networks built, want 1", calls)
	}
}

// run is Run with the rule that fits the stack to the link profile as a
// parameter.
func run(cfg Config, build NetworkFunc, fit func(stack.Spec, *netem.Profile) stack.Spec) (*Result, *sim.DeliverySet, error) {
	t := NewTrial(build)
	t.fit = fit
	return t.Run(cfg)
}

// strict mounts the stack as configured whatever the profile: the
// protocol before it was fitted to the link.
func strict(s stack.Spec, _ *netem.Profile) stack.Spec { return s }

// deliveryRatio runs cfg over seeds on a network under p with the stack
// fitted by fit and returns each seed's delivered fraction.
func deliveryRatio(t *testing.T, cfg Config, p netem.Profile, seeds []uint64, fit func(stack.Spec, *netem.Profile) stack.Spec) []float64 {
	t.Helper()
	ratios := make([]float64, len(seeds))
	for i, seed := range seeds {
		cfg.Seed = seed
		res, _, err := run(cfg, func(g *topology.Graph, seed uint64, _ netem.Profile) *sim.Network {
			return plain(g, seed, p)
		}, fit)
		if err != nil {
			t.Fatal(err)
		}
		ratios[i] = float64(res.Delivered) / float64(res.N)
	}
	return ratios
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// On every preset, at E9's size and composed seeds, the composed protocol
// reaches every node wherever flood does: its stack follows the profile.
// Churn is the one exception. Infected nodes drop the fail-safe flood,
// so it cannot cross the diffusion ball a crash cut; there the fitted
// stack must still beat the strict one.
func TestPresetsDeliverWhereFloodDoes(t *testing.T) {
	seeds := []uint64{5, 12, 19} // E9's composed seeds: trial·7 + D + 1
	cfg := Config{N: 1000, Degree: 8, K: 5, D: 4, MaxDuration: 5 * time.Minute}
	for _, p := range netem.Presets() {
		cfg := cfg
		cfg.Protocol = ProtocolFlood
		flood := deliveryRatio(t, cfg, p, seeds, stack.Spec.For)
		cfg.Protocol = ProtocolFlexnet
		composed := deliveryRatio(t, cfg, p, seeds, stack.Spec.For)
		if p.Churn.Enabled() {
			before := deliveryRatio(t, cfg, p, seeds, strict)
			if mean(composed) <= mean(before) {
				t.Errorf("%s: composed delivers %.4f fitted, %.4f strict; want fitted above strict", p.Name, mean(composed), mean(before))
			}
			continue
		}
		for i, seed := range seeds {
			if flood[i] == 1 && composed[i] != 1 {
				t.Errorf("%s seed %d: flood delivers 1, composed %.4f", p.Name, seed, composed[i])
			}
		}
	}
}

// On a healthy run the derived fail-safe gives up no privacy: it never
// floods before Phase 3 has come through. On a profile that can lose a
// message but (at 1e-7) does not, each of E3's composed configurations
// sends exactly what it sends with the deadline past the run's horizon
// — while a flat 2 s deadline, which a healthy d ≥ 4 run outlasts, does
// not, so the comparison sees an early flood.
func TestFailSafeSilentOnHealthyRun(t *testing.T) {
	p := netem.Profile{Name: "loss=1e-7", Latency: netem.Const(50 * time.Millisecond), Loss: 1e-7}
	withFailSafe := func(fs time.Duration) func(stack.Spec, *netem.Profile) stack.Spec {
		return func(s stack.Spec, p *netem.Profile) stack.Spec {
			s = s.For(p)
			s.Composed.FailSafe = fs
			return s
		}
	}
	flatDiffers := false
	for _, kd := range [][2]int{{4, 3}, {7, 4}, {10, 5}} {
		cfg := Config{N: 300, Degree: 8, K: kd[0], D: kd[1], AdversaryFraction: 0.2}
		for seed := uint64(1); seed <= 10; seed++ {
			cfg.Seed = seed
			msgs := func(fit func(stack.Spec, *netem.Profile) stack.Spec) int64 {
				res, _, err := run(cfg, func(g *topology.Graph, seed uint64, _ netem.Profile) *sim.Network {
					return plain(g, seed, p)
				}, fit)
				if err != nil {
					t.Fatal(err)
				}
				return res.TotalMessages
			}
			derived, late := msgs(stack.Spec.For), msgs(withFailSafe(time.Hour))
			if derived != late {
				t.Errorf("k=%d d=%d seed %d: %d messages with the derived fail-safe, %d with none in the horizon", kd[0], kd[1], seed, derived, late)
			}
			flatDiffers = flatDiffers || msgs(withFailSafe(2*time.Second)) != late
		}
	}
	if !flatDiffers {
		t.Error("a flat 2 s fail-safe sent what none did on every run: the comparison cannot see an early flood")
	}
}

// TestTrialReuseAcrossTopologies runs one kept Trial through
// random-regular calls at two sizes — one right after the other, so
// the kept network was built over the very graph the second call's build
// overwrote — interleaved with ring and small-world calls, over several
// protocols and seeds, with and without an adversary, and holds each
// call to a one-shot Run field for field: the kept overlay, network,
// Observer and join order are never served to another topology kind or
// size.
func TestTrialReuseAcrossTopologies(t *testing.T) {
	cells := []Config{
		{N: 250, Topology: TopologyRandomRegular, Protocol: ProtocolFlexnet, K: 5, D: 4, AdversaryFraction: 0.1},
		{N: 200, Topology: TopologyRandomRegular, Protocol: ProtocolFlexnet, K: 10, D: 4},
		{N: 250, Topology: TopologyRing, Protocol: ProtocolFlood, AdversaryFraction: 0.1},
		{N: 250, Topology: TopologySmallWorld, Protocol: ProtocolFlexnet, K: 5, D: 3, AdversaryFraction: 0.2},
		{N: 250, Topology: TopologyRandomRegular, Protocol: ProtocolAdaptive, D: 4, AdversaryFraction: 0.1},
		{N: 200, Topology: TopologyRing, Protocol: ProtocolDandelion},
		{N: 200, Topology: TopologyRandomRegular, Protocol: ProtocolFlood, Degree: 6, AdversaryFraction: 0.1},
		{N: 200, Topology: TopologySmallWorld, Protocol: ProtocolFlood},
	}
	tr := NewTrial(plain)
	for seed := uint64(1); seed <= 3; seed++ {
		for i, cfg := range cells {
			cfg.Seed = seed
			got, gotDel, err := tr.Run(cfg)
			want, wantDel, wantErr := Run(cfg, plain)
			if err != nil || wantErr != nil {
				t.Fatalf("seed %d cell %d: kept Trial error %v, one-shot %v", seed, i, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d cell %d %+v:\n kept     %+v\n one-shot %+v", seed, i, cfg, got, want)
			}
			if g, w := maps.Collect(gotDel.All()), maps.Collect(wantDel.All()); !maps.Equal(g, w) {
				t.Errorf("seed %d cell %d: the kept Trial's delivery record differs from the one-shot run's", seed, i)
			}
		}
	}
}
