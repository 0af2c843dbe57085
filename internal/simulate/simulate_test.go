package simulate

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
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
