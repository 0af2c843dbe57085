package experiments

import "testing"

// TestNetworkReuseBitIdentical is the regression guard for the worker
// fixture (one network and mounted stack per worker, rewound between
// trials, on the repeated-topology experiments E4/E6/A1 and E17's
// SoakNet): the rendered tables must be byte-identical to the
// fresh-network-per-trial form, at parallelism, in both arms. If Reset
// ever stops being equivalent to a fresh network and a fresh mount for
// these workloads, this fails before any published number drifts.
func TestNetworkReuseBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; run without -short")
	}
	for _, id := range []string{"e4", "e6", "a1", "e17"} {
		e := Find(id)
		if e == nil {
			t.Fatalf("experiment %s not found", id)
		}
		t.Run(id, func(t *testing.T) {
			reused := e.Run(Scenario{Quick: true, Par: 2}).Render()
			fresh := e.Run(Scenario{Quick: true, Par: 2, freshNet: true}).Render()
			if reused != fresh {
				t.Errorf("%s table differs between reused and fresh networks:\n--- reused\n%s\n--- fresh\n%s", id, reused, fresh)
			}
		})
	}
}
