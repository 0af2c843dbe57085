package experiments

import "testing"

// TestNetworkReuseBitIdentical is the regression guard for the worker
// fixture (one network and mounted stack per worker, rewound between
// trials, on the repeated-topology experiments E4/E6/A1 and E17's
// SoakNet) and for the single-broadcast experiments' kept trial (one
// simulate.Trial per worker, rebuilt onto each trial's overlay, on
// E3/E5/E9/E10/A2): the rendered tables must be byte-identical to the
// fresh-network-per-trial form, at parallelism, in both arms. If Reset
// or Rebuild ever stops being equivalent to a fresh network and a fresh
// mount for these workloads, this fails before any published number
// drifts.
func TestNetworkReuseBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; run without -short")
	}
	for _, id := range []string{"e4", "e6", "a1", "e17", "e3", "e5", "e9", "e10", "a2"} {
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
