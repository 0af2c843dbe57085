package experiments

import (
	"testing"

	"repro/internal/netem"
)

// TestNetemOverrideZeroImpairmentBitIdentical pins the profile
// migration satellite: overriding an experiment with the very preset it
// declares (a zero-impairment profile) must take the same fixed-delay
// send path and reproduce the default table bit-for-bit —
// i.e. naming conditions as profiles changed nothing the golden
// fixtures measure (the fixtures themselves are guarded by
// TestGoldenTables).
func TestNetemOverrideZeroImpairmentBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; run without -short")
	}
	cases := []struct {
		id     string
		preset netem.Profile
	}{
		{"e2", netem.LAN},    // declared preset: LAN
		{"e1", netem.WAN},    // declared preset: WAN
		{"e12", netem.Metro}, // declared preset: Metro
		{"e9", netem.WAN},    // declared: simulate's constant 50 ms hop
	}
	for _, c := range cases {
		e := Find(c.id)
		if e == nil {
			t.Fatalf("experiment %s not found", c.id)
		}
		def := e.Run(Quick()).Render()
		preset := c.preset
		sc := Quick()
		sc.Netem = &preset
		got := e.Run(sc).Render()
		if got != def {
			t.Errorf("%s under explicit %s profile drifted from its default table:\n--- default\n%s\n--- override\n%s",
				c.id, preset.Name, def, got)
		}
	}
}

// TestNetemOverrideImpairedChangesTable is the counter-check: an
// impaired override must actually reach the trial networks (a lossy
// profile changes delivery behavior and thus the table) — on E1, and on
// E9, whose networks the simulate trial builds.
func TestNetemOverrideImpairedChangesTable(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; run without -short")
	}
	for _, id := range []string{"e1", "e9"} {
		e := Find(id)
		def := e.Run(Quick()).Render()
		lossy := netem.Flaky
		sc := Quick()
		sc.Netem = &lossy
		if got := e.Run(sc).Render(); got == def {
			t.Errorf("flaky override produced a bit-identical %s table — the profile never reached the networks", id)
		}
	}
}
