package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// sanity-checks the tables: non-empty rows, the headline shapes of the
// paper (flood ≈ 7,000 messages; adaptive > flood; DC-net per-round
// counts exact; k-anonymity floor present).
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; run without -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(Quick())
			if tbl == nil || len(tbl.Rows) == 0 {
				t.Fatalf("%s returned an empty table", e.ID)
			}
			out := tbl.Render()
			if !strings.Contains(out, tbl.Headers[0]) {
				t.Errorf("%s table render missing headers:\n%s", e.ID, out)
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	if e := Find("e1"); e == nil || e.ID != "e1" {
		t.Error("Find(e1) failed")
	}
	if e := Find("nope"); e != nil {
		t.Error("Find(nope) returned something")
	}
}

func TestE1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tbl := E1Messages(Quick())
	if len(tbl.Rows) != 2 {
		t.Fatalf("E1 rows = %d", len(tbl.Rows))
	}
	// flood row: exactly 7001 messages on 8-regular N=1000.
	if !strings.HasPrefix(tbl.Rows[0][2], "7001") {
		t.Errorf("flood messages = %s, want 7001", tbl.Rows[0][2])
	}
	// adaptive > flood (the paper's 12,500 vs 7,000 shape).
	if tbl.Rows[1][5] <= "1" && !strings.HasPrefix(tbl.Rows[1][5], "1.") {
		t.Errorf("adaptive/flood ratio = %s, want > 1", tbl.Rows[1][5])
	}
}

// TestScenarioOverrides exercises the size-parameterized path: E1 at
// N=200, d=6 must match its own flood formula at that size.
func TestScenarioOverrides(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tbl := E1Messages(Scenario{Quick: true, N: 200, Degree: 6, Trials: 2})
	// 2E − (N−1) = 1200 − 199 = 1001 messages.
	if !strings.HasPrefix(tbl.Rows[0][2], "1001") {
		t.Errorf("flood messages at N=200 d=6 = %s, want 1001", tbl.Rows[0][2])
	}
	if !strings.Contains(tbl.Title, "200 peers") {
		t.Errorf("title not size-parameterized: %s", tbl.Title)
	}
}

// TestParallelDeterminism is the regression guard for the trial runner:
// every experiment's rendered table must be byte-identical between the
// sequential loop (-par 1) and a saturated worker pool, regardless of
// scheduling. Wall-clock columns (volatileColumns) are masked first.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; run without -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			render := func(par int) string {
				tbl := e.Run(Scenario{Quick: true, Par: par})
				for _, col := range volatileColumns[e.ID] {
					maskColumn(t, tbl, col)
				}
				return tbl.Render()
			}
			seq, par := render(1), render(4)
			if seq != par {
				t.Errorf("%s table differs between -par 1 and -par 4:\n--- sequential\n%s\n--- parallel\n%s", e.ID, seq, par)
			}
		})
	}
}
