package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment tables under testdata/golden")

// volatileColumns names, per experiment, the table columns that carry
// wall-clock quantities and are therefore masked before any comparison of
// rendered tables (every other cell is deterministic: trials are seeded
// and tables are independent of -par and -shards).
var volatileColumns = map[string][]string{
	"e14": {"Mevents/s/worker", "Mevents/s/core"},
}

// maskColumn overwrites one named column's cells so timing noise cannot
// fail the comparison.
func maskColumn(t *testing.T, tbl *metrics.Table, name string) {
	t.Helper()
	col := -1
	for i, h := range tbl.Headers {
		if h == name {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("volatile column %q not found in headers %v", name, tbl.Headers)
	}
	for _, row := range tbl.Rows {
		if col < len(row) {
			row[col] = "(wall-clock)"
		}
	}
}

// TestGoldenTables diffs every experiment's quick-mode table against
// the committed fixture, so any drift in the reproduced numbers —
// whatever code path caused it — fails in CI with a readable diff
// instead of hiding in a log. Regenerate intentionally with
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; run without -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(Quick())
			for _, col := range volatileColumns[e.ID] {
				maskColumn(t, tbl, col)
			}
			got := tbl.Render()
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden table (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s table drifted from golden fixture:\n--- got\n%s\n--- want\n%s\nif the drift is intentional, regenerate with -update", e.ID, got, want)
			}
		})
	}
}
