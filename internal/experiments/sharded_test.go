package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShardedGoldenTables replays every experiment at shard counts
// 1/2/4/7 and diffs each table against the same committed fixture the
// single-loop run is held to: sharding is pure execution strategy, so
// every cell except the masked wall-clock columns must be bit-identical
// at any shard count. A new experiment is checked here by default. Under
// CI's -race run this also races the dense partitioned handler state
// (flood/adaptive/core Shared) across the per-shard goroutines — composed
// under loss and churn in e15 — the per-member slots the DC-net and
// Dissent experiments (e2, e7, e11, e13) reduce after a run, and, via the
// spy Observers of e3/e4/e5/e16/e17/a2, the per-shard observation logs
// behind the tap merge (sim/obs.go).
func TestShardedGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; run without -short")
	}
	for _, e := range All() {
		id := e.ID
		path := filepath.Join("testdata", "golden", id+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden table (run TestGoldenTables -update first): %v", err)
		}
		for _, shards := range []int{1, 2, 4, 7} {
			t.Run(id+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				sc := Quick()
				sc.Shards = shards
				tbl := e.Run(sc)
				for _, col := range volatileColumns[id] {
					maskColumn(t, tbl, col)
				}
				if got := tbl.Render(); got != string(want) {
					t.Errorf("%s table at %d shards drifted from the single-loop fixture:\n--- got\n%s\n--- want\n%s",
						id, shards, got, want)
				}
			})
		}
	}
}
