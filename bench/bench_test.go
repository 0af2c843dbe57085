package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// benchmarkJSON mirrors the file the driver reads.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []jsonWhy     `json:"workloads"`
	EndToEnd   []jsonMetric  `json:"end_to_end"`
	PerLayer   []jsonLayered `json:"per_layer"`
}

type jsonWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayered struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func fromTables() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWhy{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayered{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSON holds BENCHMARK.json equal to the tables the program
// reports from, and inside the limits its reader sets.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := json.MarshalIndent(fromTables(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the metric tables; run go test -run TestBenchmarkJSON -update", path)
	}

	seen := map[string]bool{}
	name := func(kind, s string) {
		if s == "" || len(s) > 64 || strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("%s name %q is outside the allowed form", kind, s)
		}
		if seen[s] {
			t.Errorf("%s name %q is used twice", kind, s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		name("metric", d.Name)
		if len(d.Unit) > 16 || strings.Trim(d.Unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("unit %q of %s is outside the allowed form", d.Unit, d.Name)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

// sortedNames returns the names of a metric table, sorted — the form
// tests compare.
func sortedNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	slices.Sort(names)
	return names
}

func smoke(t *testing.T, workload string, seed uint64, trace bool) *record {
	t.Helper()
	r, _, err := runWorkload(runOpts{workload: workload, seed: seed, seconds: 10, trace: trace, small: true})
	if err != nil {
		t.Fatalf("%s seed %d trace %t: %v", workload, seed, trace, err)
	}
	if !r.Correct {
		t.Errorf("%s seed %d trace %t: incorrect: failed %d of %d, problems %q, notes %q", workload, seed, trace, r.Failed, r.Attempted, r.Problems, r.Notes)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	if want := sortedNames(metricsOf(r.Trace)); !slices.Equal(names, want) {
		t.Errorf("%s trace %t emitted metrics %v, tables name %v", workload, trace, names, want)
	}
	return r
}

// TestSmoke runs every workload scaled down: the names emitted are the
// names declared, the traced pass reproduces the untraced counts (a
// mismatch makes the record incorrect), a seed fixes everything
// simulated, and another seed changes it.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := smoke(t, w.Name, 1, false)
			other := smoke(t, w.Name, 2, false)
			if a.Fingerprint == other.Fingerprint {
				t.Errorf("seeds 1 and 2 gave the same fingerprint %s", a.Fingerprint)
			}
			for _, d := range endToEnd {
				if a.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}
			t1, t2 := smoke(t, w.Name, 1, true), smoke(t, w.Name, 1, true)
			if t1.Fingerprint != t2.Fingerprint {
				t.Errorf("same seed, fingerprints %s and %s", t1.Fingerprint, t2.Fingerprint)
			}
			for _, d := range perLayer {
				if x, y := t1.Metrics[d.Name].Value, t2.Metrics[d.Name].Value; d.Exact && x != y {
					t.Errorf("exact metric %s: %v then %v at the same seed", d.Name, x, y)
				}
			}
		})
	}
}

// TestQuartiles pins the quantile rule to Python's
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lowerBetter := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higherBetter := metricDef{Name: "events_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lowerBetter, []float64{10, 10.1, 9.9}, []float64{10.2, 10.3, 10.1}, "ok"},
		{lowerBetter, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, "regressed"},
		{higherBetter, []float64{10, 10.1, 9.9}, []float64{8.5, 8.6, 8.4}, "regressed"},
		{higherBetter, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, "ok"},
		{lowerBetter, []float64{8, 10, 12}, []float64{8.1, 10.1, 12.1}, "unresolved"},
		{lowerBetter, []float64{8, 10, 12}, []float64{5, 6, 7}, "ok"}, // wide, but every run better
	} {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestCompareFiles checks the exit rule: equal files pass, a regression
// or a changed exact value fails.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, steps float64, failed int) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 3; seed++ {
			for trace := 0; trace <= 1; trace++ {
				r := &record{Workload: "flood1m", Seed: seed, Seconds: 10, Trace: trace, Attempted: 100, Failed: failed, Metrics: map[string]measure{}}
				for _, d := range endToEnd {
					r.Metrics[d.Name] = measure{1, d.Unit}
				}
				r.Metrics["wall_s"] = measure{wall + float64(seed)/100, "s"}
				r.Metrics["sim.steps"] = measure{steps, "count"}
				if err := appendRecord(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	base := write("base", 5, 7000001, 0)
	for _, c := range []struct {
		name string
		path string
		ok   bool
	}{
		{"same", write("same", 5.1, 7000001, 0), true},
		{"slower", write("slower", 7, 7000001, 0), false},
		{"other count", write("count", 5, 7000002, 0), false},
		{"failing", write("failing", 5, 7000001, 1), false},
	} {
		var out bytes.Buffer
		if err := compareFiles(&out, base, c.path); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %t\n%s", c.name, err, c.ok, out.String())
		}
	}
}
