package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// readRecords loads a results file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}

// worseBy is how far b is on the wrong side of a, as a share of a.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// verdict applies the rule of the choosing-metrics guide (§6.5): b's
// median may not be worse than a's by more than the bound; where either
// side's own spread is wider than the bound the row is unresolved, not
// ok, unless every run of b beats every run of a.
func verdict(d metricDef, a, b []float64) (status string, delta, spread float64) {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	delta = worseBy(d, a2, b2)
	spread = math.Max((a3-a1)/math.Abs(a2), (b3-b1)/math.Abs(b2))
	switch {
	case delta > d.Bound:
		return "regressed", delta, spread
	case spread > d.Bound:
		worstB, bestA := slices.Max(b), slices.Min(a)
		if d.Better == "higher" {
			worstB, bestA = slices.Min(b), slices.Max(a)
		}
		if worseBy(d, bestA, worstB) < 0 {
			return "ok", delta, spread
		}
		return "unresolved", delta, spread
	}
	return "ok", delta, spread
}

// compareFiles prints one row per (workload, metric): end-to-end metrics
// against their bounds over all runs of each file, exact per-layer
// metrics for equality run by run (same workload, seed and seconds). It
// fails on a regression, a changed exact value or a raised fail share.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	values := func(recs []record, workload string, trace int, metric string) (v []float64) {
		for _, r := range recs {
			if r.Workload == workload && r.Trace == trace {
				v = append(v, r.Metrics[metric].Value)
			}
		}
		return v
	}
	failShare := func(recs []record, workload string) (failed, attempted int) {
		for _, r := range recs {
			if r.Workload == workload {
				failed, attempted = failed+r.Failed, attempted+r.Attempted
			}
		}
		return failed, attempted
	}
	for _, side := range [][]record{a, b} {
		h := side[0].Host
		fmt.Fprintf(w, "host GOMAXPROCS=%d NumCPU=%d cpu=%q %s commit=%s (%d runs)\n", h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GoVersion, h.Commit, len(side))
	}
	bad := 0
	fmt.Fprintf(w, "%-11s %-22s %12s %12s %12s | %12s %12s %12s | %8s %6s %7s %s\n",
		"workload", "metric", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "worse", "bound", "spread", "status")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.Name, 0, d.Name), values(b, wl.Name, 0, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			status, delta, spread := verdict(d, va, vb)
			if status == "regressed" {
				bad++
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-11s %-22s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %+7.1f%% %5.0f%% %6.1f%% %s\n",
				wl.Name, d.Name, a1, a2, a3, b1, b2, b3, delta*100, d.Bound*100, spread*100, status)
		}
		fa, na := failShare(a, wl.Name)
		fb, nb := failShare(b, wl.Name)
		if na > 0 && nb > 0 {
			status := "ok"
			if float64(fb)/float64(nb) > float64(fa)/float64(na) {
				status = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%-11s %-22s failed %d of %d | failed %d of %d | %s\n", wl.Name, "fail_share", fa, na, fb, nb, status)
		}
	}
	for _, wl := range workloads {
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			pairs, changed := 0, ""
			for _, ra := range a {
				for _, rb := range b {
					if ra.Trace != 1 || rb.Trace != 1 || ra.Workload != wl.Name || rb.Workload != wl.Name || ra.Seed != rb.Seed || ra.Seconds != rb.Seconds {
						continue
					}
					pairs++
					if x, y := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value; x != y && changed == "" {
						changed = fmt.Sprintf("seed %d: %v → %v", ra.Seed, x, y)
					}
				}
			}
			switch {
			case pairs == 0:
			case changed != "":
				bad++
				fmt.Fprintf(w, "%-11s %-28s exact over %d run pairs: changed (%s)\n", wl.Name, d.Name, pairs, changed)
			default:
				fmt.Fprintf(w, "%-11s %-28s exact over %d run pairs: ok\n", wl.Name, d.Name, pairs)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or changed", bad)
	}
	return nil
}
