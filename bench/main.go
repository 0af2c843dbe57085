// Command bench is the repository's benchmark: five workloads, each run
// in its own process, reporting the end-to-end numbers a user of the
// system sees (-trace 0) or, from a second instrumented pass, where each
// layer spent the time (-trace 1). README.md has the definitions.
//
//	go run -C bench . -workload flood1m -seed 1 -seconds 10 -trace 0
//	go run -C bench .                      # every workload, both passes
//	go run -C bench . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// runOpts are the arguments of one workload run.
type runOpts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	small    bool // smoke-test sizes
}

// scale turns a repetition count sized for -seconds 10 into the count
// for this run. Work per repetition never changes with -seconds; only
// how often it repeats.
func (o runOpts) scale(base int) int {
	return max(1, (base*o.seconds+5)/10)
}

// result is what a workload hands back: correctness, the end-to-end or
// per-layer numbers it measured, and a fingerprint of everything
// simulated (equal for equal workload, seed and seconds).
type result struct {
	setupS            float64
	attempted, failed int
	problems          []string
	notes             []string
	fingerprint       string
	values            map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// medianSetup times a workload's set-up `times` times and returns the
// median; the last build is the one the run uses. discard releases the
// previous build so that two never coexist in memory.
func medianSetup(times int, rec *recorder, build func(parent int) error, discard func()) (time.Duration, error) {
	var took []float64
	for i := 0; i < times; i++ {
		if i > 0 {
			discard()
			runtime.GC()
		}
		s := rec.begin("setup", -1, i, 0)
		err := build(s)
		took = append(took, float64(rec.end(s)))
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(median(took)), nil
}

var runners = map[string]func(runOpts, *recorder) (*result, error){
	"flood1m":    runFlood1M,
	"spy100k":    runSpy100K,
	"soak2k":     runSoak2K,
	"composed1k": runComposed1K,
	"live16":     runLive16,
}

// record is one line of a results file.
type record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       int                `json:"trace"`
	Host        hostInfo           `json:"host"`
	Network     string             `json:"network"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailShare   float64            `json:"fail_share"`
	Fingerprint string             `json:"fingerprint"`
	Notes       []string           `json:"notes"`
	Problems    []string           `json:"problems,omitempty"`
	Metrics     map[string]measure `json:"metrics"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsOf names the table a run reports: end-to-end untraced,
// per-layer traced.
func metricsOf(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// runWorkload runs one workload in this process and builds its record.
func runWorkload(o runOpts) (*record, *recorder, error) {
	run, ok := runners[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rec := newRecorder()
	res, err := run(o, rec)
	if err != nil {
		return nil, nil, err
	}
	if !o.trace {
		res.set("setup_s", res.setupS)
		res.set("alloc_mb", totalAllocMB())
		res.set("peak_rss_mb", peakRSSMB())
	}
	out := &record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: b2i(o.trace),
		Host: readHost(), Network: "simulated (virtual time)",
		Attempted: res.attempted, Failed: res.failed,
		Fingerprint: res.fingerprint, Notes: res.notes,
		Metrics: map[string]measure{},
	}
	if o.workload == "live16" {
		out.Network = "loopback TCP"
	}
	if res.attempted > 0 {
		out.FailShare = float64(res.failed) / float64(res.attempted)
	}
	for _, d := range metricsOf(out.Trace) {
		v, ok := res.values[d.Name]
		if !ok && !o.trace {
			res.fail("workload reported no %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("%s is %v", d.Name, v)
			v = 0
		}
		out.Metrics[d.Name] = measure{v, d.Unit}
		delete(res.values, d.Name)
	}
	for name := range res.values {
		res.fail("workload reported %s, which the metric tables do not define", name)
	}
	out.Problems = res.problems
	out.Correct = len(res.problems) == 0 && res.failed == 0 && res.attempted > 0
	return out, rec, nil
}

// report prints every metric by name with its unit, then the one JSON
// line the driver reads.
func report(w io.Writer, r *record) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %d — %s\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Network)
	h := r.Host
	fmt.Fprintf(w, "host GOMAXPROCS=%d NumCPU=%d cpu=%q %s %s commit=%s\n", h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GoVersion, h.OSArch, h.Commit)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note", n)
	}
	for _, d := range metricsOf(r.Trace) {
		fmt.Fprintf(w, "%-34s %s %s\n", d.Name, strconv.FormatFloat(r.Metrics[d.Name].Value, 'g', -1, 64), d.Unit)
	}
	fmt.Fprintf(w, "%-34s %g fraction (failed %d of %d attempted)\n", "fail_share", r.FailShare, r.Failed, r.Attempted)
	fmt.Fprintf(w, "fingerprint %s\n", r.Fingerprint)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	last, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// appendRecord adds the record as one line of the results file.
func appendRecord(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, untraced then traced, each in a fresh
// child process so that set-up time, allocation and peak memory are per
// workload, one after another so they never compete for the host.
func runAll(seed uint64, runs, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed+uint64(r)),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					failed = append(failed, fmt.Sprintf("%s seed %d trace %d: %v", w.Name, seed+uint64(r), trace, err))
				}
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload to run; empty runs all, each in a child process")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "measuring time the warm repetitions are sized for")
	trace := flag.Int("trace", 0, "1 adds the instrumented pass and reports per-layer metrics")
	out := flag.String("out", filepath.Join("out", "results.jsonl"), "results file to append to")
	runs := flag.Int("runs", 1, "without -workload: complete sets to run, on seeds seed, seed+1, …")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.jsonl b.jsonl")
	flag.Parse()

	// Pinned so numbers from hosts with more cores stay comparable with
	// the 2-vCPU reference; the host block records it.
	runtime.GOMAXPROCS(2)

	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two results files")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		case *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 1:
			return fmt.Errorf("need -seconds ≥ 1, -trace 0 or 1, -runs ≥ 1")
		case *workload == "":
			return runAll(*seed, *runs, *seconds, *out)
		}
		o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
		r, rec, err := runWorkload(o)
		if err != nil {
			return err
		}
		if o.trace {
			path := filepath.Join(filepath.Dir(*out), fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			if err := rec.writeChromeTrace(path); err != nil {
				return err
			}
			r.Notes = append(r.Notes, "spans written to "+path, "self time by span: "+rec.selfTimeTable())
		}
		if err := appendRecord(*out, r); err != nil {
			return err
		}
		if err := report(os.Stdout, r); err != nil {
			return err
		}
		if !r.Correct {
			return fmt.Errorf("%s: outputs incorrect: %d of %d failed, %d checks broken", r.Workload, r.Failed, r.Attempted, len(r.Problems))
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
