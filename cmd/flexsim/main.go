// Command flexsim regenerates the paper's evaluation artifacts. Each
// experiment (e1…e17, see DESIGN.md §3) prints a table; `all` runs the
// full suite — `flexsim -md all` produces the Markdown form of the
// tables README.md and DESIGN.md §3 quote.
//
// Trials execute over a worker pool (-par, default GOMAXPROCS); tables
// are bit-identical at every parallelism. Network-scale experiments
// (e1, e3–e5, e9, e10, e14–e17, a2) honor -n/-degree overlay
// overrides, and -netem replaces an experiment's declared network
// conditions with a named internal/netem preset or spec (latency
// distribution, jitter, loss, churn). Every preset shards.
//
// -shards additionally splits each trial's event loop across K
// conservatively synchronized shards on every experiment that simulates
// a network (all but e8) and on soak; tables stay bit-identical at any
// shard count. When -par is left at its default, the cores split
// between the two axes: par = max(1, GOMAXPROCS/shards). -v prints
// each trial network's resolved shard count and, on e1 and e14,
// per-shard event counts, lookahead stalls and event-queue moves per
// event; -cpuprofile/-memprofile/-trace capture pprof/trace artifacts
// of the whole run.
//
// Usage:
//
//	flexsim [-quick] [-md] [-csv] [-n N] [-degree D] [-trials T] [-par P]
//	        [-shards K] [-v] [-netem PROFILE] [-rate SPEC] [-duration D] [-users U]
//	        [-cpuprofile F] [-memprofile F] [-trace F] <experiment|all|list|soak>
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "fewer trials (CI mode); published numbers use full mode")
	md := flag.Bool("md", false, "render GitHub Markdown")
	csv := flag.Bool("csv", false, "render CSV")
	n := flag.Int("n", 0, "override overlay size on network-scale experiments (0: paper default)")
	degree := flag.Int("degree", 0, "override overlay degree (0: paper default)")
	trials := flag.Int("trials", 0, "override trial count (0: mode default)")
	par := flag.Int("par", 0, "trial worker-pool size (0: GOMAXPROCS split across -shards, 1: sequential)")
	shards := flag.Int("shards", 0, "per-trial event-loop shards (0/1: single loop) on every simulated network, soak included")
	verbose := flag.Bool("v", false, "print each trial network's resolved shard layout (and per-shard event counts, stalls and queue cost on e1/e14) to stderr")
	netemSpec := flag.String("netem", "", "network-condition profile override: preset or spec, e.g. wan, lossy, \"lat=20ms,jitter=10ms,loss=0.05\" (every preset runs under -shards)")
	rateSpec := flag.String("rate", "100", "soak target: workload rate spec, e.g. \"400\", \"400,resub=0.1,zipf=1.2\", \"trace:10ms/30ms\"")
	soakDur := flag.Duration("duration", 5*time.Second, "soak target: injection window (virtual time)")
	users := flag.Int("users", 0, "soak target: simulated user population override (0: spec default)")
	soakSeed := flag.Uint64("seed", 1, "soak target: run seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	exps := experiments.All()
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flexsim [-quick] [-md] [-csv] [-n N] [-degree D] [-trials T] [-par P] [-shards K] [-v] [-netem PROFILE] [-cpuprofile F] [-memprofile F] [-trace F] <experiment|all|list|soak>\n\nexperiments:\n  soak [-rate SPEC] [-duration D] [-users U]: sustained-workload soak run\n")
		for _, e := range exps {
			fmt.Fprintf(os.Stderr, "  %-4s %s\n", e.ID, e.Title)
		}
		fmt.Fprintf(os.Stderr, "\nnetem presets: %s\n", netem.PresetNames(", "))
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	sc := experiments.Scenario{Quick: *quick, N: *n, Degree: *degree, Trials: *trials, Par: *par, Shards: *shards, Verbose: *verbose}
	if sc.Par == 0 && sc.Shards > 1 {
		// Split the cores between the two parallelism axes: K shard
		// goroutines per trial leave GOMAXPROCS/K slots for concurrent
		// trials.
		sc.Par = runtime.GOMAXPROCS(0) / sc.Shards
		if sc.Par < 1 {
			sc.Par = 1
		}
	}
	if *netemSpec != "" {
		p, err := netem.ParseProfile(*netemSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -netem profile: %v\n", err)
			return 2
		}
		sc.Netem = &p
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-trace: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "-trace: %v\n", err)
			return 2
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
		}()
	}

	render := func(t *metrics.Table) {
		switch {
		case *md:
			fmt.Println(t.RenderMarkdown())
		case *csv:
			fmt.Print(t.RenderCSV())
		default:
			fmt.Println(t.Render())
		}
	}

	switch arg := flag.Arg(0); arg {
	case "soak":
		spec, err := workload.ParseRateSpec(*rateSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -rate spec: %v\n", err)
			return 2
		}
		if *users > 0 {
			spec.Users = *users
		}
		cfg := workload.SoakConfig{
			Spec:      spec,
			Duration:  *soakDur,
			N:         sc.N,
			Degree:    sc.Degree,
			Seed:      *soakSeed,
			Netem:     sc.Netem,
			Shards:    sc.Shards,
			Admission: workload.AdmissionConfig{QueueCap: 128, Policy: workload.DropOldest},
		}
		res := workload.Soak(cfg)
		t := metrics.NewTable(
			fmt.Sprintf("Soak — %s over %v (seed %d)", spec.String(), *soakDur, *soakSeed),
			"offered", "unique", "launched", "coverage", "tx/s", "msgs/node/s",
			"p50", "p95", "p99", "peakQ", "dropped", "deduped", "heapMB", "steps", "wall",
		)
		t.AddRow(res.Offered, res.Unique, res.Launched, res.Coverage,
			res.TxPerSec, res.MsgsPerNodePerSec,
			res.P50().Round(time.Millisecond).String(), res.P95().Round(time.Millisecond).String(), res.P99().Round(time.Millisecond).String(),
			res.Admission.PeakQueueDepth, res.Admission.Dropped, res.Admission.Deduped,
			float64(res.HeapBytes)/(1<<20), res.Steps, res.Wall.Round(time.Millisecond).String())
		t.AddNote("dense flood stack; admission cap 128 drop-oldest; latency quantiles include queueing (virtual time)")
		render(t)
	case "list":
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case "all":
		for _, e := range exps {
			start := time.Now()
			fmt.Fprintf(os.Stderr, "running %s: %s…\n", e.ID, e.Title)
			render(e.Run(sc))
			fmt.Fprintf(os.Stderr, "%s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	default:
		e := experiments.Find(arg)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", arg)
			flag.Usage()
			return 2
		}
		render(e.Run(sc))
	}
	return 0
}
