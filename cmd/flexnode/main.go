// Command flexnode runs one real blockchain node over TCP with
// privacy-preserving transaction broadcast (three-phase protocol) and a
// toy proof-of-work miner.
//
// A four-node local cluster with nodes 0–3 forming one DC-net group:
//
//	flexnode -id 0 -listen 127.0.0.1:7000 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003 -neighbors 1,2,3 -group 0,1,2,3 -mine
//	flexnode -id 1 -listen 127.0.0.1:7001 -peers ...same... -neighbors 0,2,3 -group 0,1,2,3 -send "hello world" -fee 25
//	…
//
// Every -group node derives deterministic demo identities; production
// deployments would exchange real keys.
//
// -parity boots an entire in-process cluster instead, runs the selected
// protocol variant under both the simulator and the real transport with
// the same seed and topology, and prints the differential table in the
// cmd/flexsim format:
//
//	flexnode -parity                                     # composed, 64 nodes, in-memory
//	flexnode -parity -variant flood -n 128 -transport tcp
//	flexnode -parity -variant flood -netem "lat=15ms,jitter=10ms,loss=0.03"
//	flexnode -parity -netem "lat=10ms,jitter=5ms,loss=0.05"
//
// With -netem, both runs are shaped by the same seeded profile: counts
// stay exactness-checked and the delivery-time distributions are
// compared under a quantile tolerance; a lossy one mounts the stack's
// loss tolerance on both. It exits nonzero when the tables diverge.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/flexnet"
	"repro/internal/netem"
	"repro/internal/parity"
	"repro/internal/stack"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flexnode:", err)
		os.Exit(1)
	}
}

// runParity executes one differential run and prints the report.
func runParity(variant, transport, netemSpec string, n int, seed uint64) error {
	sc := parity.Scenario{N: n, Seed: seed}
	if netemSpec != "" {
		p, err := netem.ParseProfile(netemSpec)
		if err != nil {
			return err
		}
		sc.Netem = &p
		sc.DistTolerance = 1.0
	}
	kind, err := stack.ParseKind(variant)
	if err != nil {
		return fmt.Errorf("-variant: %w", err)
	}
	sc.Variant = kind
	switch transport {
	case "", "mem":
		sc.Transport = parity.TransportMem
	case "tcp":
		sc.Transport = parity.TransportTCP
	default:
		return fmt.Errorf("unknown -transport %q (mem|tcp)", transport)
	}
	rep, err := parity.Run(sc)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if !rep.OK {
		return fmt.Errorf("%d divergence(s) between simulator and transport", len(rep.Divergences))
	}
	return nil
}

func run() error {
	parityMode := flag.Bool("parity", false, "run the sim-vs-transport differential harness instead of a node")
	variant := flag.String("variant", stack.Composed.String(), "parity protocol variant: "+strings.Join(stack.KindNames(), "|"))
	transportKind := flag.String("transport", "mem", "parity substrate: mem|tcp")
	netemSpec := flag.String("netem", "", "parity netem profile: preset or spec (shaped run; implies delivery-distribution check)")
	clusterN := flag.Int("n", 0, "parity cluster size (0: variant default)")
	seed := flag.Uint64("seed", 0, "parity scenario seed (0: default)")
	id := flag.Int("id", 0, "node ID")
	listen := flag.String("listen", "127.0.0.1:7000", "listen address")
	peers := flag.String("peers", "", "comma-separated id=addr address book")
	neighbors := flag.String("neighbors", "", "comma-separated overlay neighbor IDs")
	groupFlag := flag.String("group", "", "comma-separated DC-net group IDs (including self)")
	k := flag.Int("k", 4, "soak: the DC-net group is k+1 nodes (at most -n)")
	d := flag.Int("d", 3, "adaptive diffusion rounds")
	mine := flag.Bool("mine", false, "run the toy PoW miner")
	difficulty := flag.Int("difficulty", 16, "PoW difficulty bits")
	send := flag.String("send", "", "payload to broadcast anonymously after startup")
	fee := flag.Uint64("fee", 10, "fee for -send")
	interval := flag.Duration("dc-interval", 2*time.Second, "DC-net round interval")
	soakMode := flag.Bool("soak", false, "boot an in-process TCP cluster and drive a sustained workload through it instead of running one node")
	rateSpec := flag.String("rate", "10", "soak: workload rate spec (e.g. \"25\", \"25,resub=0.1\")")
	soakDur := flag.Duration("duration", 2*time.Second, "soak: injection window (wall clock)")
	flag.Parse()

	if *parityMode {
		return runParity(*variant, *transportKind, *netemSpec, *clusterN, *seed)
	}
	if *soakMode {
		return runSoak(*rateSpec, *soakDur, *clusterN, *k, *d, *interval, *seed)
	}

	addrBook, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	nbs, err := parseIDs(*neighbors)
	if err != nil {
		return fmt.Errorf("parsing -neighbors: %w", err)
	}
	grp, err := parseIDs(*groupFlag)
	if err != nil {
		return fmt.Errorf("parsing -group: %w", err)
	}
	seeds := make(map[int32][32]byte, len(grp))
	for _, m := range grp {
		seeds[m] = demoSeed(m)
	}

	node, err := flexnet.StartNode(flexnet.NodeConfig{
		ID:             int32(*id),
		Listen:         *listen,
		AddrBook:       addrBook,
		Neighbors:      nbs,
		Group:          grp,
		IdentitySeeds:  seeds,
		D:              *d,
		DCInterval:     *interval,
		Mine:           *mine,
		DifficultyBits: *difficulty,
		Seed:           uint64(*id)*2654435761 + 1,
		OnBlock: func(height uint64, txs int, miner int32) {
			fmt.Printf("[node %d] block height=%d txs=%d miner=%d\n", *id, height, txs, miner)
		},
		OnTx: func(txid [16]byte, fee uint64, payload []byte) {
			fmt.Printf("[node %d] anonymous tx %x fee=%d payload=%q\n", *id, txid[:4], fee, payload)
		},
	})
	if err != nil {
		return err
	}
	defer func() { _ = node.Close() }()
	fmt.Printf("[node %d] listening on %s\n", *id, node.Addr())

	if *send != "" {
		// Give the cluster a moment to come up, then submit.
		time.Sleep(2 * *interval)
		if err := node.SubmitTx([]byte(*send), *fee); err != nil {
			return fmt.Errorf("submitting tx: %w", err)
		}
		fmt.Printf("[node %d] submitted %q anonymously\n", *id, *send)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Printf("[node %d] shutting down\n", *id)
			return nil
		case <-ticker.C:
			fmt.Printf("[node %d] height=%d mempool=%d\n", *id, node.ChainHeight(), node.MempoolSize())
		}
	}
}

func parsePeers(s string) (map[int32]string, error) {
	out := make(map[int32]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad peer entry %q (want id=addr)", part)
		}
		v, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", id, err)
		}
		out[int32(v)] = strings.TrimSpace(addr)
	}
	return out, nil
}

func parseIDs(s string) ([]int32, error) {
	if s == "" {
		return nil, nil
	}
	var out []int32
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad id %q: %w", part, err)
		}
		out = append(out, int32(v))
	}
	return out, nil
}

// runSoak boots an in-process TCP cluster with the admission layer
// mounted and streams a sustained workload through it, printing the
// throughput/latency report.
func runSoak(rateSpec string, duration time.Duration, n, k, d int, interval time.Duration, seed uint64) error {
	spec, err := workload.ParseRateSpec(rateSpec)
	if err != nil {
		return err
	}
	if n == 0 {
		n = 8
	}
	if seed == 0 {
		seed = 1
	}
	if interval > 500*time.Millisecond {
		interval = 300 * time.Millisecond // soak wants short DC rounds
	}
	fmt.Printf("soak: %d-node TCP cluster, %s over %v…\n", n, spec.String(), duration)
	rep, err := flexnet.SoakCluster(flexnet.ClusterSoakConfig{
		N:          n,
		GroupSize:  min(k+1, n),
		D:          d,
		DCInterval: interval,
		Spec:       spec,
		Duration:   duration,
		Drain:      45 * time.Second,
		Seed:       seed,
		Admission:  &workload.AdmissionConfig{QueueCap: 128, Policy: workload.DropOldest},
		OnProgress: func(line string) { fmt.Println("  " + line) },
	})
	if err != nil {
		return err
	}
	fmt.Printf("submitted %d (%d unique), delivered %d/%d (coverage %.3f) in %v\n",
		rep.Submitted, rep.Unique, rep.Delivered, rep.Unique*n, rep.Coverage, rep.Wall.Round(time.Millisecond))
	fmt.Printf("throughput %.1f tx/s, %.1f msgs/node/s (%d frames)\n",
		rep.TxPerSec, rep.MsgsPerNodePerSec, rep.Frames)
	fmt.Printf("latency p50 %v  p95 %v  p99 %v\n",
		rep.P50().Round(time.Millisecond), rep.P95().Round(time.Millisecond), rep.P99().Round(time.Millisecond))
	fmt.Printf("admission: admitted %d, deduped %d, dropped %d, peak queue %d\n",
		rep.Admission.Admitted, rep.Admission.Deduped, rep.Admission.Dropped, rep.Admission.PeakQueueDepth)
	return nil
}

// demoSeed derives a deterministic identity seed for demo clusters.
func demoSeed(id int32) [32]byte {
	var s [32]byte
	binary.LittleEndian.PutUint32(s[:], uint32(id))
	copy(s[4:], "flexnode-demo-identity-seed")
	return s
}
