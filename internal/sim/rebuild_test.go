package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/topology"
	"repro/internal/wire"
)

// rebuildProbe floods one payload over net with a recording tap attached
// while a dozen nodes also send pings to the node half the ID space away
// — off the topology, so they grow the per-node overflow link lists, and
// three per link, so its FIFO clamp is exercised. It returns the
// fingerprint and the tap.
func rebuildProbe(t *testing.T, net *Network) (runFingerprint, *recTap) {
	t.Helper()
	rec := &recTap{}
	net.AddTap(rec)
	net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
	net.Start()
	n := proto.NodeID(net.Topology().N())
	for i := proto.NodeID(0); i < 12; i++ {
		from, to := i*17%n, (i*17+n/2)%n
		for j := range 3 {
			at := time.Duration(int(i)+j) * 7 * time.Millisecond
			net.At(at, from, func() { net.nodes[from].Send(to, &pingMsg{Hop: uint32(j)}) })
		}
	}
	id, err := net.Originate(3, []byte("rebuild probe"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	fp := runFingerprint{
		totalMsgs:  net.TotalMessages(),
		totalBytes: net.TotalBytes(),
		typeMsgs:   net.MessagesOfType(flood.TypeData),
		typeBytes:  net.BytesOfType(flood.TypeData),
		steps:      net.Steps(),
		delivered:  net.Delivered(id),
	}
	for _, at := range net.Deliveries(id).All() {
		fp.times = append(fp.times, at)
	}
	return fp, rec
}

// probeOffTopology counts the directed links outside g that rebuildProbe
// sends on: its pings between nodes g does not link.
func probeOffTopology(g *topology.Graph) int {
	n := proto.NodeID(g.N())
	links := map[[2]proto.NodeID]bool{}
	for i := proto.NodeID(0); i < 12; i++ {
		from, to := i*17%n, (i*17+n/2)%n
		if !g.HasEdge(from, to) {
			links[[2]proto.NodeID{from, to}] = true
		}
	}
	return len(links)
}

// tableLinks counts the entries of every shard's off-topology link table.
func tableLinks(net *Network) int {
	total := 0
	for _, sh := range net.shards {
		total += len(sh.links)
	}
	return total
}

// noStaleLinks fails unless no node heads a chain of off-topology links
// and every shard's link table is empty: a send on such a link after
// what rewound the network starts a new FIFO.
func noStaleLinks(t *testing.T, after string, net *Network) {
	t.Helper()
	for i := range net.cold {
		if net.cold[i].link != 0 {
			t.Fatalf("after %s node %d still resolves off-topology link entry %d", after, i, net.cold[i].link-1)
		}
	}
	if got := tableLinks(net); got != 0 {
		t.Fatalf("after %s the link tables hold %d entries, want 0", after, got)
	}
}

// TestRebuildEqualsFresh holds the contract simulate.Trial builds on: a
// network that ran on graph A — tapped, with off-topology sends and a
// crash left behind — and is then rebuilt onto graph B replays exactly
// like NewNetwork(B): counters, the delivery record and the whole tap
// stream, hence every link's order. B has more links than A, so the
// rebuild grows the link arrays; rebuilding back onto A shrinks them.
// Both at one and two shards, on a clean and a shaped profile. After a
// Reset or a Rebuild no node resolves an off-topology link of an earlier
// run, and after each run the shards' link tables hold exactly that
// run's off-topology links, not the union over runs; a rebuild of the
// same size allocates nothing.
func TestRebuildEqualsFresh(t *testing.T) {
	rng := testBenchRNG()
	a, err := topology.RandomRegular(203, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topology.RandomRegular(203, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	codec := wire.NewCodec()
	flood.RegisterMessages(codec)
	profiles := []struct {
		name string
		opts Options
	}{
		{"clean", Options{Latency: ConstLatency(50 * time.Millisecond)}},
		{"shaped", Options{Netem: &jitterLoss}},
	}
	for _, p := range profiles {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", p.name, shards), func(t *testing.T) {
				opts := p.opts
				opts.Shards, opts.Codec = shards, codec
				fresh := func(g *topology.Graph, seed uint64) (runFingerprint, []recEvent) {
					opts := opts
					opts.Seed = seed
					net := NewNetwork(g, opts)
					if net.ShardCount() != shards {
						t.Fatalf("%d shards resolved, want %d", net.ShardCount(), shards)
					}
					fp, rec := rebuildProbe(t, net)
					return fp, rec.events
				}
				wantB, wantBStream := fresh(b, 42)
				wantA, wantAStream := fresh(a, 43)

				opts.Seed = 7
				net := NewNetwork(a, opts)
				_, dirty := rebuildProbe(t, net)
				net.Crash(5)
				seen := len(dirty.events)
				for _, step := range []struct {
					name       string
					g          *topology.Graph
					seed       uint64
					want       runFingerprint
					wantStream []recEvent
				}{
					{"A→B", b, 42, wantB, wantBStream},
					{"B→A", a, 43, wantA, wantAStream},
					{"A→B after Reset", b, 42, wantB, wantBStream},
				} {
					if step.name == "A→B after Reset" {
						net.Reset(99)
						noStaleLinks(t, "Reset", net)
					}
					net.Rebuild(step.g, step.seed)
					if len(net.taps) != 0 || len(net.watched) != 0 {
						t.Fatalf("%s: Rebuild kept %d taps, %d watched nodes", step.name, len(net.taps), len(net.watched))
					}
					noStaleLinks(t, step.name, net)
					got, rec := rebuildProbe(t, net)
					compareFingerprints(t, step.name, step.want, got)
					compareStreams(t, step.name, step.wantStream, rec.events)
					if got, want := tableLinks(net), probeOffTopology(step.g); got != want {
						t.Errorf("%s: the link tables hold %d entries after the run, which opened %d off-topology links", step.name, got, want)
					}
				}
				if len(dirty.events) != seen {
					t.Errorf("the tap of the run before the rebuilds saw %d more events", len(dirty.events)-seen)
				}

				if avg := testing.AllocsPerRun(20, func() { net.Rebuild(b, 42) }); avg != 0 {
					t.Errorf("a same-size Rebuild allocates %.1f times, want 0", avg)
				}
			})
		}
	}
}
