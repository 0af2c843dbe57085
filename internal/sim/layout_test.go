package sim

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/topology"
)

// TestNodeLayout pins the line budget of a delivery (DESIGN §2, "What a
// delivery touches"): the hot cell is a power of two no larger than a
// cache line, so no cell straddles two; hot and cold together cost no
// more than the 128-byte node they replaced; and neither a delivery nor
// a topology send reaches the cold array — a flood, which draws no
// randomness, sets no timer and sends only along edges, runs to
// completion with the cold array taken away, where any cold() would
// index out of range.
func TestNodeLayout(t *testing.T) {
	hot, cold := unsafe.Sizeof(simNode{}), unsafe.Sizeof(nodeCold{})
	if hot > 64 || hot&(hot-1) != 0 {
		t.Errorf("simNode is %d bytes; want a power of two ≤ 64", hot)
	}
	if hot+cold > 128 {
		t.Errorf("simNode + nodeCold = %d + %d bytes; want ≤ 128", hot, cold)
	}
	const n, degree = 500, 8
	for _, shards := range []int{1, 4} {
		f := newQueueFlood(t, n, Options{Latency: ConstLatency(50 * time.Millisecond), Shards: shards})
		f.start(t, 1)
		f.net.cold = nil
		f.net.Run(0)
		if got, want := f.net.TotalMessages(), int64(n*degree-(n-1)); got != want {
			t.Errorf("shards=%d: flood without the cold array sent %d messages, want %d", shards, got, want)
		}
	}
}

// crossTap counts the sends whose endpoints topology.ShardOf places in
// different shards of an n-node, k-shard partition.
type crossTap struct {
	nopTap
	n, k  int
	cross uint64
}

func (c *crossTap) OnSend(_ time.Duration, from, to proto.NodeID, _ proto.Message) {
	if topology.ShardOf(from, c.n, c.k) != topology.ShardOf(to, c.n, c.k) {
		c.cross++
	}
}

// TestShardLookup holds the arithmetic shard lookup of Network.send to
// the table it replaced: from any sender's shard, shardOf(to) is the
// shard resolveShards assigned to node to — over even and uneven splits
// and k up to and past N — and a flood hands off exactly the sends whose
// endpoints topology.ShardOf places apart.
func TestShardLookup(t *testing.T) {
	for _, n := range []int{1, 2, 7, 1000, 1001, 4097} {
		for k := 1; k <= 8; k++ {
			net := NewNetwork(topology.NewGraph(n), Options{Latency: ConstLatency(50 * time.Millisecond), Shards: k})
			want := k
			if k > n {
				want = 1 // more shards than nodes clamps to the single loop
			}
			if net.ShardCount() != want {
				t.Fatalf("N=%d k=%d: resolved %d shards, want %d", n, k, net.ShardCount(), want)
			}
			for _, sh := range net.shards {
				for to := range net.nodes {
					if got, want := net.shardOf(sh, proto.NodeID(to)), net.nodes[to].shard; got != want {
						t.Fatalf("N=%d k=%d: from shard %d, shardOf(%d) = shard %d, table says %d",
							n, k, sh.index, to, got.index, want.index)
					}
				}
			}
		}
	}

	g := shardTestGraph(t)
	for _, k := range []int{2, 4, 7} {
		net := NewNetwork(g, Options{Seed: 42, Latency: ConstLatency(50 * time.Millisecond), Shards: k})
		tap := &crossTap{n: g.N(), k: k}
		net.AddTap(tap)
		net.SetHandlers(func(proto.NodeID) proto.Handler { return flood.New() })
		net.Start()
		if _, err := net.Originate(3, []byte("handoff probe")); err != nil {
			t.Fatal(err)
		}
		net.Run(0)
		var handoffs uint64
		for _, st := range net.ShardStats() {
			handoffs += st.Handoffs
		}
		if handoffs != tap.cross || handoffs == 0 {
			t.Errorf("k=%d: %d handoffs, %d sends cross a shard boundary", k, handoffs, tap.cross)
		}
	}
}
