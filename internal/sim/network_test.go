package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/topology"
	"repro/internal/wire"
)

// pingMsg is a trivial test message.
type pingMsg struct{ Hop uint32 }

const pingType = proto.MsgType(0x7f10)

func (*pingMsg) Type() proto.MsgType       { return pingType }
func (m *pingMsg) EncodeTo(w *wire.Writer) { w.U32(m.Hop) }
func (m *pingMsg) DecodeFrom(r *wire.Reader) error {
	m.Hop = r.U32()
	return r.Err()
}

// relayHandler forwards pings along the line until the last node, then
// delivers locally.
type relayHandler struct {
	deliveredAt time.Duration
	gotFrom     proto.NodeID
	timerFired  bool
}

func (h *relayHandler) Init(proto.Context) {}

func (h *relayHandler) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	ping, ok := msg.(*pingMsg)
	if !ok {
		return
	}
	h.gotFrom = from
	next := ctx.Self() + 1
	forwarded := false
	for _, nb := range ctx.Neighbors() {
		if nb == next {
			ctx.Send(nb, &pingMsg{Hop: ping.Hop + 1})
			forwarded = true
		}
	}
	if !forwarded { // last node on the line
		h.deliveredAt = ctx.Now()
		ctx.DeliverLocal(proto.NewMsgID([]byte("ping")), []byte("ping"))
	}
}

func (h *relayHandler) HandleTimer(ctx proto.Context, payload any) { h.timerFired = true }

func lineNetwork(t *testing.T, n int, opts Options) (*Network, []*relayHandler) {
	t.Helper()
	g, err := topology.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, opts)
	handlers := make([]*relayHandler, n)
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		handlers[id] = &relayHandler{}
		return handlers[id]
	})
	net.Start()
	return net, handlers
}

func TestNetworkRelayAndLatency(t *testing.T) {
	net, handlers := lineNetwork(t, 5, Options{Seed: 1, Latency: ConstLatency(10 * time.Millisecond)})
	// Kick off: node 0 sends to node 1.
	node0 := &net.nodes[0]
	node0.Send(1, &pingMsg{Hop: 0})
	net.Run(0)

	last := handlers[4]
	if last.gotFrom != 3 {
		t.Errorf("last node got message from %d, want 3", last.gotFrom)
	}
	// 4 hops x 10ms.
	if last.deliveredAt != 40*time.Millisecond {
		t.Errorf("delivered at %v, want 40ms", last.deliveredAt)
	}
	if net.TotalMessages() != 4 {
		t.Errorf("TotalMessages = %d, want 4", net.TotalMessages())
	}
	if net.MessagesOfType(pingType) != 4 {
		t.Errorf("MessagesOfType = %d, want 4", net.MessagesOfType(pingType))
	}
	id := proto.NewMsgID([]byte("ping"))
	if net.Delivered(id) != 1 {
		t.Errorf("Delivered = %d, want 1", net.Delivered(id))
	}
	if at, ok := net.DeliveryTime(id, 4); !ok || at != 40*time.Millisecond {
		t.Errorf("DeliveryTime = %v,%v", at, ok)
	}
}

func TestNetworkByteAccounting(t *testing.T) {
	codec := wire.NewCodec()
	codec.Register(pingType, func() wire.Encodable { return new(pingMsg) })
	net, _ := lineNetwork(t, 3, Options{Seed: 1, Codec: codec})
	net.nodes[0].Send(1, &pingMsg{})
	net.Run(0)
	// Each ping = 2 bytes type + 4 bytes hop = 6 bytes; 2 hops.
	if net.TotalBytes() != 12 {
		t.Errorf("TotalBytes = %d, want 12", net.TotalBytes())
	}
	if net.BytesOfType(pingType) != 12 {
		t.Errorf("BytesOfType = %d, want 12", net.BytesOfType(pingType))
	}
	net.ResetCounters()
	if net.TotalBytes() != 0 || net.TotalMessages() != 0 {
		t.Error("ResetCounters did not zero counters")
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() (int64, time.Duration) {
		net, handlers := lineNetwork(t, 10, Options{
			Seed:  42,
			Netem: &netem.Profile{Latency: netem.Uniform{Min: time.Millisecond, Hi: 20 * time.Millisecond}},
		})
		net.nodes[0].Send(1, &pingMsg{})
		net.Run(0)
		return net.TotalMessages(), handlers[9].deliveredAt
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Errorf("non-deterministic: (%d,%v) vs (%d,%v)", m1, t1, m2, t2)
	}
	if t1 == 0 {
		t.Error("message never arrived")
	}
}

func TestNetworkCrash(t *testing.T) {
	net, handlers := lineNetwork(t, 5, Options{Seed: 1})
	net.Crash(2)
	if !net.Crashed(2) {
		t.Error("Crashed(2) = false")
	}
	net.nodes[0].Send(1, &pingMsg{})
	net.Run(0)
	if handlers[4].deliveredAt != 0 {
		t.Error("message crossed a crashed node")
	}
	// Restore and resend: should flow now.
	net.Restore(2)
	net.nodes[0].Send(1, &pingMsg{})
	net.Run(0)
	if handlers[4].deliveredAt == 0 {
		t.Error("message did not flow after Restore")
	}
}

func TestNetworkLoss(t *testing.T) {
	// Loss 1: nothing is ever delivered (the shaper honours what
	// Validate rejects, see TestTapReceiveAfterDropDecision).
	net, handlers := lineNetwork(t, 3, Options{Seed: 1, Netem: &netem.Profile{Loss: 1}})
	net.nodes[0].Send(1, &pingMsg{})
	net.Run(0)
	if handlers[2].deliveredAt != 0 || net.NetemDropped() != 1 {
		t.Error("message delivered despite Loss=1")
	}
	if net.TotalMessages() != 1 {
		t.Errorf("TotalMessages = %d, want 1 (sends counted even when dropped)", net.TotalMessages())
	}
}

// fifoHandler records the Hop fields of pings in arrival order.
type fifoHandler struct{ got []uint32 }

func (h *fifoHandler) Init(proto.Context) {}
func (h *fifoHandler) HandleMessage(_ proto.Context, _ proto.NodeID, msg proto.Message) {
	if p, ok := msg.(*pingMsg); ok {
		h.got = append(h.got, p.Hop)
	}
}
func (h *fifoHandler) HandleTimer(proto.Context, any) {}

func TestNetworkPerLinkFIFO(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	// Highly variable latency would reorder without the FIFO clamp.
	net := NewNetwork(g, Options{Seed: 11, Netem: &netem.Profile{Latency: netem.Uniform{Min: time.Millisecond, Hi: 100 * time.Millisecond}}})
	receivers := make([]*fifoHandler, 2)
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		receivers[id] = &fifoHandler{}
		return receivers[id]
	})
	net.Start()
	for i := uint32(0); i < 50; i++ {
		net.nodes[0].Send(1, &pingMsg{Hop: i})
	}
	net.Run(0)
	if len(receivers[1].got) != 50 {
		t.Fatalf("received %d messages, want 50", len(receivers[1].got))
	}
	for i, v := range receivers[1].got {
		if v != uint32(i) {
			t.Fatalf("link reordered messages: %v", receivers[1].got)
		}
	}
}

func TestNodeTimers(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, Options{Seed: 1})
	handlers := make([]*relayHandler, 2)
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		handlers[id] = &relayHandler{}
		return handlers[id]
	})
	net.Start()

	node := &net.nodes[0]
	id := node.SetTimer(5*time.Millisecond, "x")
	node.CancelTimer(id)
	node.SetTimer(7*time.Millisecond, "y")
	net.Run(0)
	if !handlers[0].timerFired {
		t.Error("timer did not fire")
	}

	// Crashed node's timer must not fire.
	handlers[1].timerFired = false
	net.nodes[1].SetTimer(time.Millisecond, "z")
	net.Crash(1)
	net.Run(0)
	if handlers[1].timerFired {
		t.Error("crashed node's timer fired")
	}
}

type recordingTap struct {
	sends    int
	recvs    int
	delivers int
	sendAt   []time.Duration
	recvAt   []time.Duration
}

func (r *recordingTap) OnSend(at time.Duration, _, _ proto.NodeID, _ proto.Message) {
	r.sends++
	r.sendAt = append(r.sendAt, at)
}
func (r *recordingTap) OnReceive(at time.Duration, _, _ proto.NodeID, _ proto.Message) {
	r.recvs++
	r.recvAt = append(r.recvAt, at)
}
func (r *recordingTap) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte) {
	r.delivers++
}

func TestNetworkTaps(t *testing.T) {
	g, err := topology.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, Options{Seed: 1})
	tap := &recordingTap{}
	net.AddTap(tap)
	net.SetHandlers(func(proto.NodeID) proto.Handler { return &relayHandler{} })
	net.Start()
	net.nodes[0].Send(1, &pingMsg{})
	net.Run(0)
	if tap.sends != 3 {
		t.Errorf("tap sends = %d, want 3", tap.sends)
	}
	if tap.recvs != 3 {
		t.Errorf("tap receives = %d, want 3 (lossless network)", tap.recvs)
	}
	if tap.delivers != 1 {
		t.Errorf("tap delivers = %d, want 1", tap.delivers)
	}
}

// TestTapReceiveAfterDropDecision pins the observation-layer contract:
// OnSend fires for every send attempt, but OnReceive only fires for
// messages the shaper actually delivered. Under a 100%-loss profile a
// tap must see sends and zero receives — before the OnReceive hook
// existed, an observer built on OnSend "saw" all of these phantom
// messages.
func TestTapReceiveAfterDropDecision(t *testing.T) {
	g, err := topology.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	// Validate() rejects Loss ≥ 1 for experiment profiles, but the
	// shaper itself honours it: every decision word is below the
	// saturated threshold. That makes an always-drop link a one-line
	// fixture here.
	allLoss := netem.Profile{Name: "blackhole", Latency: netem.Const(10 * time.Millisecond), Loss: 1}
	net := NewNetwork(g, Options{Seed: 1, Netem: &allLoss})
	tap := &recordingTap{}
	net.AddTap(tap)
	net.SetHandlers(func(proto.NodeID) proto.Handler { return &relayHandler{} })
	net.Start()
	net.nodes[0].Send(1, &pingMsg{})
	net.Run(0)
	if tap.sends != 1 {
		t.Errorf("tap sends = %d, want 1", tap.sends)
	}
	if tap.recvs != 0 {
		t.Errorf("tap receives = %d, want 0 under 100%% loss", tap.recvs)
	}
	if got := net.NetemDropped(); got != 1 {
		t.Errorf("netem dropped = %d, want 1", got)
	}
}

// TestTapReceiveTimestampShaped pins the other half of the contract:
// OnReceive timestamps carry the shaped delay. Under constant latency L
// (no jitter, no queueing — the FIFO clamp is a no-op) every receive
// must land exactly at send+L.
func TestTapReceiveTimestampShaped(t *testing.T) {
	const L = 25 * time.Millisecond
	g, err := topology.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	constLat := netem.Profile{Name: "const", Latency: netem.Const(L)}
	net := NewNetwork(g, Options{Seed: 7, Netem: &constLat})
	tap := &recordingTap{}
	net.AddTap(tap)
	net.SetHandlers(func(proto.NodeID) proto.Handler { return &relayHandler{} })
	net.Start()
	net.nodes[0].Send(1, &pingMsg{})
	net.Run(0)
	if tap.recvs != 4 || tap.sends != 4 {
		t.Fatalf("sends/receives = %d/%d, want 4/4", tap.sends, tap.recvs)
	}
	for i, at := range tap.recvAt {
		if want := tap.sendAt[i] + L; at != want {
			t.Errorf("receive %d at %v, want send %v + %v = %v", i, at, tap.sendAt[i], L, want)
		}
	}
}

func TestOriginateRequiresBroadcaster(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, Options{Seed: 1})
	net.SetHandlers(func(proto.NodeID) proto.Handler { return &relayHandler{} })
	net.Start()
	if _, err := net.Originate(0, []byte("x")); err == nil {
		t.Error("Originate accepted a non-Broadcaster handler")
	}
}

func TestStartTwicePanics(t *testing.T) {
	g, err := topology.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(g, Options{Seed: 1})
	net.SetHandlers(func(proto.NodeID) proto.Handler { return &relayHandler{} })
	net.Start()
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	net.Start()
}

// burstHandler answers a ping of hop h > 0 with a burst of pings of hop
// h−1 (burst).
type burstHandler struct{ n int }

func (burstHandler) Init(proto.Context) {}

func (h burstHandler) HandleMessage(ctx proto.Context, _ proto.NodeID, msg proto.Message) {
	if ping, ok := msg.(*pingMsg); ok && ping.Hop > 0 {
		burst(ctx, h.n, ping.Hop-1)
	}
}

func (burstHandler) HandleTimer(proto.Context, any) {}

// burst sends pings of the given hop, two rounds in one instant, to the
// node's first two neighbours and to the node half the ID space away,
// which a random regular graph of low degree rarely links: several
// messages on each link, topology edge or not, in the same instant.
func burst(ctx proto.Context, n int, hop uint32) {
	nbrs := ctx.Neighbors()
	far := (ctx.Self() + proto.NodeID(n/2)) % proto.NodeID(n)
	for range 2 {
		for _, to := range []proto.NodeID{nbrs[0], far, nbrs[1]} {
			ctx.Send(to, &pingMsg{Hop: hop})
		}
	}
}

// timedMsg is one message a tap saw, with the time it saw it.
type timedMsg struct {
	at  time.Duration
	msg proto.Message
}

// linkOrderTap records, per directed link, the messages sent on it and
// the messages received from it, each in tap-stream order.
type linkOrderTap struct {
	sent, recv map[[2]proto.NodeID][]timedMsg
}

func (l *linkOrderTap) OnSend(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	k := [2]proto.NodeID{from, to}
	l.sent[k] = append(l.sent[k], timedMsg{at, msg})
}

func (l *linkOrderTap) OnReceive(at time.Duration, from, to proto.NodeID, msg proto.Message) {
	k := [2]proto.NodeID{from, to}
	l.recv[k] = append(l.recv[k], timedMsg{at, msg})
}

func (*linkOrderTap) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte) {}

// TestFixedDelayLinkOrder holds a constant-delay network, which keeps no
// per-link state, to the guarantee the shaped path's FIFO clamp gives:
// on every directed link, topology edge or not, messages arrive in the
// order they were sent, each exactly one delay after its send, also when
// a node sends several on one link in the same instant. At one and two
// shards.
func TestFixedDelayLinkOrder(t *testing.T) {
	const n, delay = 64, 10 * time.Millisecond
	g, err := topology.RandomRegular(n, 4, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net := NewNetwork(g, Options{Seed: 3, Latency: ConstLatency(delay), Shards: shards})
			if net.ShardCount() != shards {
				t.Fatalf("%d shards resolved, want %d", net.ShardCount(), shards)
			}
			tap := &linkOrderTap{sent: map[[2]proto.NodeID][]timedMsg{}, recv: map[[2]proto.NodeID][]timedMsg{}}
			net.AddTap(tap)
			net.SetHandlers(func(proto.NodeID) proto.Handler { return burstHandler{n: n} })
			net.Start()
			for i := range 16 {
				from := proto.NodeID(i * 5 % n)
				net.At(time.Duration(i%4)*delay/2, from, func() { burst(&net.nodes[from], n, 3) })
			}
			net.Run(0)

			offTopology, sameInstant := 0, 0
			for link, sent := range tap.sent {
				recv := tap.recv[link]
				if len(recv) != len(sent) {
					t.Fatalf("link %d→%d: %d messages sent, %d received", link[0], link[1], len(sent), len(recv))
				}
				for i, s := range sent {
					if recv[i].msg != s.msg {
						t.Fatalf("link %d→%d: receive %d is not send %d: the link reordered", link[0], link[1], i, i)
					}
					if recv[i].at != s.at+delay {
						t.Fatalf("link %d→%d: message %d sent at %v arrived at %v, want %v", link[0], link[1], i, s.at, recv[i].at, s.at+delay)
					}
					if i > 0 && s.at == sent[i-1].at {
						sameInstant++
					}
				}
				if !g.HasEdge(link[0], link[1]) {
					offTopology++
				}
			}
			if offTopology == 0 || sameInstant == 0 {
				t.Fatalf("%d off-topology links, %d same-instant sends on one link: the probe missed a case", offTopology, sameInstant)
			}
			if len(tap.recv) != len(tap.sent) {
				t.Fatalf("%d links received, %d sent on", len(tap.recv), len(tap.sent))
			}
		})
	}
}

// TestFixedDelayNetworkAllocs bounds what NewNetwork allocates for a
// constant-delay network to its node arrays plus a fixed slack: such a
// network keeps no per-link state and no copy of the graph, so one array
// of a cell per directed edge — 320 KB of destinations or 640 KB of
// arrival times at N=10k, d=8 — fails it.
func TestFixedDelayNetworkAllocs(t *testing.T) {
	const n, d, slack = 10_000, 8, 128 << 10
	g, err := topology.RandomRegular(n, d, testBenchRNG())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net := NewNetwork(g, Options{Seed: 1, Latency: ConstLatency(10 * time.Millisecond)})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	nodes := uint64(n) * uint64(unsafe.Sizeof(simNode{})+unsafe.Sizeof(nodeCold{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > nodes+slack {
		t.Errorf("NewNetwork allocated %d bytes, want at most the node arrays' %d plus %d", got, nodes, slack)
	}
	t.Logf("NewNetwork allocated %d bytes beyond the node arrays", after.TotalAlloc-before.TotalAlloc-nodes)
}

// TestNeighborsCapacityClipped holds ctx.Neighbors to the graph's row
// with no capacity past its length, on a constant-delay and on a shaped
// network, so that a handler's append copies the row instead of writing
// into the graph. The graph is built edge by edge, so its rows have room
// to grow.
func TestNeighborsCapacityClipped(t *testing.T) {
	const n = 12
	g := topology.NewGraph(n)
	for v := range proto.NodeID(n) {
		for _, step := range []proto.NodeID{1, 2, 4} {
			if err := g.AddEdge(v, (v+step)%n); err != nil {
				t.Fatal(err)
			}
		}
	}
	roomy := 0
	for v := range proto.NodeID(n) {
		if row := g.Neighbors(v); cap(row) > len(row) {
			roomy++
		}
	}
	if roomy == 0 {
		t.Fatal("no row of the graph has spare capacity: the test cannot tell a clipped row")
	}
	for _, opts := range []Options{
		{Latency: ConstLatency(time.Millisecond)},
		{Netem: &netem.Profile{Latency: netem.Uniform{Min: time.Millisecond, Hi: 5 * time.Millisecond}}},
	} {
		net := NewNetwork(g, opts)
		for v := range proto.NodeID(n) {
			got, want := net.nodes[v].Neighbors(), g.Neighbors(v)
			if !slices.Equal(got, want) {
				t.Fatalf("shaped=%v node %d: Neighbors %v, graph row %v", net.shaper != nil, v, got, want)
			}
			if cap(got) != len(got) {
				t.Errorf("shaped=%v node %d: Neighbors has capacity %d past its length %d", net.shaper != nil, v, cap(got), len(got))
			}
		}
	}
}
