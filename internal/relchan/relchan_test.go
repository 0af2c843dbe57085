package relchan_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// testPeer is the minimal handler a protocol mounting the channel looks
// like: CustodyMsg doubles as the data message (it already carries an
// ID plus payload), the generic Ack/Nack route back into the channel,
// and Receive's duplicate suppression fronts the "processed" list.
type testPeer struct {
	ch       relchan.Channel
	received []relchan.ID
	// dropData and dropAck are receiver-side impairment hooks, keyed by
	// per-ID copy count so "drop the first k copies" is expressible.
	dropData func(id relchan.ID, copy int) bool
	dropAck  func(id relchan.ID, copy int) bool
	dataSeen map[relchan.ID]int
	ackSeen  map[relchan.ID]int
}

// nackAt is the test's injection hook: fire SendNack from this node.
type nackAt struct {
	to proto.NodeID
	id relchan.ID
}

func (p *testPeer) Init(proto.Context) {}

func (p *testPeer) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	switch m := msg.(type) {
	case *relchan.CustodyMsg:
		if p.dataSeen == nil {
			p.dataSeen = make(map[relchan.ID]int)
		}
		p.dataSeen[m.ID]++
		if p.dropData != nil && p.dropData(m.ID, p.dataSeen[m.ID]) {
			return
		}
		if p.ch.Receive(ctx, from, m.ID) {
			return // retransmitted copy: re-acked, not reprocessed
		}
		p.received = append(p.received, m.ID)
	case *relchan.AckMsg:
		if p.ackSeen == nil {
			p.ackSeen = make(map[relchan.ID]int)
		}
		p.ackSeen[m.ID]++
		if p.dropAck != nil && p.dropAck(m.ID, p.ackSeen[m.ID]) {
			return
		}
		p.ch.OnAck(ctx, from, m.ID)
	case *relchan.NackMsg:
		p.ch.OnNack(ctx, from, m.ID)
	}
}

func (p *testPeer) HandleTimer(ctx proto.Context, payload any) {
	switch t := payload.(type) {
	case sendAt:
		p.ch.Send(ctx, 1, &relchan.CustodyMsg{ID: t.id, Payload: t.payload}, t.id)
	case nackAt:
		p.ch.SendNack(ctx, t.to, t.id)
	case dropWhereSeq:
		p.ch.DropWhere(ctx, func(_ proto.NodeID, id relchan.ID) bool { return id.Seq == t.seq })
	case dropPeerReq:
		p.ch.DropPeer(ctx, t.peer)
	default:
		p.ch.HandleTimer(ctx, payload)
	}
}

// pair boots a two-node sim (5 ms links) with one channel per side.
func pair(t *testing.T, cfg relchan.Config) (*sim.Network, [2]*testPeer) {
	t.Helper()
	g, err := topology.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(g, sim.Options{Seed: 7, Latency: sim.ConstLatency(5 * time.Millisecond)})
	var peers [2]*testPeer
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		p := &testPeer{}
		p.ch.Init(cfg)
		peers[id] = p
		return p
	})
	net.Start()
	return net, peers
}

// sendAt schedules one tracked send from node 0 to node 1, injected
// through the sender's event loop; dropWhereSeq and dropPeerReq drive
// the GC hooks the same way.
type sendAt struct {
	id      relchan.ID
	payload []byte
}

// TestChannelDeliveryTable sweeps the (kind, seq, budget, drops)
// surface: a message whose first d copies die is recovered iff d is
// within the retry budget, with exactly d retransmissions; past the
// budget the sender gives up and drains its tracking state either way.
func TestChannelDeliveryTable(t *testing.T) {
	for _, budget := range []int{0, 1, 3} {
		for _, drops := range []int{0, 1, 2, 4} {
			for _, id := range []relchan.ID{
				{Stream: 0, Seq: 0, Kind: 1},
				{Stream: 0xfeed, Seq: 7, Kind: 2},
				{Stream: ^uint64(0), Seq: ^uint32(0), Kind: 5},
			} {
				budget, drops, id := budget, drops, id
				name := fmt.Sprintf("budget=%d/drops=%d/kind=%d/seq=%d", budget, drops, id.Kind, id.Seq)
				t.Run(name, func(t *testing.T) {
					net, peers := pair(t, relchan.Config{RTO: 50 * time.Millisecond, RetryBudget: budget})
					peers[1].dropData = func(_ relchan.ID, copy int) bool { return copy <= drops }
					net.InjectTimerAt(net.Now(), 0, sendAt{id: id, payload: []byte("p")})
					// Out-wait every possible retransmission: budget+1
					// copies spaced RTO apart, plus slack.
					net.RunUntil(net.Now() + time.Duration(budget+2)*60*time.Millisecond)

					delivered := drops <= budget
					if got := len(peers[1].received); got != boolCount(delivered) {
						t.Fatalf("received %d messages, want %d", got, boolCount(delivered))
					}
					wantRetx := drops
					if wantRetx > budget {
						wantRetx = budget
					}
					if peers[0].ch.Retransmits != wantRetx {
						t.Errorf("sender retransmits = %d, want %d", peers[0].ch.Retransmits, wantRetx)
					}
					if peers[0].ch.Pending() != 0 {
						t.Errorf("sender still tracks %d messages (want drained: acked or budget-exhausted)", peers[0].ch.Pending())
					}
				})
			}
		}
	}
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestNackFastPath pins the pull side: with an RTO far beyond the run
// horizon, a dropped copy is recovered the moment the receiver nacks it
// — no timeout wait — and the nack itself is counted on the receiver.
func TestNackFastPath(t *testing.T) {
	net, peers := pair(t, relchan.Config{RTO: 10 * time.Second, RetryBudget: 3})
	id := relchan.ID{Stream: 42, Seq: 1, Kind: 1}
	peers[1].dropData = func(_ relchan.ID, copy int) bool { return copy == 1 }
	net.InjectTimerAt(net.Now(), 0, sendAt{id: id, payload: []byte("pull")})
	net.RunUntil(net.Now() + 100*time.Millisecond)
	if len(peers[1].received) != 0 {
		t.Fatal("dropped copy delivered anyway")
	}
	net.InjectTimerAt(net.Now(), 1, nackAt{to: 0, id: id})
	net.RunUntil(net.Now() + 100*time.Millisecond)
	if len(peers[1].received) != 1 {
		t.Fatalf("nack did not pull a retransmission (received %d)", len(peers[1].received))
	}
	if peers[0].ch.Retransmits != 1 {
		t.Errorf("sender retransmits = %d, want 1", peers[0].ch.Retransmits)
	}
	if peers[1].ch.Nacks != 1 {
		t.Errorf("receiver nacks = %d, want 1", peers[1].ch.Nacks)
	}
	if peers[0].ch.Pending() != 0 {
		t.Errorf("retransmitted message never acked (pending %d)", peers[0].ch.Pending())
	}
}

// TestDuplicateSuppression pins the ack-every-copy rule: when the ack
// (not the data) dies, the sender retransmits, the receiver re-acks the
// duplicate but processes it exactly once, and tracking drains.
func TestDuplicateSuppression(t *testing.T) {
	net, peers := pair(t, relchan.Config{RTO: 50 * time.Millisecond, RetryBudget: 3})
	id := relchan.ID{Stream: 9, Seq: 3, Kind: 2}
	peers[0].dropAck = func(_ relchan.ID, copy int) bool { return copy == 1 }
	net.InjectTimerAt(net.Now(), 0, sendAt{id: id, payload: []byte("dup")})
	net.RunUntil(net.Now() + 300*time.Millisecond)
	if len(peers[1].received) != 1 {
		t.Fatalf("processed %d copies, want exactly 1", len(peers[1].received))
	}
	if peers[1].dataSeen[id] != 2 {
		t.Errorf("receiver saw %d copies, want 2 (original + retransmission)", peers[1].dataSeen[id])
	}
	if peers[0].ch.Retransmits != 1 {
		t.Errorf("sender retransmits = %d, want 1", peers[0].ch.Retransmits)
	}
	if peers[0].ch.Pending() != 0 {
		t.Errorf("second ack failed to drain tracking (pending %d)", peers[0].ch.Pending())
	}
}

// TestDisabledChannelIsTransparent pins the zero-RTO contract: Send
// degrades to Context.Send, no acks flow, Receive never suppresses.
func TestDisabledChannelIsTransparent(t *testing.T) {
	net, peers := pair(t, relchan.Config{})
	if peers[0] == nil {
		t.Fatal("handlers not built")
	}
	id := relchan.ID{Stream: 1, Kind: 1}
	net.InjectTimerAt(net.Now(), 0, sendAt{id: id, payload: []byte("x")})
	net.InjectTimerAt(net.Now(), 0, sendAt{id: id, payload: []byte("x")})
	net.RunUntil(net.Now() + 200*time.Millisecond)
	if len(peers[1].received) != 2 {
		t.Fatalf("disabled channel suppressed duplicates: processed %d, want 2", len(peers[1].received))
	}
	if peers[1].ackSeen[id] != 0 {
		t.Errorf("disabled channel generated %d acks", peers[1].ackSeen[id])
	}
	if peers[0].ch.Pending() != 0 || peers[0].ch.Enabled() {
		t.Error("disabled channel tracked state")
	}
}

// TestStopQuiesces pins Stop: a fired timer after Stop is consumed
// without retransmitting.
func TestStopQuiesces(t *testing.T) {
	net, peers := pair(t, relchan.Config{RTO: 50 * time.Millisecond, RetryBudget: 3})
	id := relchan.ID{Stream: 5, Kind: 1}
	peers[1].dropData = func(relchan.ID, int) bool { return true }
	net.InjectTimerAt(net.Now(), 0, sendAt{id: id, payload: []byte("s")})
	net.RunUntil(net.Now() + 10*time.Millisecond)
	peers[0].ch.Stop()
	net.RunUntil(net.Now() + 500*time.Millisecond)
	if peers[0].ch.Retransmits != 0 {
		t.Errorf("stopped channel retransmitted %d times", peers[0].ch.Retransmits)
	}
}

// TestDropPeerAndWhere pins the GC hooks used by eviction and
// round-completion sweeps.
func TestDropPeerAndWhere(t *testing.T) {
	net, peers := pair(t, relchan.Config{RTO: 10 * time.Second, RetryBudget: 3})
	peers[1].dropData = func(relchan.ID, int) bool { return true }
	a := relchan.ID{Stream: 1, Seq: 1, Kind: 1}
	b := relchan.ID{Stream: 1, Seq: 2, Kind: 1}
	net.InjectTimerAt(net.Now(), 0, sendAt{id: a, payload: []byte("a")})
	net.InjectTimerAt(net.Now(), 0, sendAt{id: b, payload: []byte("b")})
	net.RunUntil(net.Now() + 50*time.Millisecond)
	if peers[0].ch.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", peers[0].ch.Pending())
	}
	net.InjectTimerAt(net.Now(), 0, dropWhereSeq{seq: 1})
	net.RunUntil(net.Now() + 10*time.Millisecond)
	if peers[0].ch.Pending() != 1 {
		t.Fatalf("DropWhere(seq=1) left pending = %d, want 1", peers[0].ch.Pending())
	}
	net.InjectTimerAt(net.Now(), 0, dropPeerReq{peer: 1})
	net.RunUntil(net.Now() + 10*time.Millisecond)
	if peers[0].ch.Pending() != 0 {
		t.Fatalf("DropPeer left pending = %d, want 0", peers[0].ch.Pending())
	}
}

type dropWhereSeq struct{ seq uint32 }
type dropPeerReq struct{ peer proto.NodeID }

// TestMessageRoundTrip pins the wire encoding of the generic channel
// messages through a registered codec.
func TestMessageRoundTrip(t *testing.T) {
	c := wire.NewCodec()
	relchan.RegisterMessages(c)
	msgs := []wire.Encodable{
		&relchan.AckMsg{ID: relchan.ID{Stream: 0xdeadbeef, Seq: 12, Kind: 3}},
		&relchan.NackMsg{ID: relchan.ID{Stream: 1, Seq: 0, Kind: 255}},
		&relchan.CustodyMsg{ID: relchan.ID{Stream: ^uint64(0), Seq: 9, Kind: 1}, Payload: []byte("held")},
		&relchan.CustodyMsg{ID: relchan.ID{}, Payload: nil},
	}
	for _, m := range msgs {
		enc, err := c.Marshal(m)
		if err != nil {
			t.Fatalf("marshal %T: %v", m, err)
		}
		back, err := c.Unmarshal(enc)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", m, err)
		}
		enc2, err := c.Marshal(back.(wire.Encodable))
		if err != nil {
			t.Fatalf("re-marshal %T: %v", m, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%T did not round-trip: %x vs %x", m, enc, enc2)
		}
	}
}

// TestNewRejectsNegativeConfig pins Init's guard.
func TestNewRejectsNegativeConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative RTO accepted")
		}
	}()
	var ch relchan.Channel
	ch.Init(relchan.Config{RTO: -time.Second})
}
