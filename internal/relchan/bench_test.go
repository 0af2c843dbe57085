package relchan_test

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/sim"
	"repro/internal/topology"
)

// benchPair boots the two-node sim the benchmarks drive, returning the
// network plus both peers.
func benchPair(b *testing.B, cfg relchan.Config) (*sim.Network, [2]*testPeer) {
	b.Helper()
	g, err := topology.Complete(2)
	if err != nil {
		b.Fatal(err)
	}
	net := sim.NewNetwork(g, sim.Options{Seed: 7, Latency: sim.ConstLatency(time.Millisecond)})
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

// BenchmarkRelChanSendAck measures the lossless steady state: one
// tracked send, its delivery, its ack, and the tracking-state drain —
// the per-message price every reliable protocol pays on a clean link.
func BenchmarkRelChanSendAck(b *testing.B) {
	net, peers := benchPair(b, relchan.Config{RTO: 50 * time.Millisecond, RetryBudget: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.InjectTimerAt(net.Now(), 0, sendAt{id: relchan.ID{Stream: uint64(i), Kind: 1}, payload: []byte("p")})
		net.RunUntil(net.Now() + 5*time.Millisecond)
	}
	b.StopTimer()
	if peers[0].ch.Pending() != 0 {
		b.Fatalf("pending not drained: %d", peers[0].ch.Pending())
	}
}

// BenchmarkRelChanRetransmit measures the recovery path: every first
// copy dies, so each message costs a send, an RTO fire, a
// retransmission, and the late ack.
func BenchmarkRelChanRetransmit(b *testing.B) {
	net, peers := benchPair(b, relchan.Config{RTO: 5 * time.Millisecond, RetryBudget: 3})
	peers[1].dropData = func(_ relchan.ID, copy int) bool { return copy == 1 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.InjectTimerAt(net.Now(), 0, sendAt{id: relchan.ID{Stream: uint64(i), Kind: 1}, payload: []byte("p")})
		net.RunUntil(net.Now() + 12*time.Millisecond)
	}
	b.StopTimer()
	if peers[0].ch.Retransmits != b.N {
		b.Fatalf("retransmits = %d, want %d", peers[0].ch.Retransmits, b.N)
	}
}

// BenchmarkRelChanDisabled measures the mounted-but-disabled overhead —
// the tax every zero-impairment run pays for the abstraction (it must
// stay a hair above a bare ctx.Send).
func BenchmarkRelChanDisabled(b *testing.B) {
	net, _ := benchPair(b, relchan.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.InjectTimerAt(net.Now(), 0, sendAt{id: relchan.ID{Stream: uint64(i), Kind: 1}, payload: []byte("p")})
		net.RunUntil(net.Now() + 5*time.Millisecond)
	}
}
