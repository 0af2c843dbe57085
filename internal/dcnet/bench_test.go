package dcnet

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
)

// benchGroup runs `rounds` DC-net rounds for a group of size g.
func benchGroup(b *testing.B, g, rounds int, mode Mode, policy Policy) {
	b.Helper()
	topo, err := topology.Complete(g)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]proto.NodeID, g)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := sim.NewNetwork(topo, sim.Options{Seed: uint64(i + 1), Latency: sim.ConstLatency(time.Millisecond)})
		net.SetHandlers(func(id proto.NodeID) proto.Handler {
			m, err := NewMember(Config{
				Self: id, Members: all, Mode: mode, SlotSize: 256,
				Interval: 10 * time.Millisecond, Policy: policy,
			})
			if err != nil {
				b.Fatal(err)
			}
			return &memberHandler{m: m}
		})
		net.Start()
		net.RunUntil(time.Duration(rounds) * 10 * time.Millisecond)
	}
}

// BenchmarkRoundG5Fixed measures one idle fixed-mode round at k=5.
func BenchmarkRoundG5Fixed(b *testing.B) { benchGroup(b, 5, 1, ModeFixed, PolicyNone) }

// BenchmarkRoundG10Fixed measures the O(k²) growth at g=10.
func BenchmarkRoundG10Fixed(b *testing.B) { benchGroup(b, 10, 1, ModeFixed, PolicyNone) }

// BenchmarkRoundG20Fixed measures g=20, composed1k's largest group.
func BenchmarkRoundG20Fixed(b *testing.B) { benchGroup(b, 20, 1, ModeFixed, PolicyNone) }

// BenchmarkRoundG10Blame adds the commitment exchange.
func BenchmarkRoundG10Blame(b *testing.B) { benchGroup(b, 10, 1, ModeFixed, PolicyBlame) }

// BenchmarkRoundG10Announce measures the §V-A idle-round optimization.
func BenchmarkRoundG10Announce(b *testing.B) { benchGroup(b, 10, 1, ModeAnnounce, PolicyNone) }

// BenchmarkSlotPack measures slot framing throughput.
func BenchmarkSlotPack(b *testing.B) {
	payload := make([]byte, 248)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		slot, err := packSlot(payload, 256)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := unpackSlot(slot); !ok {
			b.Fatal("unpack failed")
		}
	}
}
