package core

import (
	"crypto/rand"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/dcnet"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestAnnounceModeEndToEnd runs the composed protocol with the §V-A
// announcement optimization in Phase 1: the payload reserves a data
// round via an 8-byte announce slot and still reaches every node.
func TestAnnounceModeEndToEnd(t *testing.T) {
	g := testGraph(t, 80, 6, 21)
	group := []proto.NodeID{2, 12, 22, 32}
	w := newWorld(t, g, group, 31, func(cfg *Config) {
		cfg.DCNet.Mode = dcnet.ModeAnnounce
		cfg.DCNet.SlotSize = 0 // announce mode sizes slots per message
	})
	id, err := w.net.Originate(12, []byte("announce-mode payload with some length"))
	if err != nil {
		t.Fatal(err)
	}
	w.run(30 * time.Second)
	if got := w.net.Delivered(id); got != 80 {
		t.Errorf("delivered %d/80 under announce mode", got)
	}
}

// TestEncryptedChannelsEndToEnd runs Phase 1 over real pairwise AEAD
// channels inside the full three-phase pipeline.
func TestEncryptedChannelsEndToEnd(t *testing.T) {
	g := testGraph(t, 60, 6, 23)
	group := []proto.NodeID{5, 15, 25, 35}

	// Pairwise channels between group members (initiator = smaller ID).
	kx := make(map[proto.NodeID]*crypto.KeyExchange, len(group))
	for _, m := range group {
		var err error
		kx[m], err = crypto.NewKeyExchange(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
	}
	channels := make(map[proto.NodeID]map[proto.NodeID]*crypto.SecureChannel, len(group))
	for _, a := range group {
		channels[a] = make(map[proto.NodeID]*crypto.SecureChannel)
		for _, b := range group {
			if a == b {
				continue
			}
			ch, err := kx[a].Channel(kx[b].PublicBytes(), a < b)
			if err != nil {
				t.Fatal(err)
			}
			channels[a][b] = ch
		}
	}

	hashes := SimHashes(g.N())
	net := sim.NewNetwork(g, sim.Options{Seed: 5, Latency: sim.ConstLatency(2 * time.Millisecond)})
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		cfg := testConfig(group, hashes)
		cfg.DCNet.Channels = channels[id]
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%d): %v", id, err)
		}
		return p
	})
	net.Start()
	id, err := net.Originate(25, []byte("sealed end to end"))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(30 * time.Second)
	if got := net.Delivered(id); got != 60 {
		t.Errorf("delivered %d/60 with encrypted Phase 1", got)
	}
}

// TestMessageLossStillDelivers injects 2% message loss: Phase 1 can
// stall (DC-nets need reliability — that is why they run over TCP), but
// when the DC round completes, flood redundancy must still cover the
// network. We only require: if the group phase completed, delivery is
// full minus the loss-isolated stragglers.
func TestMessageLossStillDelivers(t *testing.T) {
	g := testGraph(t, 80, 8, 29)
	group := []proto.NodeID{1, 11, 21, 31}
	hashes := SimHashes(g.N())
	net := sim.NewNetwork(g, sim.Options{
		Seed:  77,
		Netem: &netem.Profile{Latency: netem.Const(2 * time.Millisecond), Loss: 0.02},
	})
	net.SetHandlers(func(id proto.NodeID) proto.Handler {
		p, err := New(testConfig(group, hashes))
		if err != nil {
			t.Fatalf("New(%d): %v", id, err)
		}
		return p
	})
	net.Start()
	id, err := net.Originate(11, []byte("lossy"))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(60 * time.Second)
	// With 2% loss the flood's 8-fold redundancy still covers nearly
	// everything once diffusion starts; require substantial coverage
	// rather than bit-exact completeness.
	if got := net.Delivered(id); got < 60 {
		t.Errorf("delivered only %d/80 under 2%% loss", got)
	}
}

// TestCrashedRelayDoesNotBlockBroadcast crashes a non-group node before
// the broadcast: the flood routes around it.
func TestCrashedRelayDoesNotBlockBroadcast(t *testing.T) {
	g := testGraph(t, 60, 6, 31)
	group := []proto.NodeID{3, 13, 23, 33}
	w := newWorld(t, g, group, 41, nil)
	w.net.Crash(45)
	id, err := w.net.Originate(3, []byte("resilient"))
	if err != nil {
		t.Fatal(err)
	}
	w.run(30 * time.Second)
	if got := w.net.Delivered(id); got != 59 {
		t.Errorf("delivered %d/59 live nodes", got)
	}
	if _, ok := w.net.DeliveryTime(id, 45); ok {
		t.Error("crashed node reported delivery")
	}
}
