package node

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/dcnet"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// blockchainWorld wires full nodes over a simulated overlay.
type blockchainWorld struct {
	net   *sim.Network
	nodes []*Node
}

// newBlockchainWorld builds n full nodes; optional mutators adjust each
// node's Config before construction.
func newBlockchainWorld(t *testing.T, n int, group []proto.NodeID, miners map[proto.NodeID]bool, muts ...func(id proto.NodeID, cfg *Config)) *blockchainWorld {
	t.Helper()
	rng := rand.New(rand.NewPCG(17, 18))
	g, err := topology.RandomRegular(n, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := &blockchainWorld{
		net:   sim.NewNetwork(g, sim.Options{Seed: 7, Latency: sim.ConstLatency(5 * time.Millisecond)}),
		nodes: make([]*Node, n),
	}
	hashes := core.SimHashes(n)
	w.net.SetHandlers(func(id proto.NodeID) proto.Handler {
		cfg := Config{
			Core: core.Config{
				Group:  group,
				Hashes: hashes,
				DCNet: dcnet.Config{
					Mode: dcnet.ModeFixed, SlotSize: 256,
					Interval: 100 * time.Millisecond, Policy: dcnet.PolicyNone,
				},
				Adaptive: adaptive.Config{D: 3, RoundInterval: 50 * time.Millisecond},
			},
			Mine:           miners[id],
			DifficultyBits: 8, // easy toy difficulty
			MineInterval:   200 * time.Millisecond,
			MineBudget:     5_000,
		}
		for _, mut := range muts {
			mut(id, &cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%d): %v", id, err)
		}
		w.nodes[id] = node
		return node
	})
	w.net.Start()
	return w
}

func TestTransactionReachesAllMempools(t *testing.T) {
	group := []proto.NodeID{1, 2, 3, 4}
	w := newBlockchainWorld(t, 40, group, nil)

	// Use the Originate path: Broadcast expects an encoded tx.
	tx := &chain.Tx{Nonce: 99, Fee: 10, Payload: []byte("pay bob")}
	txID := tx.ID()
	if _, err := w.net.Originate(2, tx.Encode()); err != nil {
		t.Fatal(err)
	}
	w.net.RunUntil(w.net.Now() + 30*time.Second)

	missing := 0
	for _, n := range w.nodes {
		if !n.Mempool().Has(txID) {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d/40 mempools missing the transaction", missing)
	}
}

// TestDeliveriesFillMempoolsWithoutTap checks that a node feeds its
// own mempool: the world registers no tap, and every node the
// simulator records as a receiver holds the transaction, with the
// admission layer unmounted and mounted (whose context sits between
// the protocol and the node's).
func TestDeliveriesFillMempoolsWithoutTap(t *testing.T) {
	for _, adm := range []*workload.AdmissionConfig{nil, {QueueCap: 4}} {
		w := newBlockchainWorld(t, 24, []proto.NodeID{1, 2, 3}, nil, func(_ proto.NodeID, cfg *Config) {
			cfg.Admission = adm
		})
		tx := &chain.Tx{Nonce: 7, Fee: 3, Payload: []byte("no tap")}
		id, err := w.net.Originate(1, tx.Encode())
		if err != nil {
			t.Fatal(err)
		}
		w.net.RunUntil(w.net.Now() + 30*time.Second)

		ds := w.net.Deliveries(id)
		if ds.Count() != len(w.nodes) {
			t.Fatalf("admission %v: %d/%d nodes delivered", adm, ds.Count(), len(w.nodes))
		}
		for v := range ds.All() {
			if !w.nodes[v].Mempool().Has(tx.ID()) {
				t.Fatalf("admission %v: node %d delivered the transaction but its mempool lacks it", adm, v)
			}
		}
	}
}

func TestMinersIncludeTxAndConverge(t *testing.T) {
	group := []proto.NodeID{1, 2, 3, 4}
	miners := map[proto.NodeID]bool{10: true, 20: true}
	w := newBlockchainWorld(t, 30, group, miners)

	tx := &chain.Tx{Nonce: 5, Fee: 77, Payload: []byte("fee tx")}
	if _, err := w.net.Originate(3, tx.Encode()); err != nil {
		t.Fatal(err)
	}
	w.net.RunUntil(w.net.Now() + 60*time.Second)

	// Some blocks were mined and propagated to all nodes.
	heights := make(map[uint64]int)
	for _, n := range w.nodes {
		heights[n.Chain().Height()]++
	}
	var maxHeight uint64
	for h := range heights {
		if h > maxHeight {
			maxHeight = h
		}
	}
	if maxHeight == 0 {
		t.Fatal("no blocks mined")
	}
	// The tx must be on the main chain somewhere and out of mempools of
	// nodes at the max height.
	found := false
	for _, n := range w.nodes {
		for _, b := range n.Chain().MainChain() {
			for _, btx := range b.Txs {
				if btx.ID() == tx.ID() {
					found = true
				}
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Error("transaction never included in a block")
	}
}

func TestBlockMsgRoundTrip(t *testing.T) {
	blk := &chain.Block{
		Height: 3, Miner: 9, TimeNano: 1234, PowNonce: 42,
		Txs: []*chain.Tx{{Nonce: 1, Fee: 5, Payload: []byte("a")}},
	}
	blk.Parent[2] = 0xee
	msg := fromBlock(blk)
	back, err := msg.toBlock()
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != blk.Hash() {
		t.Error("block hash changed across message round trip")
	}
}

func TestBroadcastRejectsNonTransactions(t *testing.T) {
	group := []proto.NodeID{0, 1, 2}
	w := newBlockchainWorld(t, 10, group, nil)
	if _, err := w.net.Originate(0, []byte("not a tx")); err == nil {
		t.Error("non-transaction payload accepted")
	}
}
