package flexnet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/dcnet"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"

	"repro/internal/adaptive"
	"repro/internal/dandelion"
	"repro/internal/flood"
)

// NodeConfig parametrizes a real TCP node.
type NodeConfig struct {
	// ID is the node's overlay identifier; it must be unique.
	ID int32
	// Listen is the TCP listen address (e.g. "127.0.0.1:7001").
	Listen string
	// AddrBook maps node IDs to addresses for every reachable node
	// (overlay neighbors and DC-net group members).
	AddrBook map[int32]string
	// Neighbors is the overlay adjacency used by Phases 2–3.
	Neighbors []int32
	// Group is the node's DC-net group including itself (empty: relay
	// only).
	Group []int32
	// IdentitySeeds maps group members to 32-byte identity seeds, used
	// to derive the identity hashes for virtual-source selection. All
	// group members must agree on this map.
	IdentitySeeds map[int32][32]byte
	// D is the number of adaptive-diffusion rounds (default 4).
	D int
	// DCInterval is the Phase-1 round interval (default 2 s).
	DCInterval time.Duration
	// FailSafe, when positive, arms the coverage-first recovery flood:
	// a payload not fully flooded within this deadline is re-flooded
	// from every holder. Zero keeps the paper's strict mode.
	FailSafe time.Duration
	// Mine enables the toy proof-of-work miner.
	Mine bool
	// DifficultyBits is the PoW difficulty (default 16).
	DifficultyBits int
	// Seed seeds protocol randomness.
	Seed uint64
	// OnBlock fires on every accepted block.
	OnBlock func(height uint64, txs int, miner int32)
	// OnTx fires when a broadcast transaction reaches this node.
	OnTx func(id [16]byte, fee uint64, payload []byte)
	// Admission mounts the workload mempool-admission layer in front of
	// the protocol launch: submissions are deduplicated, queued up to
	// AdmissionConfig.QueueCap and paced by SubmitService. Nil launches
	// every submission directly.
	Admission *workload.AdmissionConfig
	// SubmitService is the pacing interval between queued launches when
	// Admission is mounted (0: drain immediately).
	SubmitService time.Duration
}

// Node is a running TCP blockchain node with privacy-preserving
// transaction broadcast.
type Node struct {
	inner *node.Node
	trans *transport.Node
}

// NewCodec returns a codec with every protocol message registered — the
// full wire surface of a node.
func NewCodec() *wire.Codec {
	c := wire.NewCodec()
	flood.RegisterMessages(c)
	adaptive.RegisterMessages(c)
	dcnet.RegisterMessages(c)
	dandelion.RegisterMessages(c)
	relchan.RegisterMessages(c)
	node.RegisterMessages(c)
	workload.RegisterMessages(c)
	return c
}

// StartNode launches a node: it listens immediately and starts its
// protocol loops.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.DifficultyBits == 0 {
		cfg.DifficultyBits = 16
	}

	hashes := make(map[proto.NodeID][32]byte, len(cfg.IdentitySeeds))
	for id, seed := range cfg.IdentitySeeds {
		hashes[proto.NodeID(id)] = crypto.IdentityFromSeed(seed).Hash()
	}
	groupIDs := make([]proto.NodeID, 0, len(cfg.Group))
	for _, m := range cfg.Group {
		groupIDs = append(groupIDs, proto.NodeID(m))
	}

	n := &Node{}
	inner, err := node.New(node.Config{
		Core: core.Config{
			Group:    groupIDs,
			Hashes:   hashes,
			FailSafe: cfg.FailSafe,
			DCNet:    dcnet.Config{Interval: cfg.DCInterval, Policy: dcnet.PolicyDissolve},
			Adaptive: adaptive.Config{D: cfg.D},
		},
		Mine:           cfg.Mine,
		DifficultyBits: cfg.DifficultyBits,
		Admission:      cfg.Admission,
		SubmitService:  cfg.SubmitService,
		OnBlock: func(b *chain.Block) {
			if cfg.OnBlock != nil {
				cfg.OnBlock(b.Height, len(b.Txs), int32(b.Miner))
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("flexnet: %w", err)
	}
	n.inner = inner

	addrBook := make(map[proto.NodeID]string, len(cfg.AddrBook))
	for id, addr := range cfg.AddrBook {
		addrBook[proto.NodeID(id)] = addr
	}
	neighbors := make([]proto.NodeID, 0, len(cfg.Neighbors))
	for _, nb := range cfg.Neighbors {
		neighbors = append(neighbors, proto.NodeID(nb))
	}

	trans, err := transport.Listen(transport.Config{
		Self:      proto.NodeID(cfg.ID),
		Listen:    cfg.Listen,
		AddrBook:  addrBook,
		Neighbors: neighbors,
		Codec:     NewCodec(),
		Handler:   inner,
		Seed:      cfg.Seed,
		OnDeliver: func(id proto.MsgID, payload []byte) {
			if cfg.OnTx != nil {
				if tx, err := chain.DecodeTx(payload); err == nil {
					cfg.OnTx([16]byte(tx.ID()), tx.Fee, tx.Payload)
				}
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("flexnet: %w", err)
	}
	n.trans = trans
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.trans.Addr() }

// SetAddr registers or updates a peer's address after startup — the
// late-binding hook used when nodes listen on OS-assigned ports.
func (n *Node) SetAddr(id int32, addr string) { n.trans.SetAddr(proto.NodeID(id), addr) }

// onLoop runs fn on the node's event loop and returns its result, or
// timeout if the loop has not answered within 5 s.
func onLoop[T any](n *Node, timeout T, fn func(ctx proto.Context) T) T {
	ch := make(chan T, 1)
	n.trans.Inject(func(ctx proto.Context) { ch <- fn(ctx) })
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		return timeout
	}
}

// SubmitTx broadcasts a transaction anonymously through the three-phase
// protocol. The node must belong to a DC-net group.
func (n *Node) SubmitTx(payload []byte, fee uint64) error {
	return onLoop(n, errors.New("flexnet: SubmitTx timed out"), func(ctx proto.Context) error {
		_, err := n.inner.SubmitTx(ctx, payload, fee)
		return err
	})
}

// AdmissionStats returns the admission-layer counters (zero when
// NodeConfig.Admission was nil). Like MempoolSize, it is a snapshot
// taken on the event loop.
func (n *Node) AdmissionStats() workload.Stats {
	return onLoop(n, workload.Stats{}, func(proto.Context) workload.Stats {
		return n.inner.Probe().Admission
	})
}

// SubmitRawTx broadcasts an already-encoded transaction through the
// three-phase protocol — the deterministic-identity form of SubmitTx:
// the caller controls the nonce, so resubmitting the same encoding at
// any node is a true duplicate that the admission layer deduplicates.
func (n *Node) SubmitRawTx(encoded []byte) error {
	return onLoop(n, errors.New("flexnet: SubmitRawTx timed out"), func(ctx proto.Context) error {
		_, err := n.inner.Broadcast(ctx, encoded)
		return err
	})
}

// MempoolSize returns the current mempool size, or −1 if the event
// loop does not answer. It is approximate: the mempool is owned by the
// event loop.
func (n *Node) MempoolSize() int {
	return onLoop(n, -1, func(proto.Context) int { return n.inner.Mempool().Len() })
}

// ChainHeight returns the node's main-chain height (0 if the event loop
// does not answer).
func (n *Node) ChainHeight() uint64 {
	return onLoop(n, 0, func(proto.Context) uint64 { return n.inner.Chain().Height() })
}

// Close shuts the node down.
func (n *Node) Close() error { return n.trans.Close() }
