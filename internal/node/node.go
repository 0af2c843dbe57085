// Package node integrates the full stack into a runnable blockchain
// node: the three-phase privacy broadcast (internal/core) for
// transactions, a plain flood for blocks (the paper deliberately leaves
// blocks unprotected — hiding block originators would hurt miner
// fairness, §II), a mempool, a longest-chain store, and an optional toy
// proof-of-work miner. It runs over any proto.Context runtime; cmd/
// flexnode and the tcpcluster example run it over internal/transport.
package node

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TypeBlock is the wire type of block announcements.
const TypeBlock = proto.RangeChain + 1

// BlockMsg floods a freshly mined block.
type BlockMsg struct {
	Height   uint64
	Parent   [32]byte
	Miner    proto.NodeID
	TimeNano int64
	PowNonce uint64
	Txs      [][]byte // encoded transactions
}

var _ wire.Encodable = (*BlockMsg)(nil)

// Type implements proto.Message.
func (*BlockMsg) Type() proto.MsgType { return TypeBlock }

// EncodeTo implements wire.Encodable.
func (m *BlockMsg) EncodeTo(w *wire.Writer) {
	w.U64(m.Height)
	w.Bytes32(m.Parent)
	w.NodeID(m.Miner)
	w.I64(m.TimeNano)
	w.U64(m.PowNonce)
	w.Uvarint(uint64(len(m.Txs)))
	for _, tx := range m.Txs {
		w.ByteString(tx)
	}
}

// DecodeFrom implements wire.Encodable.
func (m *BlockMsg) DecodeFrom(r *wire.Reader) error {
	m.Height = r.U64()
	m.Parent = r.Bytes32()
	m.Miner = r.NodeID()
	m.TimeNano = r.I64()
	m.PowNonce = r.U64()
	n := r.Uvarint()
	if n > 1_000_000 {
		return wire.ErrOverflow
	}
	m.Txs = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		m.Txs = append(m.Txs, r.ByteString())
	}
	return r.Err()
}

// toBlock converts the message to a chain block.
func (m *BlockMsg) toBlock() (*chain.Block, error) {
	b := &chain.Block{
		Height:   m.Height,
		Parent:   chain.BlockHash(m.Parent),
		Miner:    m.Miner,
		TimeNano: m.TimeNano,
		PowNonce: m.PowNonce,
	}
	for _, enc := range m.Txs {
		tx, err := chain.DecodeTx(enc)
		if err != nil {
			return nil, err
		}
		b.Txs = append(b.Txs, tx)
	}
	return b, nil
}

func fromBlock(b *chain.Block) *BlockMsg {
	m := &BlockMsg{
		Height:   b.Height,
		Parent:   [32]byte(b.Parent),
		Miner:    b.Miner,
		TimeNano: b.TimeNano,
		PowNonce: b.PowNonce,
	}
	for _, tx := range b.Txs {
		m.Txs = append(m.Txs, tx.Encode())
	}
	return m
}

// RegisterMessages adds this package's messages to a codec.
func RegisterMessages(c *wire.Codec) {
	c.Register(TypeBlock, func() wire.Encodable { return new(BlockMsg) })
}

// Config parametrizes a full node.
type Config struct {
	// Core configures the privacy broadcast.
	Core core.Config
	// Mine enables the proof-of-work loop.
	Mine bool
	// DifficultyBits is the toy PoW difficulty (default 16).
	DifficultyBits int
	// MineInterval spaces mining attempts (default 500 ms).
	MineInterval time.Duration
	// MineBudget bounds nonce grinding per attempt (default 200k). The
	// miner runs inside the event loop, so the budget keeps handler
	// latency bounded.
	MineBudget uint64
	// OnBlock fires when a block is accepted (mined or received).
	OnBlock func(b *chain.Block)
	// Admission, when non-nil, mounts a workload.Wrapper in front of
	// the privacy broadcast: SubmitTx, Broadcast and inbound
	// workload.SubmitMsg traffic dedup against already-seen
	// transactions and queue under the configured backpressure policy.
	// Nil launches every transaction directly.
	Admission *workload.AdmissionConfig
	// SubmitService paces admitted launches (one per interval) when
	// Admission is set; 0 launches immediately on admission.
	SubmitService time.Duration
}

// mineTimer drives mining attempts.
type mineTimer struct{}

// maxBlockTxs bounds transactions per block.
const maxBlockTxs = 100

// Node is the integrated handler.
type Node struct {
	cfg      Config
	protocol *core.Protocol
	mempool  *chain.Mempool
	chain    *chain.Chain
	blocks   *flood.Engine // dedup/forward for block floods
	// included caches the transactions on the current main chain so the
	// miner neither re-includes nor permanently loses one across
	// reorgs; it is rebuilt whenever the head moves.
	included map[chain.TxID]struct{}
	lastHead chain.BlockHash
	nonce    uint64
	// bcast launches transactions: the protocol itself, or a
	// workload.Wrapper around it when Config.Admission is set (built in
	// Init, which knows the node's ID).
	bcast proto.Broadcaster
	cctx  nodeCtx
}

// nodeCtx is the context the node hands its broadcast: a transaction
// the protocol delivers enters the node's own mempool before the
// runtime sees the delivery, so no runtime needs a delivery hook.
type nodeCtx struct {
	proto.Context
	n *Node
}

// DeliverLocal implements proto.Context.
func (c *nodeCtx) DeliverLocal(id proto.MsgID, payload []byte) {
	// A payload that is not a transaction has no place in the mempool;
	// the runtime still records its delivery.
	_, _ = c.n.mempool.AddEncoded(payload)
	c.Context.DeliverLocal(id, payload)
}

// ctx wraps the runtime context for delegation to the broadcast.
func (n *Node) ctx(ctx proto.Context) proto.Context {
	n.cctx.Context = ctx
	return &n.cctx
}

var _ proto.Broadcaster = (*Node)(nil)

// New builds a node from the configuration.
func New(cfg Config) (*Node, error) {
	if cfg.DifficultyBits == 0 {
		cfg.DifficultyBits = 16
	}
	if cfg.MineInterval <= 0 {
		cfg.MineInterval = 500 * time.Millisecond
	}
	if cfg.MineBudget == 0 {
		cfg.MineBudget = 200_000
	}
	p, err := core.New(cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	n := &Node{
		cfg:      cfg,
		protocol: p,
		bcast:    p,
		mempool:  chain.NewMempool(),
		chain:    chain.NewChain(),
		blocks:   flood.NewEngine(),
		included: make(map[chain.TxID]struct{}),
	}
	n.cctx.n = n
	return n, nil
}

// Probe is an event-loop-time snapshot of a node's progress. Cluster
// harnesses poll it (through transport Node.Inject, so the read is
// serialized with the handler) to decide when a run is quiescent —
// replacing wall-clock sleeps with observable conditions: the mempool
// holds the transaction, the DC-net has finished its bounded rounds.
type Probe struct {
	// MempoolLen is the current transaction-pool size.
	MempoolLen int
	// ChainHeight is the main-chain height.
	ChainHeight uint64
	// DCRounds is the number of completed DC-net rounds (0 if the node
	// has no group or the protocol has not initialized yet).
	DCRounds int
	// DCStopped reports whether the DC-net member dissolved or stopped.
	DCStopped bool
	// DCGroupSize is the live group size (after failover evictions).
	DCGroupSize int
	// DCEvictions counts failover evictions this member performed.
	DCEvictions int
	// DCRetransmits counts reliability-layer retransmissions sent.
	DCRetransmits int
	// RelRetransmits counts retransmissions by the node's overlay
	// reliability channels (custody deposits, the Phase-2 diffusion
	// surface when mounted); Phase-1 DC-net retransmissions are
	// DCRetransmits.
	RelRetransmits int
	// RelNacks counts retransmission requests sent by this node's
	// reliable channels.
	RelNacks int
	// RelHandoffs counts custody payloads this node launched into
	// Phase 2 on behalf of an absent originator.
	RelHandoffs int
	// Admission holds the node's workload admission counters; zero
	// when Config.Admission is nil.
	Admission workload.Stats
}

// Probe snapshots the node's progress. It must run on the node's event
// loop (sim handler context or transport Inject), like every other
// handler-state access.
func (n *Node) Probe() Probe {
	p := Probe{MempoolLen: n.mempool.Len(), ChainHeight: n.chain.Height()}
	if m := n.protocol.Member(); m != nil {
		p.DCRounds = m.RoundsCompleted
		p.DCStopped = m.Stopped()
		p.DCGroupSize = m.GroupSize()
		p.DCEvictions = m.Evictions
		p.DCRetransmits = m.Retransmits()
	}
	p.RelRetransmits = n.protocol.RelRetransmits()
	p.RelNacks = n.protocol.RelNacks()
	p.RelHandoffs = n.protocol.RelHandoffs()
	if w, ok := n.bcast.(*workload.Wrapper); ok {
		p.Admission = w.Admission().Stats()
	}
	return p
}

// Mempool exposes the transaction pool.
func (n *Node) Mempool() *chain.Mempool { return n.mempool }

// Chain exposes the block store.
func (n *Node) Chain() *chain.Chain { return n.chain }

// Protocol exposes the privacy broadcast.
func (n *Node) Protocol() *core.Protocol { return n.protocol }

// Init implements proto.Handler.
func (n *Node) Init(ctx proto.Context) {
	if n.cfg.Admission != nil {
		adm := workload.NewAdmission(*n.cfg.Admission, ctx.Self(), nil)
		n.bcast = workload.NewWrapper(n.protocol, adm, nil, n.cfg.SubmitService)
	}
	n.bcast.Init(n.ctx(ctx))
	if n.cfg.Mine {
		ctx.SetTimer(n.nextMineDelay(ctx), mineTimer{})
	}
}

// nextMineDelay jitters mining attempts over [interval/2, 3·interval/2):
// block discovery is a memoryless race, and synchronized timers would
// deterministically hand every height tie to one miner.
func (n *Node) nextMineDelay(ctx proto.Context) time.Duration {
	return n.cfg.MineInterval/2 + time.Duration(ctx.Rand().Int64N(int64(n.cfg.MineInterval)))
}

// SubmitTx builds a transaction and broadcasts it through the privacy
// protocol. It must run on the node's event loop (sim Originate or
// transport Inject).
func (n *Node) SubmitTx(ctx proto.Context, payload []byte, fee uint64) (chain.TxID, error) {
	n.nonce++
	tx := &chain.Tx{Nonce: n.nonce ^ uint64(ctx.Self())<<32, Fee: fee, Payload: payload}
	if _, err := n.Broadcast(ctx, tx.Encode()); err != nil {
		return chain.TxID{}, err
	}
	return tx.ID(), nil
}

// Broadcast implements proto.Broadcaster: the payload must be an encoded
// transaction, which also enters the local mempool. With admission
// mounted, the launch is routed through the queue — the MsgID returns
// immediately, and a protocol refusal (e.g. DC-net round budget
// exhausted) only loses the broadcast: the transaction stays in the
// mempool.
func (n *Node) Broadcast(ctx proto.Context, payload []byte) (proto.MsgID, error) {
	if _, err := n.mempool.AddEncoded(payload); err != nil {
		return proto.MsgID{}, err
	}
	return n.bcast.Broadcast(n.ctx(ctx), payload)
}

// HandleMessage implements proto.Handler.
func (n *Node) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	switch m := msg.(type) {
	case *BlockMsg:
		n.handleBlock(ctx, from, m)
	case *workload.SubmitMsg:
		// Client transaction submission over the wire: same path as a
		// local Broadcast (mempool + admission when mounted); malformed
		// payloads are dropped.
		_, _ = n.Broadcast(ctx, m.Payload)
	default:
		n.bcast.HandleMessage(n.ctx(ctx), from, msg)
	}
}

// HandleTimer implements proto.Handler.
func (n *Node) HandleTimer(ctx proto.Context, payload any) {
	switch payload.(type) {
	case mineTimer:
		n.mine(ctx)
		ctx.SetTimer(n.nextMineDelay(ctx), mineTimer{})
	default:
		n.bcast.HandleTimer(n.ctx(ctx), payload)
	}
}

func (n *Node) handleBlock(ctx proto.Context, from proto.NodeID, bm *BlockMsg) {
	blk, err := bm.toBlock()
	if err != nil {
		return
	}
	if !chain.CheckPoW(blk.Hash(), n.cfg.DifficultyBits) {
		return
	}
	if err := n.chain.Add(blk); err != nil {
		if errors.Is(err, chain.ErrDuplicateBlock) {
			return
		}
		// Orphans and height gaps are dropped in this toy chain; real
		// nodes would request ancestors.
		return
	}
	n.acceptBlock(blk)
	// Blocks use plain flood-and-prune: low latency for miner fairness
	// (§II), no privacy by design. Forward the block itself.
	if n.blocks.MarkSeen(blockFloodID(blk)) {
		for _, nb := range ctx.Neighbors() {
			if nb != from {
				ctx.Send(nb, bm)
			}
		}
	}
}

// blockFloodID keys block floods by block hash.
func blockFloodID(b *chain.Block) proto.MsgID {
	h := b.Hash()
	var id proto.MsgID
	copy(id[:], h[:proto.MsgIDSize])
	return id
}

func (n *Node) acceptBlock(blk *chain.Block) {
	n.refreshIncluded()
	if n.cfg.OnBlock != nil {
		n.cfg.OnBlock(blk)
	}
}

// refreshIncluded rebuilds the main-chain transaction set when the head
// moves. Transactions stay in the mempool; the miner filters against
// this set, so a transaction reorged out of the chain becomes eligible
// again instead of being lost.
func (n *Node) refreshIncluded() {
	head := n.chain.Head()
	if head == nil {
		return
	}
	h := head.Hash()
	if h == n.lastHead {
		return
	}
	n.lastHead = h
	clear(n.included)
	for _, b := range n.chain.MainChain() {
		for _, tx := range b.Txs {
			n.included[tx.ID()] = struct{}{}
		}
	}
}

func (n *Node) mine(ctx proto.Context) {
	parent := chain.GenesisHash
	height := uint64(1)
	if head := n.chain.Head(); head != nil {
		parent = head.Hash()
		height = head.Height + 1
	}
	n.refreshIncluded()
	candidates := n.mempool.Best(0)
	txs := make([]*chain.Tx, 0, maxBlockTxs)
	for _, tx := range candidates {
		if _, done := n.included[tx.ID()]; done {
			continue
		}
		txs = append(txs, tx)
		if len(txs) >= maxBlockTxs {
			break
		}
	}
	blk := &chain.Block{
		Height:   height,
		Parent:   parent,
		Miner:    ctx.Self(),
		TimeNano: int64(ctx.Now()),
		Txs:      txs,
	}
	// Randomize the starting nonce so equal-speed miners do not find
	// identical solutions.
	blk.PowNonce = ctx.Rand().Uint64()
	if !chain.Mine(blk, n.cfg.DifficultyBits, n.cfg.MineBudget) {
		return
	}
	if err := n.chain.Add(blk); err != nil {
		return
	}
	n.acceptBlock(blk)
	msg := fromBlock(blk)
	for _, nb := range ctx.Neighbors() {
		ctx.Send(nb, msg)
	}
	n.blocks.MarkSeen(blockFloodID(blk))
}
