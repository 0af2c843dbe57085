// Package chain implements the blockchain substrate of the paper's
// scenario (§II): transactions with fees enter a mempool via the
// broadcast layer, miners bundle them into blocks, vote via proof of work
// (real SHA-256 difficulty on the TCP node, hashpower-weighted
// exponential arrivals in simulation), collect rewards plus fees, and
// the longest chain wins. The fairness motivation — broadcast latency
// decides which miner earns a transaction's fee — is quantified by the
// FeeShare helpers used in experiment E10.
package chain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/proto"
	"repro/internal/wire"
)

// TxID identifies a transaction (the MsgID of its encoding).
type TxID = proto.MsgID

// Tx is a transaction: an opaque payload plus the fee that motivates
// miners to include it quickly.
type Tx struct {
	Nonce   uint64
	Fee     uint64
	Payload []byte
}

// Encode serializes the transaction.
func (tx *Tx) Encode() []byte {
	w := wire.NewWriter(16 + len(tx.Payload))
	w.U64(tx.Nonce)
	w.U64(tx.Fee)
	w.ByteString(tx.Payload)
	return w.Bytes()
}

// DecodeTx parses a transaction encoding.
func DecodeTx(b []byte) (*Tx, error) {
	r := wire.NewReader(b)
	tx := &Tx{Nonce: r.U64(), Fee: r.U64(), Payload: r.ByteString()}
	if r.Err() != nil {
		return nil, fmt.Errorf("chain: decoding tx: %w", r.Err())
	}
	if r.Remaining() != 0 {
		return nil, errors.New("chain: trailing bytes after tx")
	}
	return tx, nil
}

// ID returns the transaction ID.
func (tx *Tx) ID() TxID { return proto.NewMsgID(tx.Encode()) }

// BlockHash is a block header hash.
type BlockHash [32]byte

// Block is one chain element.
type Block struct {
	Height   uint64
	Parent   BlockHash
	Miner    proto.NodeID
	TimeNano int64
	PowNonce uint64
	Txs      []*Tx
}

// headerBytes serializes the commitment the PoW nonce grinds over.
func (b *Block) headerBytes() []byte {
	w := wire.NewWriter(64)
	w.U64(b.Height)
	w.Bytes32([32]byte(b.Parent))
	w.NodeID(b.Miner)
	w.I64(b.TimeNano)
	var txRoot [32]byte
	h := sha256.New()
	for _, tx := range b.Txs {
		id := tx.ID()
		h.Write(id[:])
	}
	copy(txRoot[:], h.Sum(nil))
	w.Bytes32(txRoot)
	return w.Bytes()
}

// Hash returns the block hash (header including PoW nonce).
func (b *Block) Hash() BlockHash {
	hdr := b.headerBytes()
	buf := make([]byte, len(hdr)+8)
	copy(buf, hdr)
	binary.LittleEndian.PutUint64(buf[len(hdr):], b.PowNonce)
	return sha256.Sum256(buf)
}

// TotalFees sums the block's transaction fees.
func (b *Block) TotalFees() uint64 {
	var total uint64
	for _, tx := range b.Txs {
		total += tx.Fee
	}
	return total
}

// CheckPoW verifies the hash clears the difficulty (leading zero bits).
func CheckPoW(h BlockHash, difficultyBits int) bool {
	for i := 0; i < difficultyBits; i++ {
		if h[i/8]&(0x80>>(i%8)) != 0 {
			return false
		}
	}
	return true
}

// Mine grinds nonces upward from the block's current PowNonce until the
// difficulty is met or maxIters runs out. The toy difficulty keeps the
// TCP example responsive; simulation uses hashpower-weighted exponential
// arrivals instead.
func Mine(b *Block, difficultyBits int, maxIters uint64) bool {
	start := b.PowNonce
	for i := uint64(0); i < maxIters; i++ {
		b.PowNonce = start + i
		if CheckPoW(b.Hash(), difficultyBits) {
			return true
		}
	}
	return false
}

// Mempool orders pending transactions by fee (highest first).
type Mempool struct {
	txs map[TxID]*Tx
}

// NewMempool returns an empty pool.
func NewMempool() *Mempool { return &Mempool{txs: make(map[TxID]*Tx)} }

// Add inserts a transaction; duplicates are ignored. It reports whether
// the transaction was new.
func (m *Mempool) Add(tx *Tx) bool {
	id := tx.ID()
	if _, ok := m.txs[id]; ok {
		return false
	}
	m.txs[id] = tx
	return true
}

// AddEncoded decodes and inserts a broadcast payload; non-transactions
// are rejected.
func (m *Mempool) AddEncoded(b []byte) (*Tx, error) {
	tx, err := DecodeTx(b)
	if err != nil {
		return nil, err
	}
	m.Add(tx)
	return tx, nil
}

// Has reports whether the pool holds the transaction.
func (m *Mempool) Has(id TxID) bool {
	_, ok := m.txs[id]
	return ok
}

// Len returns the pool size.
func (m *Mempool) Len() int { return len(m.txs) }

// Best returns up to n transactions by descending fee (ties by ID for
// determinism).
func (m *Mempool) Best(n int) []*Tx {
	out := make([]*Tx, 0, len(m.txs))
	for _, tx := range m.txs {
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fee != out[j].Fee {
			return out[i].Fee > out[j].Fee
		}
		a, b := out[i].ID(), out[j].ID()
		return bytes.Compare(a[:], b[:]) < 0
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Remove drops transactions (e.g. after block inclusion).
func (m *Mempool) Remove(ids ...TxID) {
	for _, id := range ids {
		delete(m.txs, id)
	}
}

// Chain errors.
var (
	// ErrUnknownParent indicates a block whose parent is missing.
	ErrUnknownParent = errors.New("chain: unknown parent")
	// ErrBadHeight indicates height != parent height + 1.
	ErrBadHeight = errors.New("chain: bad height")
	// ErrDuplicateBlock indicates the block is already stored.
	ErrDuplicateBlock = errors.New("chain: duplicate block")
)

// Chain stores blocks and tracks the longest-chain head. The genesis
// block is implicit (zero hash at height 0).
type Chain struct {
	blocks map[BlockHash]*Block
	head   *Block
}

// NewChain returns a chain containing only the implicit genesis.
func NewChain() *Chain { return &Chain{blocks: make(map[BlockHash]*Block)} }

// GenesisHash is the parent of height-1 blocks.
var GenesisHash = BlockHash{}

// Head returns the tip of the longest chain, or nil when only genesis
// exists.
func (c *Chain) Head() *Block { return c.head }

// Height returns the longest-chain height (0 for genesis-only).
func (c *Chain) Height() uint64 {
	if c.head == nil {
		return 0
	}
	return c.head.Height
}

// Get returns a stored block.
func (c *Chain) Get(h BlockHash) *Block { return c.blocks[h] }

// Add validates and stores a block; the head moves to the highest block
// (first-seen wins ties, matching Bitcoin's rule).
func (c *Chain) Add(b *Block) error {
	h := b.Hash()
	if _, dup := c.blocks[h]; dup {
		return ErrDuplicateBlock
	}
	if b.Parent != GenesisHash {
		parent := c.blocks[b.Parent]
		if parent == nil {
			return ErrUnknownParent
		}
		if b.Height != parent.Height+1 {
			return fmt.Errorf("%w: %d after parent %d", ErrBadHeight, b.Height, parent.Height)
		}
	} else if b.Height != 1 {
		return fmt.Errorf("%w: genesis child at height %d", ErrBadHeight, b.Height)
	}
	c.blocks[h] = b
	if c.head == nil || b.Height > c.head.Height {
		c.head = b
	}
	return nil
}

// MainChain returns the blocks from height 1 to the head.
func (c *Chain) MainChain() []*Block {
	var out []*Block
	for b := c.head; b != nil; {
		out = append(out, b)
		if b.Parent == GenesisHash {
			break
		}
		b = c.blocks[b.Parent]
	}
	// Reverse to ascending height.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// FeeShare returns, per miner, the fraction of all main-chain fees it
// collected. With instant propagation this converges to the hashpower
// distribution; broadcast latency skews it (§II's fairness argument).
func FeeShare(blocks []*Block) map[proto.NodeID]float64 {
	fees := make(map[proto.NodeID]uint64)
	var total uint64
	for _, b := range blocks {
		f := b.TotalFees()
		fees[b.Miner] += f
		total += f
	}
	out := make(map[proto.NodeID]float64, len(fees))
	if total == 0 {
		return out
	}
	for m, f := range fees {
		out[m] = float64(f) / float64(total)
	}
	return out
}

// TotalVariation returns ½·Σ|p−q| between two distributions over miners —
// the unfairness metric of experiment E10 (0 = perfectly fair).
func TotalVariation(p, q map[proto.NodeID]float64) float64 {
	keys := make(map[proto.NodeID]bool)
	for k := range p {
		keys[k] = true
	}
	for k := range q {
		keys[k] = true
	}
	var tv float64
	for k := range keys {
		d := p[k] - q[k]
		if d < 0 {
			d = -d
		}
		tv += d
	}
	return tv / 2
}
