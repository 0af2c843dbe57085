package chain

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/proto"
)

func TestTxRoundTrip(t *testing.T) {
	tx := &Tx{Nonce: 7, Fee: 1000, Payload: []byte("pay alice")}
	got, err := DecodeTx(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Nonce != tx.Nonce || got.Fee != tx.Fee || string(got.Payload) != "pay alice" {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.ID() != tx.ID() {
		t.Error("IDs differ after round trip")
	}
	if _, err := DecodeTx([]byte{1, 2}); err == nil {
		t.Error("short tx accepted")
	}
	if _, err := DecodeTx(append(tx.Encode(), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestTxIDQuick(t *testing.T) {
	f := func(nonce, fee uint64, payload []byte) bool {
		a := &Tx{Nonce: nonce, Fee: fee, Payload: payload}
		b, err := DecodeTx(a.Encode())
		return err == nil && a.ID() == b.ID()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMempoolOrdering(t *testing.T) {
	m := NewMempool()
	lo := &Tx{Nonce: 1, Fee: 10}
	mid := &Tx{Nonce: 2, Fee: 50}
	hi := &Tx{Nonce: 3, Fee: 99}
	for _, tx := range []*Tx{lo, hi, mid} {
		if !m.Add(tx) {
			t.Fatal("fresh Add returned false")
		}
	}
	if m.Add(hi) {
		t.Error("duplicate Add returned true")
	}
	best := m.Best(2)
	if len(best) != 2 || best[0].Fee != 99 || best[1].Fee != 50 {
		t.Errorf("Best(2) = %v", best)
	}
	if got := len(m.Best(0)); got != 3 {
		t.Errorf("Best(0) = %d txs, want all 3", got)
	}
	m.Remove(hi.ID())
	if m.Has(hi.ID()) || m.Len() != 2 {
		t.Error("Remove failed")
	}
}

func TestMempoolAddEncoded(t *testing.T) {
	m := NewMempool()
	tx := &Tx{Nonce: 5, Fee: 42, Payload: []byte("x")}
	got, err := m.AddEncoded(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != tx.ID() || !m.Has(tx.ID()) {
		t.Error("AddEncoded mismatch")
	}
	if _, err := m.AddEncoded([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPoWMineAndCheck(t *testing.T) {
	b := &Block{Height: 1, Parent: GenesisHash, Miner: 3, TimeNano: 12345}
	if !Mine(b, 8, 1_000_000) {
		t.Fatal("failed to mine at 8 bits")
	}
	if !CheckPoW(b.Hash(), 8) {
		t.Error("mined block fails CheckPoW")
	}
	if CheckPoW(b.Hash(), 200) {
		t.Error("impossible difficulty passed")
	}
	// Mining grinds upward from the current nonce: a solved block is
	// accepted on the first try, and a later start finds a later nonce.
	found := b.PowNonce
	if !Mine(b, 8, 1) || b.PowNonce != found {
		t.Errorf("re-mining a solved block moved its nonce from %d to %d", found, b.PowNonce)
	}
	b.PowNonce = found + 1
	if !Mine(b, 8, 1_000_000) || b.PowNonce <= found {
		t.Errorf("mining from %d found nonce %d", found+1, b.PowNonce)
	}
	// Zero-bit difficulty always passes.
	if !CheckPoW(BlockHash{0xff}, 0) {
		t.Error("difficulty 0 failed")
	}
}

func TestChainLongestRule(t *testing.T) {
	c := NewChain()
	b1 := &Block{Height: 1, Parent: GenesisHash, Miner: 1}
	if err := c.Add(b1); err != nil {
		t.Fatal(err)
	}
	if c.Height() != 1 || c.Head() != b1 {
		t.Fatal("head not at b1")
	}
	// Fork at height 1: first-seen wins.
	b1b := &Block{Height: 1, Parent: GenesisHash, Miner: 2, TimeNano: 1}
	if err := c.Add(b1b); err != nil {
		t.Fatal(err)
	}
	if c.Head() != b1 {
		t.Error("tie broke against first-seen")
	}
	// Extend the fork: head must switch.
	b2 := &Block{Height: 2, Parent: b1b.Hash(), Miner: 2}
	if err := c.Add(b2); err != nil {
		t.Fatal(err)
	}
	if c.Head() != b2 {
		t.Error("longest chain not adopted")
	}
	main := c.MainChain()
	if len(main) != 2 || main[0] != b1b || main[1] != b2 {
		t.Errorf("MainChain wrong: %v", main)
	}
}

func TestChainValidation(t *testing.T) {
	c := NewChain()
	if err := c.Add(&Block{Height: 2, Parent: GenesisHash}); !errors.Is(err, ErrBadHeight) {
		t.Errorf("genesis child at height 2: %v", err)
	}
	var bogus BlockHash
	bogus[0] = 0xaa
	if err := c.Add(&Block{Height: 1, Parent: bogus}); !errors.Is(err, ErrUnknownParent) {
		t.Errorf("orphan: %v", err)
	}
	b1 := &Block{Height: 1, Parent: GenesisHash}
	if err := c.Add(b1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(b1); !errors.Is(err, ErrDuplicateBlock) {
		t.Errorf("duplicate: %v", err)
	}
	if err := c.Add(&Block{Height: 5, Parent: b1.Hash()}); !errors.Is(err, ErrBadHeight) {
		t.Errorf("height jump: %v", err)
	}
}

func TestFeeShareAndTotalVariation(t *testing.T) {
	blocks := []*Block{
		{Miner: 1, Txs: []*Tx{{Fee: 60}}},
		{Miner: 2, Txs: []*Tx{{Fee: 20}, {Fee: 20}}},
	}
	share := FeeShare(blocks)
	if math.Abs(share[1]-0.6) > 1e-9 || math.Abs(share[2]-0.4) > 1e-9 {
		t.Errorf("FeeShare = %v", share)
	}
	hashpower := map[proto.NodeID]float64{1: 0.5, 2: 0.5}
	tv := TotalVariation(share, hashpower)
	if math.Abs(tv-0.1) > 1e-9 {
		t.Errorf("TotalVariation = %v, want 0.1", tv)
	}
	if tv := TotalVariation(share, share); tv != 0 {
		t.Errorf("self TV = %v", tv)
	}
	if got := FeeShare(nil); len(got) != 0 {
		t.Errorf("FeeShare(nil) = %v", got)
	}
}

func TestBlockHashChangesWithContent(t *testing.T) {
	base := &Block{Height: 1, Parent: GenesisHash, Miner: 1, TimeNano: 5}
	h1 := base.Hash()
	base.Txs = []*Tx{{Fee: 1}}
	if base.Hash() == h1 {
		t.Error("tx set not committed by hash")
	}
	base.PowNonce = 77
	h2 := base.Hash()
	base.PowNonce = 78
	if base.Hash() == h2 {
		t.Error("nonce not part of hash")
	}
}
