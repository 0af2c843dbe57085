package node

import (
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/workload"
)

// TestNodeAdmissionProbe mounts the workload admission layer on full
// nodes and checks the Probe counters: a same-instant burst past the
// queue cap rejects the overflow, a duplicate submission dedups, and
// the paced queue still launches everything it admitted.
func TestNodeAdmissionProbe(t *testing.T) {
	group := []proto.NodeID{1, 2, 3, 4}
	w := newBlockchainWorld(t, 12, group, nil, func(_ proto.NodeID, cfg *Config) {
		cfg.Admission = &workload.AdmissionConfig{QueueCap: 2, Policy: workload.Reject}
		cfg.SubmitService = 50 * time.Millisecond
	})

	var txs []*chain.Tx
	for i := 0; i < 5; i++ {
		txs = append(txs, &chain.Tx{Nonce: uint64(i + 1), Fee: 10, Payload: []byte{byte(i)}})
	}
	// Burst at one instant: cap 2 + Reject admits the first two and
	// rejects the rest.
	for _, tx := range txs {
		if _, err := w.net.Originate(3, tx.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate of an admitted transaction dedups.
	if _, err := w.net.Originate(3, txs[0].Encode()); err != nil {
		t.Fatal(err)
	}
	w.net.RunUntil(w.net.Now() + 30*time.Second)

	p := w.nodes[3].Probe()
	if p.Admitted != 2 || p.Dropped != 3 || p.Deduped != 1 || p.PeakQueueDepth != 2 {
		t.Fatalf("probe = %+v, want Admitted 2, Dropped 3, Deduped 1, PeakQueueDepth 2", p)
	}
	// Every transaction entered the submitter's mempool (authoritative
	// regardless of the broadcast verdict), and the two admitted ones
	// disseminated everywhere.
	if got := w.nodes[3].Mempool().Len(); got != 5 {
		t.Fatalf("submitter mempool has %d txs, want 5", got)
	}
	for _, n := range w.nodes {
		for _, tx := range txs[:2] {
			if !n.Mempool().Has(tx.ID()) {
				t.Fatalf("an admitted transaction never reached node mempools")
			}
		}
	}
	// A transaction learned through gossip dedups later submissions.
	before := w.nodes[7].Probe()
	if _, err := w.net.Originate(7, txs[0].Encode()); err != nil {
		t.Fatal(err)
	}
	w.net.RunUntil(w.net.Now() + time.Second)
	after := w.nodes[7].Probe()
	if after.Deduped != before.Deduped+1 {
		t.Fatalf("gossip-known tx re-submission: deduped %d -> %d, want +1", before.Deduped, after.Deduped)
	}
}

// TestProbeAdmissionDisabledZero checks the accessor contract with the
// layer unmounted: the default config reports zero admission counters.
func TestProbeAdmissionDisabledZero(t *testing.T) {
	n, err := New(Config{Core: core.Config{Hashes: core.SimHashes(4)}})
	if err != nil {
		t.Fatal(err)
	}
	p := n.Probe()
	if p.Admitted != 0 || p.Deduped != 0 || p.Dropped != 0 || p.PeakQueueDepth != 0 {
		t.Fatalf("default node reports admission counters: %+v", p)
	}
}
