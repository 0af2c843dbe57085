package node

import (
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/workload"
)

// TestNodeAdmissionProbe mounts the workload admission layer on full
// nodes and checks the Probe counters for each backpressure policy: a
// same-instant burst of five past a queue cap of two, then a duplicate
// of the first transaction. Reject drops the overflow; Block re-offers
// it on the wrapper's retry timer, which reaches the wrapper through
// Node.HandleTimer, until the paced queue admits everything;
// DropOldest evicts the queue head for each newcomer. The duplicate
// dedups under every policy, and the paced queue launches exactly the
// transactions it kept.
func TestNodeAdmissionProbe(t *testing.T) {
	for _, tc := range []struct {
		policy   workload.Policy
		want     workload.Stats
		launched []int // indices of the transactions that disseminate
	}{
		{workload.Reject, workload.Stats{Admitted: 2, Deduped: 1, Dropped: 3, PeakQueueDepth: 2}, []int{0, 1}},
		{workload.Block, workload.Stats{Admitted: 5, Deduped: 1, Dropped: 0, PeakQueueDepth: 2}, []int{0, 1, 2, 3, 4}},
		{workload.DropOldest, workload.Stats{Admitted: 5, Deduped: 1, Dropped: 3, PeakQueueDepth: 2}, []int{3, 4}},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			group := []proto.NodeID{1, 2, 3, 4}
			w := newBlockchainWorld(t, 12, group, nil, func(_ proto.NodeID, cfg *Config) {
				cfg.Admission = &workload.AdmissionConfig{QueueCap: 2, Policy: tc.policy}
				cfg.SubmitService = 50 * time.Millisecond
			})

			var txs []*chain.Tx
			for i := 0; i < 5; i++ {
				txs = append(txs, &chain.Tx{Nonce: uint64(i + 1), Fee: 10, Payload: []byte{byte(i)}})
			}
			for _, tx := range txs {
				if _, err := w.net.Originate(3, tx.Encode()); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.net.Originate(3, txs[0].Encode()); err != nil {
				t.Fatal(err)
			}
			w.net.RunUntil(w.net.Now() + 30*time.Second)

			if got := w.nodes[3].Probe().Admission; got != tc.want {
				t.Fatalf("probe admission = %+v, want %+v", got, tc.want)
			}
			// Every transaction entered the submitter's mempool
			// (authoritative regardless of the broadcast verdict); the
			// launched ones disseminated everywhere and no other did.
			if got := w.nodes[3].Mempool().Len(); got != 5 {
				t.Fatalf("submitter mempool has %d txs, want 5", got)
			}
			for i, tx := range txs {
				launched := slices.Contains(tc.launched, i)
				for id, n := range w.nodes {
					if id != 3 && n.Mempool().Has(tx.ID()) != launched {
						t.Fatalf("node %d mempool holds tx %d: %v, want %v", id, i, !launched, launched)
					}
				}
			}
			// Submissions through a node are off-schedule: they launch
			// without a launch record.
			if l := w.nodes[3].bcast.(*workload.Wrapper).Launches(); len(l) != 0 {
				t.Fatalf("off-schedule submissions left %d launch records", len(l))
			}
			// A transaction learned through gossip dedups later
			// submissions.
			before := w.nodes[7].Probe().Admission
			if _, err := w.net.Originate(7, txs[tc.launched[0]].Encode()); err != nil {
				t.Fatal(err)
			}
			w.net.RunUntil(w.net.Now() + time.Second)
			after := w.nodes[7].Probe().Admission
			if after.Deduped != before.Deduped+1 {
				t.Fatalf("gossip-known tx re-submission: deduped %d -> %d, want +1", before.Deduped, after.Deduped)
			}
		})
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
	if p.Admission != (workload.Stats{}) {
		t.Fatalf("default node reports admission counters: %+v", p.Admission)
	}
}
