package core

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/proto"
)

// recoveryMutate turns on the loss-tolerance stack: Phase-1
// ack/retransmit, failover eviction, and (where the test wants it) the
// fail-safe flood.
func recoveryMutate(floor int, failSafe time.Duration) func(*Config) {
	return func(cfg *Config) {
		cfg.DCNet.RetransmitTimeout = 30 * time.Millisecond
		cfg.DCNet.RetryBudget = 2
		cfg.DCNet.Timeout = 150 * time.Millisecond
		cfg.DCNet.EvictAfter = 2
		cfg.DCNet.MinMembers = floor
		cfg.FailSafe = failSafe
	}
}

// electedMember replays the §IV-B election over a member set — the
// test-side oracle for which group member a payload selects.
func electedMember(hashes map[proto.NodeID][32]byte, members []proto.NodeID, payload []byte) proto.NodeID {
	target := crypto.HashPayload(payload)
	best := proto.NoNode
	var bestDist [32]byte
	for _, m := range members {
		d := crypto.DistanceTo(hashes[m], target)
		if best == proto.NoNode || crypto.XORDistance(d, bestDist) < 0 {
			best, bestDist = m, d
		}
	}
	return best
}

// TestFailoverReelectsVirtualSource crashes the very member the payload
// hash elects as initial virtual source, before Phase 1 completes. The
// survivors must evict it, finish the round among themselves, and —
// because the election runs over the live membership — elect a live
// member, so the broadcast still covers everyone except the corpse.
func TestFailoverReelectsVirtualSource(t *testing.T) {
	g := testGraph(t, 100, 8, 3)
	group := []proto.NodeID{3, 17, 42, 77, 99}
	hashes := SimHashes(g.N())
	origin := group[0]

	// Pick a payload whose elected virtual source is not the originator,
	// so crashing the electee never touches the node injecting traffic.
	payload := []byte("re-elect me 0")
	for i := 0; electedMember(hashes, group, payload) == origin && i < 32; i++ {
		payload = append(payload[:len(payload)-1], byte('1'+i))
	}
	victim := electedMember(hashes, group, payload)
	if victim == origin {
		t.Fatal("could not find a payload electing a non-origin member")
	}

	w := newWorld(t, g, group, 11, recoveryMutate(3, 0))
	w.net.Crash(victim)
	id, err := w.net.Originate(origin, payload)
	if err != nil {
		t.Fatal(err)
	}
	w.run(10 * time.Second)

	if got := w.net.Delivered(id); got != g.N()-1 {
		t.Fatalf("delivered %d/%d; want all but the crashed electee", got, g.N()-1)
	}
	m := w.protos[origin].Member()
	if m.Evictions != 1 || m.GroupSize() != len(group)-1 {
		t.Errorf("origin member evictions=%d size=%d, want 1 and %d", m.Evictions, m.GroupSize(), len(group)-1)
	}
	if live := electedMember(hashes, m.Members(), payload); live == victim {
		t.Error("live election still selects the evicted member")
	}
}

// TestDissolveFallbackInjectsDirectly pins the below-floor path: with
// the floor at the full group size, one crash dissolves the group — and
// under recovery mode the originator's queued payload is injected
// straight into Phase 2 instead of burning with the group, so coverage
// degrades to "everyone but the corpse" rather than to zero.
func TestDissolveFallbackInjectsDirectly(t *testing.T) {
	g := testGraph(t, 100, 8, 5)
	group := []proto.NodeID{3, 17, 42, 77, 99}
	w := newWorld(t, g, group, 13, recoveryMutate(len(group), time.Second))

	victim := group[2]
	w.net.Crash(victim)
	payload := []byte("fallback-injected tx")
	id, err := w.net.Originate(group[0], payload)
	if err != nil {
		t.Fatal(err)
	}
	w.run(10 * time.Second)

	m := w.protos[group[0]].Member()
	if !m.Stopped() {
		t.Fatal("group did not dissolve below the floor")
	}
	if m.Pending() != 0 {
		t.Errorf("%d payloads left in the dissolved member's queue", m.Pending())
	}
	if got := w.net.Delivered(id); got != g.N()-1 {
		t.Errorf("delivered %d/%d after dissolve fallback", got, g.N()-1)
	}

	// A broadcast attempted after the dissolve also degrades gracefully
	// instead of erroring.
	late := []byte("late tx after dissolve")
	lateID, err := w.net.Originate(group[0], late)
	if err != nil {
		t.Fatalf("broadcast on dissolved group errored: %v", err)
	}
	w.run(10 * time.Second)
	if got := w.net.Delivered(lateID); got != g.N()-1 {
		t.Errorf("late broadcast delivered %d/%d", got, g.N()-1)
	}
}

// TestFailSafeRecoversLostDiffusion kills the virtual source right
// after it starts Phase 2: the token dies with it, no final-spread is
// ever emitted, and without recovery the broadcast would stall inside
// the infection ball. The group members' fail-safe must notice the
// flood never arrived and spread the payload themselves.
func TestFailSafeRecoversLostDiffusion(t *testing.T) {
	g := testGraph(t, 100, 8, 7)
	group := []proto.NodeID{3, 17, 42, 77, 99}
	hashes := SimHashes(g.N())
	origin := group[0]

	payload := []byte("failsafe-rescued 0")
	for i := 0; electedMember(hashes, group, payload) == origin && i < 32; i++ {
		payload = append(payload[:len(payload)-1], byte('1'+i))
	}
	victim := electedMember(hashes, group, payload)
	if victim == origin {
		t.Fatal("could not find a payload electing a non-origin member")
	}

	const failSafe = time.Second
	w := newWorld(t, g, group, 17, recoveryMutate(3, failSafe))
	id, err := w.net.Originate(origin, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-mode data round completes ~106 ms in; the electee starts
	// diffusion immediately. Crash it before its first virtual-source
	// round timer (+50 ms) fires. (It has already delivered locally by
	// then, so full coverage is still N.)
	w.net.At(120*time.Millisecond, victim, func() { w.net.Crash(victim) })
	w.run(15 * time.Second)

	if got := w.net.Delivered(id); got != g.N() {
		t.Fatalf("delivered %d/%d; fail-safe did not rescue the stalled diffusion", got, g.N())
	}
	// The rescue must have come from the fail-safe, not a lucky final
	// spread: no survivor saw a final-spread instruction... observable
	// as delivery times stretching past the fail-safe deadline.
	var late int
	for _, at := range collectDeliveryTimes(w, id) {
		if at > failSafe {
			late++
		}
	}
	if late == 0 {
		t.Error("every delivery predates the fail-safe deadline — the fail-safe never acted")
	}
}

// TestCustodyRescuesCrashedOriginator pins the one failure Phase-1
// reliability cannot repair — the originator dying before its queued
// payload wins a DC data round. Under recovery mode the payload was
// deposited with every group-mate at Broadcast time, so after the
// staggered deadline exactly one live custodian must notice the
// broadcast never surfaced and launch Phase 2 in the originator's
// stead.
func TestCustodyRescuesCrashedOriginator(t *testing.T) {
	g := testGraph(t, 100, 8, 21)
	group := []proto.NodeID{3, 17, 42, 77, 99}
	origin := group[0]
	w := newWorld(t, g, group, 23, recoveryMutate(3, 500*time.Millisecond))

	payload := []byte("custody-rescued tx")
	id, err := w.net.Originate(origin, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The deposits go out inside Broadcast; kill the originator after
	// they are on the wire but well before the first data round (~100 ms)
	// could launch the payload.
	w.net.At(10*time.Millisecond, origin, func() { w.net.Crash(origin) })
	w.run(15 * time.Second)

	if got := w.net.Delivered(id); got != g.N()-1 {
		t.Fatalf("delivered %d/%d; custody handoff did not rescue the broadcast", got, g.N()-1)
	}
	handoffs := 0
	for _, m := range group[1:] {
		handoffs += w.protos[m].RelHandoffs()
	}
	if handoffs != 1 {
		t.Errorf("%d custodians injected, want exactly 1 (staggered deadlines must elect a single actor)", handoffs)
	}
}

// TestCustodySurvivesCustodianChurn overlaps the two failures: a
// custodian is down when the deposit first goes out, and the originator
// then dies anyway. The deposit's retry budget must outlast the
// custodian's outage, so the rescue still happens.
func TestCustodySurvivesCustodianChurn(t *testing.T) {
	g := testGraph(t, 100, 8, 25)
	group := []proto.NodeID{3, 17, 42, 77, 99}
	origin := group[0]
	w := newWorld(t, g, group, 27, recoveryMutate(3, 500*time.Millisecond))

	flaky := group[1]
	w.net.Crash(flaky)
	payload := []byte("custody vs churn tx")
	id, err := w.net.Originate(origin, payload)
	if err != nil {
		t.Fatal(err)
	}
	w.net.At(10*time.Millisecond, origin, func() { w.net.Crash(origin) })
	// Outage of 300 ms against a 30 ms RTO × 20-retry deposit budget.
	w.net.At(300*time.Millisecond, flaky, func() { w.net.Restore(flaky) })
	w.run(15 * time.Second)

	if got := w.net.Delivered(id); got != g.N()-1 {
		t.Fatalf("delivered %d/%d; custody did not survive the custodian outage", got, g.N()-1)
	}
}

// TestCustodyStandsDownOnSuccess pins the silent-resolution path: when
// the originator lives and the broadcast completes normally, every
// deposit resolves without a handoff — custody adds no injections to a
// healthy run.
func TestCustodyStandsDownOnSuccess(t *testing.T) {
	g := testGraph(t, 100, 8, 29)
	group := []proto.NodeID{3, 17, 42, 77, 99}
	w := newWorld(t, g, group, 31, recoveryMutate(3, 500*time.Millisecond))

	id, err := w.net.Originate(group[0], []byte("healthy custody tx"))
	if err != nil {
		t.Fatal(err)
	}
	w.run(15 * time.Second)

	if got := w.net.Delivered(id); got != g.N() {
		t.Fatalf("delivered %d/%d", got, g.N())
	}
	for _, m := range group {
		if h := w.protos[m].RelHandoffs(); h != 0 {
			t.Errorf("member %d injected %d custody handoffs in a healthy run", m, h)
		}
	}
}

func collectDeliveryTimes(w *world, id proto.MsgID) []time.Duration {
	var out []time.Duration
	for _, at := range w.net.Deliveries(id).All() {
		out = append(out, at)
	}
	return out
}

// TestRecoveryOffPreservesStrictness pins the default: without FailSafe
// the strict protocol still burns the group on a below-floor dissolve
// and the queued payload goes nowhere — the documented trade (privacy
// over delivery) the recovery knobs exist to flip.
func TestRecoveryOffPreservesStrictness(t *testing.T) {
	g := testGraph(t, 64, 8, 9)
	group := []proto.NodeID{3, 17, 42, 60}
	w := newWorld(t, g, group, 19, func(cfg *Config) {
		cfg.DCNet.RetransmitTimeout = 30 * time.Millisecond
		cfg.DCNet.RetryBudget = 2
		cfg.DCNet.Timeout = 150 * time.Millisecond
		cfg.DCNet.EvictAfter = 2
		cfg.DCNet.MinMembers = len(group) // any eviction dissolves
		// FailSafe deliberately zero.
	})
	w.net.Crash(group[1])
	id, err := w.net.Originate(group[0], []byte("strictly private tx"))
	if err != nil {
		t.Fatal(err)
	}
	w.run(5 * time.Second)
	if !w.protos[group[0]].Member().Stopped() {
		t.Fatal("group did not dissolve")
	}
	// The round never completed, so not even the origin reports local
	// delivery at the broadcast layer: the payload burned with the group.
	if got := w.net.Delivered(id); got != 0 {
		t.Errorf("delivered %d nodes; strict mode must not fall back", got)
	}
}
