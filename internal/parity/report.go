package parity

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Accounting is one run's wire-level table: per-type and total message
// and marshaled-byte counts, delivery coverage, and duration (virtual
// for the simulator, wall-clock injection→last-delivery for the real
// cluster).
type Accounting struct {
	Msgs  map[proto.MsgType]int64
	Bytes map[proto.MsgType]int64

	TotalMsgs  int64
	TotalBytes int64
	Delivered  int
	Elapsed    time.Duration

	// NetemDropped counts messages the run's netem loss model killed
	// (zero without a shaped scenario). The two sides may differ by a
	// handful on tie-flips — a node whose two candidate first-senders
	// arrive near-simultaneously excludes a different neighbor from its
	// forwards, consulting a different link's drop word — but every such
	// divergent link points at an already-delivered node, so counts,
	// bytes and coverage stay exact (see Scenario.Netem).
	NetemDropped int64
	// DeliveryTimes is each node's first-delivery time (virtual for the
	// sim, wall-clock since injection for the cluster); -1 marks an
	// undelivered node.
	DeliveryTimes []time.Duration

	// Real-run extras (zero on the sim side): frames put on the stream
	// including connection handshakes, their framed byte total, messages
	// received across the cluster, queue-full drops, and codec-rejected
	// frames.
	TxFrames     int64
	TxFrameBytes int64
	RxMsgs       int64
	Dropped      int64
	BadFrames    int64
}

func newAccounting() *Accounting {
	return &Accounting{
		Msgs:  make(map[proto.MsgType]int64),
		Bytes: make(map[proto.MsgType]int64),
	}
}

// Divergence is one detected mismatch, tagged with the phase and message
// type it belongs to.
type Divergence struct {
	Phase string
	Type  string
	Kind  string // "messages", "bytes", "delivered", "framing", "timing"
	Sim   int64
	Real  int64
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s / %s: %s diverge (sim %d, real %d)", d.Phase, d.Type, d.Kind, d.Sim, d.Real)
}

// Row is the per-type diff line of the report table.
type Row struct {
	Type                proto.MsgType
	Name, Phase         string
	SimMsgs, RealMsgs   int64
	SimBytes, RealBytes int64
	OK                  bool
}

// Report is the structured outcome of one differential run.
type Report struct {
	Scenario Scenario
	Sim      *Accounting
	Real     *Accounting
	Rows     []Row
	// Divergences lists every exactness violation (empty on a clean
	// run). OK is its emptiness plus the timing-tolerance check.
	Divergences []Divergence
	// FramingOK asserts the real stream's framed byte total equals the
	// marshaled bytes plus one 4-byte header per message frame plus the
	// 8-byte connection handshakes — i.e. the byte accounting and the
	// framing layer agree about what went on the wire.
	FramingOK bool
	// TimingOK is the wall-tolerance check (always true when no
	// tolerance was declared).
	TimingOK bool
	// Dist is the delivery-time distribution comparison (nil unless
	// both sides recorded per-node times); DistOK is its
	// quantile-tolerance verdict, always true when no DistTolerance was
	// declared.
	Dist   *DistDiff
	DistOK bool
	OK     bool
}

// compare diffs the two accountings type by type.
func compare(sc *Scenario, simA, realA *Accounting) *Report {
	r := &Report{Scenario: *sc, Sim: simA, Real: realA, TimingOK: true}

	seen := make(map[proto.MsgType]bool)
	for _, wt := range wireTypes {
		sm, rm := simA.Msgs[wt.Type], realA.Msgs[wt.Type]
		sb, rb := simA.Bytes[wt.Type], realA.Bytes[wt.Type]
		seen[wt.Type] = true
		if sm == 0 && rm == 0 {
			continue
		}
		row := Row{
			Type: wt.Type, Name: wt.Name, Phase: wt.Phase,
			SimMsgs: sm, RealMsgs: rm, SimBytes: sb, RealBytes: rb,
			OK: sm == rm && sb == rb,
		}
		r.Rows = append(r.Rows, row)
		if sm != rm {
			r.Divergences = append(r.Divergences, Divergence{Phase: wt.Phase, Type: wt.Name, Kind: "messages", Sim: sm, Real: rm})
		}
		if sb != rb {
			r.Divergences = append(r.Divergences, Divergence{Phase: wt.Phase, Type: wt.Name, Kind: "bytes", Sim: sb, Real: rb})
		}
	}
	// Types outside the canonical index still participate via totals;
	// flag them explicitly — counts and bytes — so nothing escapes the
	// diff unnamed.
	unindexed := make(map[proto.MsgType]bool)
	for t := range simA.Msgs {
		if !seen[t] {
			unindexed[t] = true
		}
	}
	for t := range realA.Msgs {
		if !seen[t] {
			unindexed[t] = true
		}
	}
	for t := range unindexed {
		name := fmt.Sprintf("type %#04x", uint16(t))
		if simA.Msgs[t] != realA.Msgs[t] {
			r.Divergences = append(r.Divergences, Divergence{
				Phase: phaseOf(t), Type: name,
				Kind: "messages", Sim: simA.Msgs[t], Real: realA.Msgs[t],
			})
		}
		if simA.Bytes[t] != realA.Bytes[t] {
			r.Divergences = append(r.Divergences, Divergence{
				Phase: phaseOf(t), Type: name,
				Kind: "bytes", Sim: simA.Bytes[t], Real: realA.Bytes[t],
			})
		}
	}
	if simA.TotalMsgs != realA.TotalMsgs {
		r.Divergences = append(r.Divergences, Divergence{Phase: "total", Type: "all", Kind: "messages", Sim: simA.TotalMsgs, Real: realA.TotalMsgs})
	}
	if simA.TotalBytes != realA.TotalBytes {
		r.Divergences = append(r.Divergences, Divergence{Phase: "total", Type: "all", Kind: "bytes", Sim: simA.TotalBytes, Real: realA.TotalBytes})
	}
	if simA.Delivered != realA.Delivered {
		r.Divergences = append(r.Divergences, Divergence{Phase: "delivery", Type: "coverage", Kind: "delivered", Sim: int64(simA.Delivered), Real: int64(realA.Delivered)})
	}
	// Per-node delivery-set equality — stricter than the count above:
	// with identical seeds (and, when shaped, identical drop decisions)
	// the same nodes must deliver, not merely the same number of them.
	if len(simA.DeliveryTimes) > 0 && len(realA.DeliveryTimes) == len(simA.DeliveryTimes) {
		var onlySim, onlyReal int64
		for i := range simA.DeliveryTimes {
			simHas, realHas := simA.DeliveryTimes[i] >= 0, realA.DeliveryTimes[i] >= 0
			if simHas && !realHas {
				onlySim++
			} else if realHas && !simHas {
				onlyReal++
			}
		}
		if onlySim > 0 || onlyReal > 0 {
			r.Divergences = append(r.Divergences, Divergence{
				Phase: "delivery", Type: "set", Kind: "delivered",
				Sim: onlySim, Real: onlyReal,
			})
		}
	}
	// The simulator's network is lossless; any transport-side loss is a
	// divergence even when the send-side counters happen to agree.
	if realA.Dropped > 0 {
		r.Divergences = append(r.Divergences, Divergence{Phase: "transport", Type: "send queue", Kind: "messages", Sim: 0, Real: realA.Dropped})
	}
	if realA.BadFrames > 0 {
		r.Divergences = append(r.Divergences, Divergence{Phase: "transport", Type: "codec", Kind: "messages", Sim: 0, Real: realA.BadFrames})
	}
	// Conservation across the cluster: at quiescence every counted send
	// (minus queue drops and seeded netem drops) must have been received
	// and decoded somewhere — the rx-side check that catches in-flight
	// loss the tx-only diff cannot see.
	if realA.TotalMsgs-realA.Dropped-realA.NetemDropped != realA.RxMsgs+realA.BadFrames {
		r.Divergences = append(r.Divergences, Divergence{
			Phase: "transport", Type: "in-flight", Kind: "messages",
			Sim: realA.TotalMsgs - realA.Dropped - realA.NetemDropped, Real: realA.RxMsgs + realA.BadFrames,
		})
	}

	// Framing identity: message frames carry a 4-byte header each;
	// handshake frames are 4-byte bodies with the same header. TxFrames
	// counts both (queue-full drops included, as they were counted at
	// marshal time).
	handshakes := realA.TxFrames - realA.TotalMsgs
	wantFramed := realA.TotalBytes + wire.FrameHeaderLen*realA.TotalMsgs + 2*wire.FrameHeaderLen*handshakes
	r.FramingOK = realA.TxFrameBytes == wantFramed && handshakes >= 0
	if !r.FramingOK {
		r.Divergences = append(r.Divergences, Divergence{Phase: "transport", Type: "framing", Kind: "framing", Sim: wantFramed, Real: realA.TxFrameBytes})
	}

	// Delivery-time distributions: the quantity beyond exactness once a
	// netem profile shapes both runs — checked against the declared
	// quantile tolerance, reported either way.
	r.DistOK = true
	if len(simA.DeliveryTimes) > 0 && len(realA.DeliveryTimes) > 0 {
		r.Dist = compareDist(simA.DeliveryTimes, realA.DeliveryTimes, sc.DistTolerance)
		if sc.DistTolerance > 0 && !r.Dist.OK {
			r.DistOK = false
			for _, q := range r.Dist.Quantiles {
				if !q.OK {
					r.Divergences = append(r.Divergences, Divergence{
						Phase: "timing", Type: fmt.Sprintf("p%02.0f", q.Q*100),
						Kind: "distribution", Sim: int64(q.Sim), Real: int64(q.Real),
					})
				}
			}
		}
	}

	if sc.WallTolerance > 0 {
		limit := time.Duration(float64(simA.Elapsed)*sc.WallTolerance) + 2*time.Second
		r.TimingOK = realA.Elapsed <= limit
		if !r.TimingOK {
			r.Divergences = append(r.Divergences, Divergence{
				Phase: "timing", Type: "wall-clock", Kind: "timing",
				Sim: int64(simA.Elapsed), Real: int64(realA.Elapsed),
			})
		}
	}
	r.OK = len(r.Divergences) == 0
	return r
}

// Table renders the per-type diff in the experiment-table format.
func (r *Report) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("parity — %s over %s (N=%d, seed %d): simulator vs real transport",
			r.Scenario.Variant, r.Scenario.Transport, r.Scenario.N, r.Scenario.Seed),
		"phase", "type", "sim msgs", "real msgs", "sim bytes", "real bytes", "match",
	)
	for _, row := range r.Rows {
		t.AddRow(row.Phase, row.Name, row.SimMsgs, row.RealMsgs, row.SimBytes, row.RealBytes, mark(row.OK))
	}
	t.AddRow("total", "all", r.Sim.TotalMsgs, r.Real.TotalMsgs, r.Sim.TotalBytes, r.Real.TotalBytes,
		mark(r.Sim.TotalMsgs == r.Real.TotalMsgs && r.Sim.TotalBytes == r.Real.TotalBytes))
	t.AddRow("delivery", "coverage", int64(r.Sim.Delivered), int64(r.Real.Delivered), "-", "-",
		mark(r.Sim.Delivered == r.Real.Delivered))
	t.AddNote("sim duration %v (virtual), real %v (wall); framed stream bytes %d over %d frames",
		r.Sim.Elapsed, r.Real.Elapsed.Round(time.Millisecond), r.Real.TxFrameBytes, r.Real.TxFrames)
	if r.Scenario.Netem != nil {
		t.AddNote("netem profile %q: seeded drops sim %d / real %d", r.Scenario.Netem, r.Sim.NetemDropped, r.Real.NetemDropped)
	}
	if r.Dist != nil {
		t.AddNote("%s", r.Dist)
	}
	for _, d := range r.Divergences {
		t.AddNote("DIVERGENCE: %s", d)
	}
	return t
}

func mark(ok bool) string {
	if ok {
		return "="
	}
	return "DIFF"
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	b.WriteString(r.Table().Render())
	if r.OK {
		b.WriteString("parity: OK — real transport matches the simulator exactly\n")
	} else {
		fmt.Fprintf(&b, "parity: %d divergence(s)\n", len(r.Divergences))
	}
	return b.String()
}
