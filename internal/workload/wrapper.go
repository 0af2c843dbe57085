package workload

import (
	"time"

	"repro/internal/proto"
)

// Launch records one scheduled transaction that cleared admission and
// entered the broadcast protocol.
type Launch struct {
	// Seq is the schedule index of the submission.
	Seq int
	// ID is the payload's message ID.
	ID proto.MsgID
	// Node is the launching node.
	Node proto.NodeID
	// SubmitAt is when the submission arrived at admission.
	SubmitAt time.Duration
	// LaunchAt is when the broadcast actually started; LaunchAt −
	// SubmitAt is the queueing delay.
	LaunchAt time.Duration
}

// Timer payloads private to the wrapper. submitEvent indexes the
// run's shared arrival schedule instead of carrying the Arrival, so
// injected control events stay tiny.
type (
	submitEvent struct{ seq int }
	retryEvent  struct{ p Pending }
	drainEvent  struct{}
)

// retryDelay is the re-offer delay for Blocked submissions.
const retryDelay = 10 * time.Millisecond

// Wrapper stacks the admission layer in front of a broadcast protocol,
// in a soak and in a full node under either runtime: submissions
// (scheduled arrivals, SubmitMsg from the wire, or direct Broadcast
// calls) pass through Admission, queue, and launch into the inner
// protocol at the configured service rate. All other traffic is
// transparently delegated, so the wrapped stack behaves exactly like
// the bare protocol once a payload is launched.
type Wrapper struct {
	inner proto.Broadcaster
	adm   *Admission
	sched []Arrival

	// service is the per-launch processing time; 0 launches admitted
	// submissions immediately (the queue never builds).
	service time.Duration

	draining   bool
	launches   []Launch
	launchErrs int
	cctx       admCtx
}

// admCtx is the Context the wrapper hands its inner protocol: it
// forwards everything but also marks locally delivered payloads seen
// in the admission table, so a node dedups submissions of transactions
// it already received through gossip — mempool semantics.
type admCtx struct {
	proto.Context
	w *Wrapper
}

// DeliverLocal implements proto.Context.
func (c *admCtx) DeliverLocal(id proto.MsgID, payload []byte) {
	c.w.adm.MarkSeen(id)
	c.Context.DeliverLocal(id, payload)
}

// ctx wraps the runtime context for delegation to the inner protocol.
func (w *Wrapper) ctx(ctx proto.Context) proto.Context {
	w.cctx.Context = ctx
	w.cctx.w = w
	return &w.cctx
}

var _ proto.Broadcaster = (*Wrapper)(nil)

// NewWrapper wraps inner with admission adm over the shared arrival
// schedule sched. service paces launches (0 = immediate).
func NewWrapper(inner proto.Broadcaster, adm *Admission, sched []Arrival, service time.Duration) *Wrapper {
	return &Wrapper{inner: inner, adm: adm, sched: sched, service: service}
}

// Launches returns the node's log of scheduled launches, in launch
// order. An off-schedule submission (Seq −1) launches unrecorded, so a
// long-lived node's log does not grow with its traffic.
func (w *Wrapper) Launches() []Launch { return w.launches }

// LaunchErrs counts launches the inner protocol refused with an error
// (e.g. a composed stack past its DC-net round budget).
func (w *Wrapper) LaunchErrs() int { return w.launchErrs }

// Admission exposes the node's admission layer.
func (w *Wrapper) Admission() *Admission { return w.adm }

// Init implements proto.Handler.
func (w *Wrapper) Init(ctx proto.Context) { w.inner.Init(w.ctx(ctx)) }

// HandleMessage implements proto.Handler: SubmitMsg enters admission,
// everything else is the inner protocol's.
func (w *Wrapper) HandleMessage(ctx proto.Context, from proto.NodeID, msg proto.Message) {
	if m, ok := msg.(*SubmitMsg); ok {
		w.offer(ctx, Pending{
			ID:      proto.NewMsgID(m.Payload),
			Payload: m.Payload,
			Seq:     -1,
			At:      ctx.Now(),
		})
		return
	}
	w.inner.HandleMessage(w.ctx(ctx), from, msg)
}

// HandleTimer implements proto.Handler, dispatching the wrapper's own
// control events and delegating the rest.
func (w *Wrapper) HandleTimer(ctx proto.Context, payload any) {
	switch ev := payload.(type) {
	case submitEvent:
		a := &w.sched[ev.seq]
		w.offer(ctx, Pending{
			ID:      proto.NewMsgID(a.Payload),
			Payload: a.Payload,
			Seq:     a.Seq,
			At:      a.At,
		})
	case retryEvent:
		w.offer(ctx, ev.p)
	case drainEvent:
		w.drain(ctx)
	default:
		w.inner.HandleTimer(w.ctx(ctx), payload)
	}
}

// Broadcast implements proto.Broadcaster: a direct application
// broadcast also passes through admission, so live-node and sim paths
// agree. The returned MsgID is the payload's ID whether or not the
// launch has happened yet.
func (w *Wrapper) Broadcast(ctx proto.Context, payload []byte) (proto.MsgID, error) {
	id := proto.NewMsgID(payload)
	w.offer(ctx, Pending{ID: id, Payload: payload, Seq: -1, At: ctx.Now()})
	return id, nil
}

// offer runs one submission through admission and schedules its
// launch.
func (w *Wrapper) offer(ctx proto.Context, p Pending) {
	switch w.adm.Offer(p) {
	case Admitted:
		if w.service <= 0 {
			for {
				q, ok := w.adm.Pop()
				if !ok {
					break
				}
				w.launch(ctx, q)
			}
			return
		}
		if !w.draining {
			w.draining = true
			ctx.SetTimer(w.service, drainEvent{})
		}
	case Blocked:
		ctx.SetTimer(retryDelay, retryEvent{p})
	}
}

// drain launches the queue head and re-arms the service timer while
// work remains.
func (w *Wrapper) drain(ctx proto.Context) {
	if p, ok := w.adm.Pop(); ok {
		w.launch(ctx, p)
	}
	if w.adm.Depth() > 0 {
		ctx.SetTimer(w.service, drainEvent{})
	} else {
		w.draining = false
	}
}

func (w *Wrapper) launch(ctx proto.Context, p Pending) {
	id, err := w.inner.Broadcast(w.ctx(ctx), p.Payload)
	if err != nil {
		w.launchErrs++
		return
	}
	if p.Seq < 0 {
		return
	}
	w.launches = append(w.launches, Launch{
		Seq:      p.Seq,
		ID:       id,
		Node:     ctx.Self(),
		SubmitAt: p.At,
		LaunchAt: ctx.Now(),
	})
}
