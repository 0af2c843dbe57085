package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing here is done entirely from outside the program: spans around
// calls into each layer, and timed wrappers on the public Handler,
// Context and Tap interfaces. Outer spans are kept one by one; the
// per-event boundaries are far too many for that at N=1M, so they are
// aggregated as (calls, total ns) on a 1-in-sampleEvery sample.
const sampleEvery = 16

// span is one timed interval. Spans of one broadcast, call or
// transaction share ID; Parent indexes the span that caused this one.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int           // -1 for a root
	ID         int
	Lane       int // trace viewer row: 0 main, 1.. workers
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, id, lane int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, ID: id, Lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[i]
	s.End = time.Since(r.epoch)
	return s.End - s.Start
}

// timed records fn as a span on the main lane and returns how long it took.
func (r *recorder) timed(name string, parent, id int, fn func()) time.Duration {
	i := r.begin(name, parent, id, 0)
	fn()
	return r.end(i)
}

// add records an interval measured elsewhere (live transactions).
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// within records a child whose duration the callee reported but whose
// position inside the parent cannot be seen from outside; it is drawn at
// the parent's end.
func (r *recorder) within(parent int, name string, took time.Duration) {
	r.mu.Lock()
	p := r.spans[parent]
	r.spans = append(r.spans, span{Name: name, Start: p.End - took, End: p.End, Parent: parent, ID: p.ID, Lane: p.Lane})
	r.mu.Unlock()
}

// selfTimeTable lists, per span name, total duration minus the part child
// spans cover.
func (r *recorder) selfTimeTable() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byName := map[string]time.Duration{}
	for i, s := range r.spans {
		byName[s.Name] += self[i]
	}
	names := slices.Sorted(maps.Keys(byName))
	for i, n := range names {
		names[i] = fmt.Sprintf("%s %v", n, byName[n].Round(time.Microsecond))
	}
	return strings.Join(names, ", ")
}

// writeChromeTrace writes the spans in the Trace Event format that
// chrome://tracing and Perfetto load.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // µs
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"span": i, "parent": s.Parent, "id": s.ID},
		}
	}
	r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// callStat aggregates one boundary: how often it was crossed and for how
// long in total.
type callStat struct{ calls, ns int64 }

func (s *callStat) since(t0 time.Time) {
	s.calls++
	s.ns += int64(time.Since(t0))
}

func (s *callStat) merge(o callStat) { s.calls += o.calls; s.ns += o.ns }

func (s callStat) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// layerAgg is what the wrappers of one rep (or one live pass) saw.
// handler is inclusive of the context calls made from inside it.
type layerAgg struct {
	handler, send, timer, deliver, tap callStat
}

func (a *layerAgg) merge(o layerAgg) {
	a.handler.merge(o.handler)
	a.send.merge(o.send)
	a.timer.merge(o.timer)
	a.deliver.merge(o.deliver)
	a.tap.merge(o.tap)
}

// scaleSample extrapolates what wrappers on every sampleEvery-th node
// saw to all nodes. The tap is sampled by callback, not by node, and
// scales itself.
func (a *layerAgg) scaleSample() {
	for _, s := range []*callStat{&a.handler, &a.send, &a.timer, &a.deliver} {
		s.calls *= sampleEvery
		s.ns *= sampleEvery
	}
}

// handlerSelf is handler time outside the context calls it made.
func (a layerAgg) handlerSelf() callStat {
	return callStat{a.handler.calls, a.handler.ns - a.send.ns - a.timer.ns - a.deliver.ns}
}

// tracedHandler times one node's protocol handler and, through ctx, the
// runtime calls the handler makes. A runtime never overlaps calls into
// one handler, so the counters need no lock; they are read after the
// run. on gates timing for wrappers that must be mounted before the
// untraced pass (live nodes); nil means always on.
type tracedHandler struct {
	inner broadcaster
	on    *atomic.Bool
	ctx   tracedCtx
	stat  callStat
}

func (h *tracedHandler) enter(ctx nodeCtx) (nodeCtx, time.Time, bool) {
	if h.on != nil && !h.on.Load() {
		return ctx, time.Time{}, false
	}
	h.ctx.nodeCtx = ctx
	return &h.ctx, time.Now(), true
}

func (h *tracedHandler) Init(ctx nodeCtx) { h.inner.Init(ctx) }

func (h *tracedHandler) HandleMessage(ctx nodeCtx, from nodeID, msg message) {
	c, t0, on := h.enter(ctx)
	h.inner.HandleMessage(c, from, msg)
	if on {
		h.stat.since(t0)
	}
}

func (h *tracedHandler) HandleTimer(ctx nodeCtx, payload any) {
	c, t0, on := h.enter(ctx)
	h.inner.HandleTimer(c, payload)
	if on {
		h.stat.since(t0)
	}
}

func (h *tracedHandler) Broadcast(ctx nodeCtx, payload []byte) (msgID, error) {
	c, t0, on := h.enter(ctx)
	id, err := h.inner.Broadcast(c, payload)
	if on {
		h.stat.since(t0)
	}
	return id, err
}

func (h *tracedHandler) agg() layerAgg {
	return layerAgg{handler: h.stat, send: h.ctx.send, timer: h.ctx.timer, deliver: h.ctx.deliver}
}

func (h *tracedHandler) reset() {
	h.stat = callStat{}
	h.ctx.send, h.ctx.timer, h.ctx.deliver = callStat{}, callStat{}, callStat{}
}

// tracedCtx times the side-effect calls of a runtime Context; the
// read-only ones (Self, Now, Rand, Neighbors) pass through untimed.
type tracedCtx struct {
	nodeCtx
	send, timer, deliver callStat
}

func (c *tracedCtx) Send(to nodeID, msg message) {
	t0 := time.Now()
	c.nodeCtx.Send(to, msg)
	c.send.since(t0)
}

func (c *tracedCtx) SetTimer(delay time.Duration, payload any) timerID {
	t0 := time.Now()
	id := c.nodeCtx.SetTimer(delay, payload)
	c.timer.since(t0)
	return id
}

func (c *tracedCtx) CancelTimer(id timerID) {
	t0 := time.Now()
	c.nodeCtx.CancelTimer(id)
	c.timer.since(t0)
}

func (c *tracedCtx) DeliverLocal(id msgID, payload []byte) {
	t0 := time.Now()
	c.nodeCtx.DeliverLocal(id, payload)
	c.deliver.since(t0)
}

// tracedTap times every sampleEvery-th callback into a Tap. Taps run on
// one goroutine at a time (inline in a single loop, at the barrier in a
// sharded one), so the counters need no lock.
type tracedTap struct {
	inner simTap
	seen  int64
	stat  callStat
}

func (t *tracedTap) sample() bool {
	t.seen++
	return t.seen%sampleEvery == 0
}

func (t *tracedTap) OnSend(at time.Duration, from, to nodeID, msg message) {
	if !t.sample() {
		t.inner.OnSend(at, from, to, msg)
		return
	}
	t0 := time.Now()
	t.inner.OnSend(at, from, to, msg)
	t.stat.since(t0)
}

func (t *tracedTap) OnReceive(at time.Duration, from, to nodeID, msg message) {
	if !t.sample() {
		t.inner.OnReceive(at, from, to, msg)
		return
	}
	t0 := time.Now()
	t.inner.OnReceive(at, from, to, msg)
	t.stat.since(t0)
}

func (t *tracedTap) OnDeliverLocal(at time.Duration, node nodeID, id msgID, payload []byte) {
	if !t.sample() {
		t.inner.OnDeliverLocal(at, node, id, payload)
		return
	}
	t0 := time.Now()
	t.inner.OnDeliverLocal(at, node, id, payload)
	t.stat.since(t0)
}

// scaled returns the sampled stat extrapolated to every callback.
func (t *tracedTap) scaled() callStat {
	if t.stat.calls == 0 {
		return callStat{}
	}
	return callStat{t.seen, t.stat.ns * t.seen / t.stat.calls}
}

// median returns the median duration, in seconds, of the spans with the
// given name; 0 when there are none.
func (r *recorder) median(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var v []float64
	for _, s := range r.spans {
		if s.Name == name {
			v = append(v, (s.End - s.Start).Seconds())
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}
