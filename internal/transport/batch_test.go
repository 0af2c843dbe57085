package transport

import (
	"bytes"
	"encoding/binary"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flood"
	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/wire"
)

// readBufLen is wire's frameBufLen, the per-connection read buffer.
const readBufLen = 4096

// countNet is a MemNet whose connections count I/O calls: Writes on the
// dialing side (a peer's writer goroutine), Reads on the accepting side
// (a readLoop). hold makes every Write wait, so a test can pile frames
// up behind a busy writer and then watch them leave.
type countNet struct {
	*MemNet
	writes, reads atomic.Int64

	mu   sync.Mutex
	gate chan struct{} // non-nil while Writes are held
}

func newCountNet() *countNet { return &countNet{MemNet: NewMemNet()} }

// hold blocks Writes entered from now on until release is called.
func (c *countNet) hold() (release func()) {
	gate := make(chan struct{})
	c.mu.Lock()
	c.gate = gate
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		c.gate = nil
		c.mu.Unlock()
		close(gate)
	}
}

func (c *countNet) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := c.MemNet.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: conn, net: c, dialed: true, closed: make(chan struct{})}, nil
}

func (c *countNet) Listen(addr string) (net.Listener, error) {
	ln, err := c.MemNet.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countListener{Listener: ln, net: c}, nil
}

type countListener struct {
	net.Listener
	net *countNet
}

func (l countListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: conn, net: l.net, closed: make(chan struct{})}, nil
}

type countConn struct {
	net.Conn
	net    *countNet
	dialed bool
	once   sync.Once
	closed chan struct{}
}

func (c *countConn) Write(p []byte) (int, error) {
	if c.dialed {
		c.net.writes.Add(1)
		c.net.mu.Lock()
		gate := c.net.gate
		c.net.mu.Unlock()
		if gate != nil {
			select {
			case <-gate:
			case <-c.closed:
				return 0, net.ErrClosed
			}
		}
	}
	return c.Conn.Write(p)
}

func (c *countConn) Read(p []byte) (int, error) {
	if !c.dialed {
		c.net.reads.Add(1)
	}
	return c.Conn.Read(p)
}

func (c *countConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// arrival is one message as node B's handler saw it.
type arrival struct {
	seq uint16 // DataMsg.Hops, which the tests use as a sequence number
	at  time.Time
}

// recorder is a handler that records what arrives and sends nothing.
type recorder struct {
	mu  sync.Mutex
	got []arrival
	hit chan struct{} // when non-nil, one token per message
}

func (r *recorder) Init(proto.Context) {}
func (r *recorder) HandleMessage(_ proto.Context, _ proto.NodeID, msg proto.Message) {
	r.mu.Lock()
	r.got = append(r.got, arrival{seq: msg.(*flood.DataMsg).Hops, at: time.Now()})
	r.mu.Unlock()
	if r.hit != nil {
		r.hit <- struct{}{}
	}
}
func (r *recorder) HandleTimer(proto.Context, any) {}

func (r *recorder) arrivals() []arrival {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]arrival(nil), r.got...)
}

// startPair boots node 0 (the sender under test) and node 1 (a recorder)
// on sub, with every option but these two left to tweak.
func startPair(t *testing.T, sub Substrate, tweak func(*Config)) (a *Node, b *Node, rec *recorder) {
	t.Helper()
	codec := floodCodec()
	rec = &recorder{}
	quiet := slog.New(slog.DiscardHandler)
	boot := func(self proto.NodeID, addr string, h proto.Handler) *Node {
		cfg := Config{Self: self, Listen: addr, Codec: codec, Handler: h, Seed: uint64(self) + 1, Net: sub, Logger: quiet,
			AddrBook: map[proto.NodeID]string{0: "mem:a", 1: "mem:b"}}
		if tweak != nil {
			tweak(&cfg)
		}
		n, err := Listen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	return boot(0, "mem:a", &recorder{}), boot(1, "mem:b", rec), rec
}

// dataMsg is a flood frame of the benchmark's size carrying seq.
func dataMsg(seq int) *flood.DataMsg {
	return &flood.DataMsg{ID: proto.NewMsgID([]byte{byte(seq), byte(seq >> 8)}), Hops: uint16(seq), Payload: bytes.Repeat([]byte{byte(seq)}, 256)}
}

// sendRange sends frames [from, to) from node a to node 1 in one turn of
// a's event loop and returns once they are all batched.
func sendRange(a *Node, from, to int) {
	done := make(chan struct{})
	a.Inject(func(ctx proto.Context) {
		for i := from; i < to; i++ {
			ctx.Send(1, dataMsg(i))
		}
		close(done)
	})
	<-done
}

func waitArrivals(t *testing.T, rec *recorder, n int) []arrival {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool { return len(rec.arrivals()) >= n })
	got := rec.arrivals()
	if len(got) != n {
		t.Fatalf("%d messages arrived, want %d", len(got), n)
	}
	for i, a := range got {
		if int(a.seq) != i {
			t.Fatalf("arrival %d carries seq %d: link reordered", i, a.seq)
		}
	}
	return got
}

// floodCodec is a codec carrying flood's messages.
func floodCodec() *wire.Codec {
	codec := wire.NewCodec()
	flood.RegisterMessages(codec)
	return codec
}

// TestWriterCoalescesQueuedFrames pins the batching on both sides: 200
// frames queued behind a busy writer leave in at most two Writes (the
// one that was in flight, and one for everything queued behind it), and
// the reader takes them in buffer-sized Reads, not two per frame.
func TestWriterCoalescesQueuedFrames(t *testing.T) {
	cn := newCountNet()
	a, _, rec := startPair(t, cn, nil)
	sendRange(a, 0, 1) // dial, handshake, first frame
	waitArrivals(t, rec, 1)

	const n = 200
	w0, r0 := cn.writes.Load(), cn.reads.Load()
	release := cn.hold()
	sendRange(a, 1, 1+n)
	if s := a.Stats(); s.TxDropped != 0 || s.TxFrames != 1+n+1 {
		t.Fatalf("TxDropped %d, TxFrames %d with %d frames queued; want 0 and %d", s.TxDropped, s.TxFrames, n, 1+n+1)
	}
	release()
	waitArrivals(t, rec, 1+n)

	if got := cn.writes.Load() - w0; got > 2 {
		t.Errorf("%d frames left in %d Writes, want at most 2", n, got)
	}
	// Each Read fills the buffer behind at most one partial frame, and
	// the Write in flight when the rest was queued costs one Read more.
	size := wire.FrameHeaderLen + floodCodec().Size(dataMsg(0))
	maxReads := int64((n*size+readBufLen-size-1)/(readBufLen-size) + 1)
	if got := cn.reads.Load() - r0; got > maxReads {
		t.Errorf("%d frames of %d bytes were read in %d Reads, want at most %d", n, size, got, maxReads)
	}
}

// TestWriterSendsLoneFrameAtOnce: an idle link writes a single frame in
// one Write as soon as it is queued — nothing waits for company or for a
// timer.
func TestWriterSendsLoneFrameAtOnce(t *testing.T) {
	cn := newCountNet()
	a, _, rec := startPair(t, cn, nil)
	sendRange(a, 0, 1)
	waitArrivals(t, rec, 1)
	for i := 1; i <= 3; i++ {
		w0 := cn.writes.Load()
		start := time.Now()
		sendRange(a, i, i+1)
		got := waitArrivals(t, rec, i+1)
		if d := got[i].at.Sub(start); d > time.Second {
			t.Errorf("lone frame %d took %v", i, d)
		}
		if w := cn.writes.Load() - w0; w != 1 {
			t.Errorf("lone frame %d left in %d Writes, want 1", i, w)
		}
	}
}

// TestWriterQueueBound: the batch holds maxQueuedFrames; what does not
// fit is dropped and counted, and the link carries on.
func TestWriterQueueBound(t *testing.T) {
	cn := newCountNet()
	a, _, rec := startPair(t, cn, nil)
	sendRange(a, 0, 1)
	waitArrivals(t, rec, 1)

	release := cn.hold()
	sendRange(a, 1, 2) // taken by the writer, which now waits in Write
	waitFor(t, 5*time.Second, func() bool {
		a.mu.Lock()
		p := a.conns[1]
		a.mu.Unlock()
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.out.marks) == 0
	})
	const over = 44
	sendRange(a, 2, 2+maxQueuedFrames+over)
	if got := a.Stats().TxDropped; got != over {
		t.Errorf("TxDropped = %d after %d frames into a queue of %d, want %d", got, maxQueuedFrames+over, maxQueuedFrames, over)
	}
	release()
	waitArrivals(t, rec, 2+maxQueuedFrames)
}

// TestWriterShapedLink: under a netem shaper with jitter, frames arrive
// in send order, none before its release time, and a frame queued ahead
// of a later release is on the wire before the writer sleeps for it.
func TestWriterShapedLink(t *testing.T) {
	profile := netem.Profile{Latency: netem.Const(2 * time.Millisecond), Jitter: netem.Uniform{Min: 0, Hi: 200 * time.Millisecond}}
	const seed = 9 // delays 16, 198, 192, 186 … ms: frame 0 is due 182 ms ahead of the rest
	cn := newCountNet()
	shaper := profile.Shaper(seed)
	a, _, rec := startPair(t, cn, func(c *Config) { c.Shaper = &shaper })

	const n = 8
	release := cn.hold() // so that all n frames share batches
	sent := make([]time.Time, n)
	done := make(chan struct{})
	a.Inject(func(ctx proto.Context) {
		for i := range sent {
			sent[i] = time.Now()
			ctx.Send(1, dataMsg(i))
		}
		close(done)
	})
	<-done
	release()
	got := waitArrivals(t, rec, n)

	// The releases Send stamped, recomputed: the shaper is a pure
	// function of (seed, link, type, sequence), the clamp a running max.
	due := make([]time.Time, n)
	for i := range due {
		delay, drop := shaper.Decide(0, 1, flood.TypeData, uint64(i))
		if drop {
			t.Fatal("lossless profile dropped a frame")
		}
		due[i] = sent[i].Add(delay)
		if i > 0 && due[i].Before(due[i-1]) {
			due[i] = due[i-1]
		}
	}
	widest := 0
	for i := range got {
		if got[i].at.Before(due[i]) {
			t.Errorf("frame %d arrived %v before its release", i, due[i].Sub(got[i].at))
		}
		if i+1 < n && due[i+1].Sub(due[i]) > due[widest+1].Sub(due[widest]) {
			widest = i
		}
	}
	gap := due[widest+1].Sub(due[widest])
	if gap < 20*time.Millisecond {
		t.Fatalf("widest gap between releases is %v: pick a seed that spreads them", gap)
	}
	if late := got[widest].at.Sub(due[widest]); late > gap/2 {
		t.Errorf("frame %d arrived %v after its release, with frame %d due %v later: it waited behind the later release", widest, late, widest+1, gap)
	}
}

// TestCloseWithFramesBatched: Close returns while a writer is stuck in
// Write with more frames queued behind it, and leaves no goroutine.
func TestCloseWithFramesBatched(t *testing.T) {
	before := runtime.NumGoroutine()
	cn := newCountNet()
	a, b, rec := startPair(t, cn, nil)
	sendRange(a, 0, 1)
	waitArrivals(t, rec, 1)
	cn.hold() // never released: only Close frees the writer
	sendRange(a, 1, 100)

	closed := make(chan struct{})
	go func() {
		_ = a.Close()
		_ = b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with frames batched behind a blocked Write")
	}
	if got := a.Stats().TxDropped; got != 0 {
		t.Errorf("shutdown counted %d frames as dropped", got)
	}
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before })
}

// TestRedialAfterPeerRestart: a link whose write fails is retired — the
// frames it strands are counted, and the next Send dials the peer's
// address afresh instead of queueing into a connection nobody drains.
func TestRedialAfterPeerRestart(t *testing.T) {
	mn := NewMemNet()
	a, b, rec := startPair(t, mn, nil)
	sendRange(a, 0, 1)
	waitArrivals(t, rec, 1)

	_ = b.Close()
	codec := floodCodec()
	rec2 := &recorder{}
	b2, err := Listen(Config{Self: 1, Listen: "mem:b", Codec: codec, Handler: rec2, Net: mn, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close() }()

	// The first frame finds the old connection dead and is stranded.
	sendRange(a, 0, 1)
	waitFor(t, 5*time.Second, func() bool { return a.Stats().TxDropped == 1 })
	a.mu.Lock()
	_, registered := a.conns[1]
	a.mu.Unlock()
	if registered {
		t.Fatal("dead peer still registered")
	}
	// Everything after it reaches the new node 1.
	const n = 200
	sendRange(a, 0, n)
	waitArrivals(t, rec2, n)
	if got := a.Stats().TxDropped; got != 1 {
		t.Errorf("TxDropped = %d, want the 1 stranded frame", got)
	}
}

// TestRedialBackoffKeepsLoopFree: a peer that cannot be dialed costs the
// event loop one dial per DialTimeout; in between, sends to it are
// counted as dropped at once and sends to other peers are not held up.
func TestRedialBackoffKeepsLoopFree(t *testing.T) {
	const dialTimeout = 300 * time.Millisecond
	mn := NewMemNet()
	a, _, rec := startPair(t, mn, func(c *Config) {
		c.DialTimeout = dialTimeout
		c.AddrBook[2] = "mem:nobody"
	})
	send := func(to proto.NodeID, seq int) time.Duration {
		done := make(chan struct{})
		start := time.Now()
		a.Inject(func(ctx proto.Context) { ctx.Send(to, dataMsg(seq)); close(done) })
		<-done
		return time.Since(start)
	}
	if d := send(2, 0); d < dialTimeout {
		t.Fatalf("first send to a down peer returned in %v: MemNet should have waited %v for a listener", d, dialTimeout)
	}
	start := time.Now()
	const n = 50
	for i := 0; i < n; i++ {
		send(2, i)
		send(1, i)
	}
	if d := time.Since(start); d >= dialTimeout {
		t.Errorf("%d sends beside a down peer took %v: the loop is redialing per frame", 2*n, d)
	}
	waitArrivals(t, rec, n)
	if got := a.Stats().TxDropped; got != 1+n {
		t.Errorf("TxDropped = %d, want %d", got, 1+n)
	}
	// Once DialTimeout has passed the peer is dialed again — and found.
	codec := floodCodec()
	rec2 := &recorder{}
	c, err := Listen(Config{Self: 2, Listen: "mem:nobody", Codec: codec, Handler: rec2, Net: mn, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	time.Sleep(dialTimeout)
	send(2, 0)
	waitArrivals(t, rec2, 1)
}

// TestWriterSendAllocs: on a warm link Send allocates nothing per frame
// on the event loop — the frame is encoded into the peer's batch. (The
// batch's own growth is a handful of allocations over the whole run,
// which AllocsPerRun's integer average rounds away.)
func TestWriterSendAllocs(t *testing.T) {
	cn := newCountNet()
	a, _, rec := startPair(t, cn, nil)
	sendRange(a, 0, 1)
	waitArrivals(t, rec, 1)
	// With the writer held nothing is delivered, so the only allocations
	// in the process are Send's.
	release := cn.hold()
	defer release()
	msg := dataMsg(1)
	result := make(chan float64)
	a.Inject(func(ctx proto.Context) {
		result <- testing.AllocsPerRun(200, func() { ctx.Send(1, msg) })
	})
	if got := <-result; got != 0 {
		t.Errorf("Send of a 256-byte DataMsg allocates %v times on a warm link, want 0", got)
	}
	if got := a.Stats().TxDropped; got != 0 {
		t.Errorf("TxDropped = %d: the measured sends overflowed the batch", got)
	}
}

// TestReaderDecodeAllocs: from bytes on the stream to HandleMessage a
// frame allocates its message and, the first time the node sees it,
// that message's payload — nothing else: no frame body, no cursor, no
// closure. A payload the node decoded recently comes from its interning
// table, so a repeat of it costs the message alone.
func TestReaderDecodeAllocs(t *testing.T) {
	mn := NewMemNet()
	_, _, rec := startPair(t, mn, nil)
	rec.hit = make(chan struct{}, 1)
	rec.got = make([]arrival, 0, 2048)

	conn, err := mn.Dial("mem:b", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	codec := floodCodec()
	w := wire.NewWriter(0)
	start := w.BeginFrame()
	w.NodeID(0)
	if err := w.EndFrame(start); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	// frame encodes a DataMsg whose 256-byte payload is unique to seq.
	frame := func(seq int) []byte {
		msg := dataMsg(seq)
		binary.LittleEndian.PutUint64(msg.Payload, uint64(seq))
		w := wire.NewWriter(0)
		if err := codec.AppendFrame(w, msg); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	measure := func(frames [][]byte) float64 {
		i := 0
		return testing.AllocsPerRun(len(frames)-1, func() {
			if _, err := conn.Write(frames[i]); err != nil {
				t.Error(err)
			}
			i++
			<-rec.hit
		})
	}
	const runs = 500
	fresh := make([][]byte, runs+1) // AllocsPerRun warms up with one extra call
	for i := range fresh {
		fresh[i] = frame(1 + i)
	}
	if got := measure(fresh); got != 2 {
		t.Errorf("a frame with a new payload allocates %v times between the stream and the handler, want 2 (message, payload)", got)
	}
	repeat := make([][]byte, runs+1)
	for i := range repeat {
		repeat[i] = fresh[runs]
	}
	if got := measure(repeat); got != 1 {
		t.Errorf("a frame repeating a payload allocates %v times between the stream and the handler, want 1 (message)", got)
	}
}
