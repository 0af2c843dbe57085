// Package transport runs a proto.Handler over real TCP links: the same
// protocol state machines that run under the deterministic simulator run
// here against length-prefixed frames on sockets. A single event-loop
// goroutine serializes all handler invocations (messages and timers), so
// handlers keep their no-concurrency contract.
//
// A frame is one message on the stream — 4-byte length prefix, type tag,
// body — and is not a unit of I/O: Send encodes it in place at the tail
// of its peer's pending batch, the peer's writer goroutine puts a whole
// batch on the socket with one Write per wake-up, and each inbound
// connection decodes frames in place from one small read buffer, one
// Read for as many frames as have arrived (DESIGN §2l).
package transport

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Substrate abstracts the byte-stream network a Node runs on: real TCP
// by default, or an in-memory pipe network (MemNet) so multi-node tests
// run hermetically — no ports, no sockets — under the race detector.
type Substrate interface {
	// Listen binds a listener at addr (implementation-defined syntax).
	Listen(addr string) (net.Listener, error)
	// Dial opens a connection to addr within timeout.
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// tcpSubstrate is the default Substrate: real TCP sockets.
type tcpSubstrate struct{}

func (tcpSubstrate) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

func (tcpSubstrate) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// Config parametrizes a TCP runtime node.
type Config struct {
	// Self is this node's overlay ID.
	Self proto.NodeID
	// Listen is the TCP listen address (e.g. "127.0.0.1:0").
	Listen string
	// AddrBook maps every node this one may contact to its address.
	AddrBook map[proto.NodeID]string
	// Neighbors is the overlay adjacency (what Context.Neighbors returns).
	Neighbors []proto.NodeID
	// Codec serializes messages; register all protocol messages on it.
	Codec *wire.Codec
	// Handler is the protocol state machine.
	Handler proto.Handler
	// OnDeliver receives locally delivered broadcast payloads.
	OnDeliver func(id proto.MsgID, payload []byte)
	// Seed seeds the node's RNG (derive from crypto/rand in production).
	Seed uint64
	// SeedStream, when nonzero, is the second PCG word of the node RNG.
	// The parity harness passes sim.NodeSeed(seed, id) here so handlers
	// draw bit-identical random streams under both runtimes; zero keeps
	// the transport's own derivation.
	SeedStream uint64
	// Net is the byte-stream substrate (default: real TCP).
	Net Substrate
	// Shaper, when non-nil, applies netem link conditions to every
	// outgoing message at the codec boundary: the message is counted
	// (tx accounting mirrors the simulator), then either dropped (netem
	// loss) or held for the profile's latency+jitter before entering
	// the peer's write stream, per-link FIFO order preserved. Decisions
	// are pure functions of (seed, self, to, per-link sequence) — the
	// same function sim.Options.Netem consults — so a shaped cluster
	// and a shaped simulator run agree on which messages die.
	Shaper *netem.Shaper
	// Logger defaults to slog.Default().
	Logger *slog.Logger
	// DialTimeout bounds outbound connection attempts (default 3s).
	DialTimeout time.Duration
}

// mailboxSize bounds the event queue. The buffer absorbs bursts from
// concurrent peer readers; the event loop is the single consumer.
const mailboxSize = 1024

// event is one unit of work for the event loop: a received message for
// the handler (msg non-nil — typed, so a reader allocates no closure per
// frame), or fn.
type event struct {
	fn   func()
	from proto.NodeID
	msg  proto.Message
}

// Node is a live TCP runtime.
type Node struct {
	cfg    Config
	ln     net.Listener
	start  time.Time
	rng    *rand.Rand
	events chan event
	done   chan struct{}
	wg     sync.WaitGroup
	stats  wireStats
	// intern is the table every inbound connection decodes through, so
	// a payload flooded in over several links is held once per node.
	// It is the node's, not the codec's: nodes may share one Codec.
	intern *wire.Interner

	// Netem link state, touched only on the event-loop goroutine (Send
	// runs there): per-(destination, message type) sequence numbers —
	// the per-type streams netem hash decisions key on, mirroring the
	// simulator's counters — and the monotone release clamp that keeps
	// shaped frames in FIFO order.
	linkSeq     map[uint64]uint64
	linkRelease map[proto.NodeID]time.Time
	// dialFailed remembers when the last dial to a peer failed (event
	// loop only): the peer is not dialed again for DialTimeout.
	dialFailed map[proto.NodeID]time.Time

	mu        sync.Mutex
	addrBook  map[proto.NodeID]string
	conns     map[proto.NodeID]*peer
	inbound   map[net.Conn]struct{}
	timers    map[proto.TimerID]*time.Timer
	nextTimer proto.TimerID
	closed    bool
}

// WireStats is a snapshot of one node's wire-level accounting: per-type
// message and byte counters on both directions, taken where the codec
// touches the stream (marshal on send, unmarshal on receive). Byte
// counts are marshaled sizes — 2-byte type tag plus body, the same
// quantity sim.Network accounts via Codec.Size — while FrameBytes adds
// the 4-byte length prefixes and the 8-byte connection handshakes that
// only exist on a real stream. The parity harness diffs these tables
// against a simulator run.
type WireStats struct {
	TxMsgs  map[proto.MsgType]int64
	TxBytes map[proto.MsgType]int64
	RxMsgs  map[proto.MsgType]int64
	RxBytes map[proto.MsgType]int64
	// TxFrames/RxFrames count frames including handshakes; FrameBytes
	// include the length prefixes. A frame is counted where it is
	// encoded or decoded, not per Write or Read: one Write carries every
	// frame batched since the last.
	TxFrames, TxFrameBytes int64
	RxFrames, RxFrameBytes int64
	// TxDropped counts messages that never entered a peer's stream:
	// dropped at a full send queue, stranded in the queue of a link whose
	// write failed (both still counted in TxMsgs: the handler handed them
	// to the network, which is the event the simulator counts too), or
	// sent while the peer could not be dialed.
	TxDropped int64
	// TxShaperDropped counts messages the netem shaper's loss model
	// killed (also still counted in TxMsgs — the simulator counts its
	// netem drops the same way).
	TxShaperDropped int64
	// RxBadFrames counts frames the codec rejected.
	RxBadFrames int64
}

// wireStats is the live, mutex-protected form behind Stats snapshots.
// Send counting runs on the event loop; receive counting runs on one
// reader goroutine per inbound connection.
type wireStats struct {
	mu sync.Mutex
	s  WireStats
}

func (w *wireStats) tx(t proto.MsgType, frameLen int) {
	w.mu.Lock()
	if w.s.TxMsgs == nil {
		w.s.TxMsgs = make(map[proto.MsgType]int64)
		w.s.TxBytes = make(map[proto.MsgType]int64)
	}
	w.s.TxMsgs[t]++
	w.s.TxBytes[t] += int64(frameLen)
	w.s.TxFrames++
	w.s.TxFrameBytes += int64(frameLen) + wire.FrameHeaderLen
	w.mu.Unlock()
}

func (w *wireStats) rx(t proto.MsgType, frameLen int) {
	w.mu.Lock()
	if w.s.RxMsgs == nil {
		w.s.RxMsgs = make(map[proto.MsgType]int64)
		w.s.RxBytes = make(map[proto.MsgType]int64)
	}
	w.s.RxMsgs[t]++
	w.s.RxBytes[t] += int64(frameLen)
	w.s.RxFrames++
	w.s.RxFrameBytes += int64(frameLen) + wire.FrameHeaderLen
	w.mu.Unlock()
}

func (w *wireStats) rawTx(frameLen int) {
	w.mu.Lock()
	w.s.TxFrames++
	w.s.TxFrameBytes += int64(frameLen) + wire.FrameHeaderLen
	w.mu.Unlock()
}

func (w *wireStats) rawRx(frameLen int) {
	w.mu.Lock()
	w.s.RxFrames++
	w.s.RxFrameBytes += int64(frameLen) + wire.FrameHeaderLen
	w.mu.Unlock()
}

func (w *wireStats) dropped(frames int) {
	w.mu.Lock()
	w.s.TxDropped += int64(frames)
	w.mu.Unlock()
}

func (w *wireStats) shaperDropped() {
	w.mu.Lock()
	w.s.TxShaperDropped++
	w.mu.Unlock()
}

func (w *wireStats) bad() {
	w.mu.Lock()
	w.s.RxBadFrames++
	w.mu.Unlock()
}

// FrameCounts returns the tx/rx frame totals — the lightweight activity
// fingerprint quiescence pollers read every few milliseconds, without
// Stats' map cloning.
func (n *Node) FrameCounts() (tx, rx int64) {
	n.stats.mu.Lock()
	defer n.stats.mu.Unlock()
	return n.stats.s.TxFrames, n.stats.s.RxFrames
}

// Stats returns a deep copy of the node's wire accounting. It is safe to
// call at any time; for a settled snapshot, call it after Close or when
// the cluster is quiescent.
func (n *Node) Stats() WireStats {
	n.stats.mu.Lock()
	defer n.stats.mu.Unlock()
	out := n.stats.s
	out.TxMsgs = maps.Clone(out.TxMsgs)
	out.TxBytes = maps.Clone(out.TxBytes)
	out.RxMsgs = maps.Clone(out.RxMsgs)
	out.RxBytes = maps.Clone(out.RxBytes)
	return out
}

// maxQueuedFrames bounds the frames batched for one peer while its
// writer is busy; a frame that finds the batch full is dropped and
// counted in TxDropped (what to do instead is ROADMAP item 8).
const maxQueuedFrames = 256

// frameMark delimits one frame of a batch; release, when set, is the
// earliest wall time the writer may put it on the stream (netem shaping).
type frameMark struct {
	end     int // offset just past the frame
	release time.Time
}

// batch is the frames queued for one peer, encoded back to back.
type batch struct {
	w     wire.Writer
	marks []frameMark
}

// peer is an outbound framed connection with a writer goroutine. Send
// appends to out under mu; the writer swaps out against its spare batch
// and writes it, so each side touches a batch only while it owns it.
type peer struct {
	conn net.Conn
	wake chan struct{} // one token: out went from empty to non-empty

	mu   sync.Mutex
	out  *batch
	dead bool // the writer has exited; nothing drains out
}

// Listen starts the node: listener, accept loop, and event loop.
func Listen(cfg Config) (*Node, error) {
	if cfg.Codec == nil || cfg.Handler == nil {
		return nil, errors.New("transport: Codec and Handler are required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.Net == nil {
		cfg.Net = tcpSubstrate{}
	}
	stream := cfg.SeedStream
	if stream == 0 {
		stream = cfg.Seed ^ 0x6a09e667f3bcc908
	}
	ln, err := cfg.Net.Listen(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	n := &Node{
		cfg:      cfg,
		ln:       ln,
		start:    time.Now(),
		rng:      rand.New(rand.NewPCG(cfg.Seed, stream)),
		events:   make(chan event, mailboxSize),
		done:     make(chan struct{}),
		intern:   wire.NewInterner(),
		addrBook: make(map[proto.NodeID]string, len(cfg.AddrBook)),
		conns:    make(map[proto.NodeID]*peer),
		inbound:  make(map[net.Conn]struct{}),
		timers:   make(map[proto.TimerID]*time.Timer),

		dialFailed: make(map[proto.NodeID]time.Time),
	}
	if cfg.Shaper != nil {
		n.linkSeq = make(map[uint64]uint64)
		n.linkRelease = make(map[proto.NodeID]time.Time)
	}
	for id, addr := range cfg.AddrBook {
		n.addrBook[id] = addr
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.eventLoop()
	n.post(event{fn: func() { cfg.Handler.Init((*nodeCtx)(n)) }})
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close shuts the node down and waits for its goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	for _, t := range n.timers {
		t.Stop()
	}
	conns := n.conns
	n.conns = map[proto.NodeID]*peer{}
	inbound := n.inbound
	n.inbound = map[net.Conn]struct{}{}
	n.mu.Unlock()

	_ = n.ln.Close()
	for _, p := range conns {
		_ = p.conn.Close() // unblocks a writer mid-Write; done stops the loop
	}
	for c := range inbound {
		_ = c.Close() // unblocks readLoop goroutines
	}
	n.wg.Wait()
	return nil
}

// post enqueues work for the event loop; drops when shutting down.
func (n *Node) post(ev event) {
	select {
	case n.events <- ev:
	case <-n.done:
	}
}

func (n *Node) eventLoop() {
	defer n.wg.Done()
	for {
		select {
		case ev := <-n.events:
			if ev.msg != nil {
				n.cfg.Handler.HandleMessage((*nodeCtx)(n), ev.from, ev.msg)
			} else {
				ev.fn()
			}
		case <-n.done:
			return
		}
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.done:
				return
			default:
			}
			n.cfg.Logger.Warn("accept failed", "err", err)
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop consumes frames from one inbound connection. The first frame
// is the handshake (sender's NodeID); the rest are protocol messages,
// each decoded in place from the connection's read buffer, byte strings
// shared through the node's interning table.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()

	frames := wire.NewFrameReader(conn)
	hello, err := frames.Next()
	if err != nil || len(hello) != 4 {
		return
	}
	n.stats.rawRx(len(hello))
	r := wire.NewReader(hello)
	from := r.NodeID()
	if r.Err() != nil {
		return
	}
	for {
		frame, err := frames.Next()
		if err != nil {
			if err != io.EOF {
				select {
				case <-n.done:
				default:
					n.cfg.Logger.Debug("read failed", "from", from, "err", err)
				}
			}
			return
		}
		msg, err := n.cfg.Codec.UnmarshalInterned(frame, n.intern)
		if err != nil {
			n.stats.bad()
			n.cfg.Logger.Warn("bad frame", "from", from, "err", err)
			continue
		}
		n.stats.rx(msg.Type(), len(frame))
		n.post(event{from: from, msg: msg})
	}
}

// SetAddr registers or updates a peer address (late binding for peer
// discovery). Existing connections are unaffected.
func (n *Node) SetAddr(id proto.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrBook[id] = addr
}

// peerFor returns (dialing if necessary) the outbound connection. It
// runs on the event loop only. A dial that fails is not repeated until
// DialTimeout has passed, so a peer that is down costs the loop one dial
// per DialTimeout, not one per frame.
func (n *Node) peerFor(to proto.NodeID) (*peer, error) {
	n.mu.Lock()
	if p, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return p, nil
	}
	addr, ok := n.addrBook[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no address for node %d", to)
	}
	if failed, ok := n.dialFailed[to]; ok {
		if since := time.Since(failed); since < n.cfg.DialTimeout {
			return nil, fmt.Errorf("transport: dial to node %d failed %v ago; not redialing yet", to, since.Round(time.Millisecond))
		}
		delete(n.dialFailed, to)
	}
	conn, err := n.cfg.Net.Dial(addr, n.cfg.DialTimeout)
	if err != nil {
		n.dialFailed[to] = time.Now()
		return nil, fmt.Errorf("transport: dial %d at %s: %w", to, addr, err)
	}
	p := &peer{conn: conn, wake: make(chan struct{}, 1), out: new(batch)}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = conn.Close()
		return nil, errors.New("transport: node closed")
	}
	n.conns[to] = p
	n.wg.Add(1)
	n.mu.Unlock()

	n.stats.rawTx(4) // the handshake frame the writer opens with
	go n.writeLoop(to, p)
	return p, nil
}

// writeLoop is a peer's writer goroutine: handshake first, then one
// batch per wake-up. It takes everything queued since it last looked, so
// it flushes exactly when nothing more is queued — an idle link sends a
// lone frame at once, a busy one sends what piled up behind the last
// Write in the next, and no timer is involved.
func (n *Node) writeLoop(to proto.NodeID, p *peer) {
	defer n.wg.Done()
	b := new(batch)
	unsent := 0 // frames of b a failed Write left behind
	defer func() { n.retire(to, p, unsent) }()

	// Handshake frame: our NodeID.
	start := b.w.BeginFrame()
	b.w.NodeID(n.cfg.Self)
	_ = b.w.EndFrame(start) // 4 bytes: cannot overflow
	if _, err := p.conn.Write(b.w.Bytes()); err != nil {
		return
	}
	for {
		b.w.Reset()
		b.marks = b.marks[:0]
		select {
		case <-p.wake:
		case <-n.done:
			return
		}
		p.mu.Lock()
		b, p.out = p.out, b
		p.mu.Unlock()
		if sent, err := n.flush(p.conn, b); err != nil {
			for _, m := range b.marks {
				if m.end > sent {
					unsent++
				}
			}
			return
		}
	}
}

// flush puts a batch on the stream and returns how many of its bytes
// went out. Unshaped, that is one Write. A shaped frame is held until its
// release time; whatever precedes it is written before the writer
// sleeps, so no frame waits behind a later release. The Send-side
// monotone clamp keeps releases in queue order, so this never reorders
// the link.
func (n *Node) flush(conn net.Conn, b *batch) (sent int, err error) {
	buf := b.w.Bytes()
	write := func(end int) error {
		if end == sent {
			return nil
		}
		k, err := conn.Write(buf[sent:end])
		sent += k
		return err
	}
	ready := 0 // end of the frames whose release has passed
	for _, m := range b.marks {
		if !m.release.IsZero() {
			if d := time.Until(m.release); d > 0 {
				if err := write(ready); err != nil {
					return sent, err
				}
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-n.done:
					t.Stop()
					return sent, net.ErrClosed
				}
			}
		}
		ready = m.end
	}
	return sent, write(ready)
}

// retire runs when a peer's writer exits. A link whose write failed is
// dead: the peer leaves n.conns, so the next Send dials afresh instead of
// queueing into a connection nobody drains, and the frames it strands —
// unsent from the failed Write plus all still queued — count as dropped.
func (n *Node) retire(to proto.NodeID, p *peer, unsent int) {
	_ = p.conn.Close()
	p.mu.Lock()
	p.dead = true
	stranded := unsent + len(p.out.marks)
	p.mu.Unlock()

	n.mu.Lock()
	closed := n.closed
	if n.conns[to] == p {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	if !closed {
		n.stats.dropped(stranded)
		n.cfg.Logger.Warn("link failed", "to", to, "stranded", stranded)
	}
}

// nodeCtx adapts Node to proto.Context; all methods run on the event
// loop goroutine.
type nodeCtx Node

var _ proto.Context = (*nodeCtx)(nil)

func (c *nodeCtx) Self() proto.NodeID { return c.cfg.Self }

func (c *nodeCtx) Now() time.Duration { return time.Since(c.start) }

func (c *nodeCtx) Rand() *rand.Rand { return c.rng }

func (c *nodeCtx) Neighbors() []proto.NodeID { return c.cfg.Neighbors }

func (c *nodeCtx) Send(to proto.NodeID, msg proto.Message) {
	n := (*Node)(c)
	enc, ok := msg.(wire.Encodable)
	if !ok {
		n.cfg.Logger.Error("message not encodable", "type", fmt.Sprintf("%T", msg))
		return
	}
	p, err := n.peerFor(to)
	if err != nil {
		n.stats.dropped(1)
		n.cfg.Logger.Warn("send failed", "to", to, "err", err)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// The frame is encoded where it will be written from: the tail of
	// the peer's pending batch. A frame that is then not to be sent is
	// truncated away again.
	w := &p.out.w
	start := w.Len()
	if err := n.cfg.Codec.AppendFrame(w, enc); err != nil {
		n.cfg.Logger.Error("marshal failed", "err", err)
		return
	}
	// Accounting mirrors the simulator: a message is counted when the
	// handler hands it to the network, before any transmission outcome.
	n.stats.tx(enc.Type(), w.Len()-start-wire.FrameHeaderLen)
	var release time.Time
	if n.cfg.Shaper != nil {
		// Netem decision point — the codec boundary: the per-(link,
		// type) sequence number is consumed for every counted message
		// (as the simulator consumes it), then the message either dies
		// here or is stamped with its release time, clamped monotone
		// per link so shaping never reorders a FIFO stream.
		key := uint64(uint32(to))<<16 | uint64(enc.Type())
		seq := n.linkSeq[key]
		n.linkSeq[key] = seq + 1
		delay, drop := n.cfg.Shaper.Decide(n.cfg.Self, to, enc.Type(), seq)
		if drop {
			n.stats.shaperDropped()
			w.Truncate(start)
			return
		}
		release = time.Now().Add(delay)
		if last := n.linkRelease[to]; release.Before(last) {
			release = last
		}
		n.linkRelease[to] = release
	}
	if p.dead || len(p.out.marks) >= maxQueuedFrames {
		w.Truncate(start)
		n.stats.dropped(1)
		n.cfg.Logger.Warn("send queue full or link down; dropping", "to", to)
		return
	}
	p.out.marks = append(p.out.marks, frameMark{end: w.Len(), release: release})
	if len(p.out.marks) == 1 {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

func (c *nodeCtx) SetTimer(delay time.Duration, payload any) proto.TimerID {
	n := (*Node)(c)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return 0
	}
	n.nextTimer++
	id := n.nextTimer
	n.timers[id] = time.AfterFunc(delay, func() {
		n.mu.Lock()
		_, live := n.timers[id]
		delete(n.timers, id)
		n.mu.Unlock()
		if !live {
			return
		}
		n.post(event{fn: func() { n.cfg.Handler.HandleTimer((*nodeCtx)(n), payload) }})
	})
	return id
}

func (c *nodeCtx) CancelTimer(id proto.TimerID) {
	n := (*Node)(c)
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.timers[id]; ok {
		t.Stop()
		delete(n.timers, id)
	}
}

func (c *nodeCtx) DeliverLocal(id proto.MsgID, payload []byte) {
	n := (*Node)(c)
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(id, payload)
	}
}

// Inject runs fn on the event loop with the node's Context — the hook
// applications use to call Broadcast or other handler entry points
// without racing the loop.
func (n *Node) Inject(fn func(ctx proto.Context)) {
	n.post(event{fn: func() { fn((*nodeCtx)(n)) }})
}
