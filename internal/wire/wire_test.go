package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/proto"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(7)
	w.U16(65534)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.I64(-42)
	w.Uvarint(300)
	w.Bool(true)
	w.Bool(false)
	w.NodeID(proto.NodeID(12345))
	w.NodeID(proto.NoNode)
	id := proto.NewMsgID([]byte("hello"))
	w.MsgID(id)
	w.ByteString([]byte{1, 2, 3})
	w.ByteString(nil)
	w.String("grüße")
	w.Float64(math.Pi)
	var b32 [32]byte
	b32[0], b32[31] = 0xaa, 0x55
	w.Bytes32(b32)

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d, want 7", got)
	}
	if got := r.U16(); got != 65534 {
		t.Errorf("U16 = %d, want 65534", got)
	}
	if got := r.U32(); got != 1<<30 {
		t.Errorf("U32 = %d, want %d", got, 1<<30)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d, want %d", got, uint64(1)<<60)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d, want -42", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d, want 300", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.NodeID(); got != 12345 {
		t.Errorf("NodeID = %d, want 12345", got)
	}
	if got := r.NodeID(); got != proto.NoNode {
		t.Errorf("NodeID = %d, want NoNode", got)
	}
	if got := r.MsgID(); got != id {
		t.Errorf("MsgID = %v, want %v", got, id)
	}
	if got := r.ByteString(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("ByteString = %v", got)
	}
	if got := r.ByteString(); len(got) != 0 {
		t.Errorf("empty ByteString = %v", got)
	}
	if got := r.String(); got != "grüße" {
		t.Errorf("String = %q", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Errorf("Float64 = %v", got)
	}
	if got := r.Bytes32(); got != b32 {
		t.Errorf("Bytes32 = %v", got)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
}

func TestReaderShortBufferSticky(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32() // too short
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v, want ErrShortBuffer", r.Err())
	}
	// Every subsequent read must keep failing and return zero values.
	if got := r.U8(); got != 0 {
		t.Errorf("U8 after error = %d, want 0", got)
	}
	if got := r.ByteString(); got != nil {
		t.Errorf("ByteString after error = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("sticky error lost: %v", r.Err())
	}
}

func TestReaderByteStringOverflow(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(MaxByteStringLen + 1)
	r := NewReader(w.Bytes())
	if got := r.ByteString(); got != nil {
		t.Errorf("ByteString = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Errorf("Err = %v, want ErrOverflow", r.Err())
	}
}

func TestByteStringCopies(t *testing.T) {
	w := NewWriter(0)
	w.ByteString([]byte{9, 9, 9})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.ByteString()
	buf[1] = 0 // clobber the underlying buffer
	if !bytes.Equal(got, []byte{9, 9, 9}) {
		t.Errorf("ByteString shares storage with input: %v", got)
	}
}

// testMsg is a minimal Encodable for codec tests.
type testMsg struct {
	A uint32
	B []byte
}

const testMsgType = proto.MsgType(0x7f01)

func (*testMsg) Type() proto.MsgType { return testMsgType }
func (m *testMsg) EncodeTo(w *Writer) {
	w.U32(m.A)
	w.ByteString(m.B)
}
func (m *testMsg) DecodeFrom(r *Reader) error {
	m.A = r.U32()
	m.B = r.ByteString()
	return r.Err()
}

func newTestCodec() *Codec {
	c := NewCodec()
	c.Register(testMsgType, func() Encodable { return new(testMsg) })
	return c
}

func TestCodecRoundTrip(t *testing.T) {
	c := newTestCodec()
	in := &testMsg{A: 77, B: []byte("payload")}
	b, err := c.Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if got := c.Size(in); got != len(b) {
		t.Errorf("Size = %d, want %d", got, len(b))
	}
	out, err := c.Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	m, ok := out.(*testMsg)
	if !ok {
		t.Fatalf("Unmarshal returned %T", out)
	}
	if m.A != in.A || !bytes.Equal(m.B, in.B) {
		t.Errorf("round trip mismatch: %+v != %+v", m, in)
	}
}

// TestCodecAllocs: Marshal allocates its result and nothing else (no
// writer, no buffer regrown from a guess), Size allocates nothing (the
// encoding is counted, not kept) and Unmarshal allocates only what the
// message owns — here the message and its byte string. The counts hold
// only without -race: the race detector's sync.Pool drops cursors at
// random (raceEnabled).
func TestCodecAllocs(t *testing.T) {
	c := newTestCodec()
	m := &testMsg{A: 77, B: bytes.Repeat([]byte{1}, 300)}
	enc, err := c.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Marshal", 1, func() { _, _ = c.Marshal(m) }},
		{"Size", 0, func() { _ = c.Size(m) }},
		{"Unmarshal", 2, func() { _, _ = c.Unmarshal(enc) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s allocates %v times, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCodecUnknownType(t *testing.T) {
	c := newTestCodec()
	if _, err := c.Unmarshal([]byte{0xff, 0xff}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("Unmarshal unknown = %v, want ErrUnknownType", err)
	}
	type otherMsg struct{ testMsg }
	_ = otherMsg{}
	if _, err := c.Marshal(&unregisteredMsg{}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("Marshal unregistered = %v, want ErrUnknownType", err)
	}
}

type unregisteredMsg struct{}

func (*unregisteredMsg) Type() proto.MsgType      { return 0x7fff }
func (*unregisteredMsg) EncodeTo(*Writer)         {}
func (*unregisteredMsg) DecodeFrom(*Reader) error { return nil }

func TestCodecTrailingBytes(t *testing.T) {
	c := newTestCodec()
	b, err := c.Marshal(&testMsg{A: 1})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if _, err := c.Unmarshal(append(b, 0x00)); err == nil {
		t.Error("Unmarshal accepted trailing bytes")
	}
}

func TestCodecDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	c := newTestCodec()
	c.Register(testMsgType, func() Encodable { return new(testMsg) })
}

// rawFrame appends body to w as one frame.
func rawFrame(t *testing.T, w *Writer, body []byte) {
	t.Helper()
	start := w.BeginFrame()
	w.buf = append(w.buf, body...)
	if err := w.EndFrame(start); err != nil {
		t.Fatalf("EndFrame: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	// The last frame does not fit the read buffer and takes the
	// allocated path; the one before it fits exactly.
	frames := [][]byte{[]byte("one"), {}, []byte("three"),
		bytes.Repeat([]byte{0xab}, frameBufLen-FrameHeaderLen), bytes.Repeat([]byte{0xcd}, 3*frameBufLen)}
	w := NewWriter(0)
	for _, f := range frames {
		rawFrame(t, w, f)
	}
	r := NewFrameReader(bytes.NewReader(w.Bytes()))
	for i, want := range frames {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d = %d bytes %.8q, want %d bytes %.8q", i, len(got), got, len(want), want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next at end = %v, want io.EOF", err)
	}
}

func TestCodecAppendFrame(t *testing.T) {
	c := newTestCodec()
	w := NewWriter(0)
	w.U8(0x7f) // whatever is batched ahead stays as it is
	m := &testMsg{A: 9, B: []byte("payload")}
	if err := c.AppendFrame(w, m); err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	enc, err := c.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	want := NewWriter(0)
	want.U8(0x7f)
	rawFrame(t, want, enc)
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Errorf("AppendFrame wrote %x, want prefix + Marshal = %x", w.Bytes(), want.Bytes())
	}
	if err := c.AppendFrame(w, &unregisteredMsg{}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("AppendFrame of an unregistered type = %v, want ErrUnknownType", err)
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Error("failed AppendFrame left bytes behind")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	w := NewWriter(0)
	rawFrame(t, w, []byte("hello"))
	for cut := 1; cut < w.Len(); cut++ {
		_, err := NewFrameReader(bytes.NewReader(w.Bytes()[:cut])).Next()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Next on %d of %d bytes = %v, want io.ErrUnexpectedEOF", cut, w.Len(), err)
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	hdr := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := NewFrameReader(hdr).Next(); !errors.Is(err, ErrOverflow) {
		t.Errorf("Next oversized = %v, want ErrOverflow", err)
	}
	w := NewWriter(0)
	start := w.BeginFrame()
	w.buf = append(w.buf, make([]byte, MaxFrameLen+1)...)
	if err := w.EndFrame(start); !errors.Is(err, ErrOverflow) || w.Len() != 0 {
		t.Errorf("EndFrame oversized = %v with %d bytes left, want ErrOverflow and none", err, w.Len())
	}
}

// TestFrameReaderAllocatesWhatArrives: a header may claim MaxFrameLen,
// but the reader's memory follows the bytes received, not the claim.
func TestFrameReaderAllocatesWhatArrives(t *testing.T) {
	stream := append([]byte{0x02, 0x00, 0x00, 0x00}, make([]byte, 1000)...) // claims 32 MB, sends 1000 bytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewFrameReader(bytes.NewReader(stream)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Next = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("a 1000-byte body behind a 32 MB header allocated %d bytes", got)
	}
}

func TestUvarintQuick(t *testing.T) {
	f := func(v uint64) bool {
		w := NewWriter(0)
		w.Uvarint(v)
		r := NewReader(w.Bytes())
		return r.Uvarint() == v && r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByteStringQuick(t *testing.T) {
	f := func(b []byte) bool {
		w := NewWriter(0)
		w.ByteString(b)
		r := NewReader(w.Bytes())
		got := r.ByteString()
		return bytes.Equal(got, b) && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
