// Package wire implements the binary codec used on real network links and
// for byte accounting in simulation: an append-style Writer, a sticky-error
// Reader, a MsgType-keyed codec registry, and length-prefixed framing.
//
// The encoding is deliberately simple and explicit: fixed-width
// little-endian integers, uvarint-length-prefixed byte strings, no
// reflection. Every protocol message implements Encodable; packages
// register their messages with a Codec via their RegisterMessages function.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/proto"
)

// Common codec errors.
var (
	// ErrShortBuffer indicates a truncated encoding.
	ErrShortBuffer = errors.New("wire: short buffer")
	// ErrUnknownType indicates an unregistered message type.
	ErrUnknownType = errors.New("wire: unknown message type")
	// ErrOverflow indicates a length field exceeding sane bounds.
	ErrOverflow = errors.New("wire: length overflows limit")
)

// MaxByteStringLen bounds any single length-prefixed byte string. It
// protects the TCP reader against hostile length fields.
const MaxByteStringLen = 16 << 20

// Encodable is a proto.Message with a concrete binary encoding.
type Encodable interface {
	proto.Message
	// EncodeTo appends the message body (without the type tag) to w.
	EncodeTo(w *Writer)
	// DecodeFrom parses the message body from r. Implementations should
	// rely on r's sticky error and return r.Err() at the end.
	DecodeFrom(r *Reader) error
}

// Writer is an append-only encoding buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Truncate drops everything written after the first n bytes.
func (w *Writer) Truncate(n int) { w.buf = w.buf[:n] }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// NodeID appends a node identifier.
func (w *Writer) NodeID(v proto.NodeID) { w.U32(uint32(int32(v))) }

// MsgID appends a message identifier.
func (w *Writer) MsgID(v proto.MsgID) { w.buf = append(w.buf, v[:]...) }

// Bytes32 appends a fixed 32-byte array.
func (w *Writer) Bytes32(v [32]byte) { w.buf = append(w.buf, v[:]...) }

// ByteString appends a uvarint length prefix followed by b.
func (w *Writer) ByteString(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a uvarint length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Duration appends a time duration in nanoseconds.
func (w *Writer) Duration(d int64) { w.I64(d) }

// Float64 appends an IEEE-754 binary64 value.
func (w *Writer) Float64(f float64) { w.U64(math.Float64bits(f)) }

// Reader is a sticky-error decoding cursor over a byte slice. It never
// returns a slice of its input: every accessor copies (ByteString, MsgID,
// Bytes32, String) or returns a value, so the input may be overwritten
// as soon as DecodeFrom returns. The transport decodes frames in place
// from a reused read buffer on the strength of this rule;
// TestDecodedMessagesDoNotAliasInput (flexnet) holds every registered
// message to it.
type Reader struct {
	buf []byte
	off int
	err error
	// intern, when non-nil, is the table ByteString shares decoded
	// strings through (Codec.UnmarshalInterned).
	intern *Interner
}

// NewReader returns a Reader over b. The reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.err = ErrShortBuffer
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = ErrShortBuffer
		return 0
	}
	r.off += n
	return v
}

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// NodeID reads a node identifier.
func (r *Reader) NodeID() proto.NodeID { return proto.NodeID(int32(r.U32())) }

// MsgID reads a message identifier.
func (r *Reader) MsgID() proto.MsgID {
	var id proto.MsgID
	b := r.take(proto.MsgIDSize)
	if b != nil {
		copy(id[:], b)
	}
	return id
}

// Bytes32 reads a fixed 32-byte array.
func (r *Reader) Bytes32() [32]byte {
	var out [32]byte
	b := r.take(32)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// ByteString reads a uvarint-length-prefixed byte string. The returned
// slice has cap == len and never aliases the input, so it remains valid
// after the underlying buffer is reused; it may be shared with other
// decodes of the same node (Interner), so it is read-only.
func (r *Reader) ByteString() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxByteStringLen {
		r.err = ErrOverflow
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	if r.intern != nil {
		return r.intern.intern(b)
	}
	return clone(b)
}

// clone returns a copy of b of exactly its length (bytes.Clone rounds
// the capacity up to an allocation size class).
func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a uvarint-length-prefixed string.
func (r *Reader) String() string { return string(r.ByteString()) }

// Duration reads a nanosecond duration.
func (r *Reader) Duration() int64 { return r.I64() }

// Float64 reads an IEEE-754 binary64 value.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.U64()) }

// Codec maps MsgTypes to message factories and performs whole-message
// (de)serialization. A Codec is safe for concurrent use after registration
// has finished.
type Codec struct {
	factories map[proto.MsgType]func() Encodable
}

// NewCodec returns an empty codec.
func NewCodec() *Codec {
	return &Codec{factories: make(map[proto.MsgType]func() Encodable)}
}

// Register adds a factory for one message type. Registering the same type
// twice panics: that is a programming error in range allocation.
func (c *Codec) Register(t proto.MsgType, factory func() Encodable) {
	if _, dup := c.factories[t]; dup {
		panic(fmt.Sprintf("wire: duplicate registration for message type %#04x", uint16(t)))
	}
	c.factories[t] = factory
}

// Types returns the registered message types in ascending order — the
// codec's coverage surface, used by tests that assert two registries
// (e.g. the parity harness's and flexnet's) stay in sync.
func (c *Codec) Types() []proto.MsgType {
	out := make([]proto.MsgType, 0, len(c.factories))
	for t := range c.factories {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// writers and readers recycle the cursors Marshal, Size and Unmarshal run
// a message through: EncodeTo and DecodeFrom are interface calls, so a
// cursor declared in the caller would be heap-allocated per message, and
// a fresh Writer would regrow its buffer from a guess.
var (
	writers = sync.Pool{New: func() any { return new(Writer) }}
	readers = sync.Pool{New: func() any { return new(Reader) }}
)

// encode returns a pooled Writer holding m's encoding — type tag, then
// body; the caller puts it back into writers once done with the bytes.
func encode(m Encodable) *Writer {
	w := writers.Get().(*Writer)
	w.Reset()
	w.U16(uint16(m.Type()))
	m.EncodeTo(w)
	return w
}

// Marshal encodes a full message: 2-byte type tag followed by the body,
// in a slice of exactly that size.
func (c *Codec) Marshal(m Encodable) ([]byte, error) {
	if _, ok := c.factories[m.Type()]; !ok {
		return nil, fmt.Errorf("%w: %#04x", ErrUnknownType, uint16(m.Type()))
	}
	w := encode(m)
	out := slices.Clone(w.buf)
	writers.Put(w)
	return out, nil
}

// Unmarshal decodes a full message produced by Marshal. The message does
// not alias b (see Reader), and every byte string in it is a fresh copy.
func (c *Codec) Unmarshal(b []byte) (Encodable, error) {
	return c.UnmarshalInterned(b, nil)
}

// UnmarshalInterned is Unmarshal with the message's byte strings shared
// through t: a string equal to one t holds is returned as that slice,
// not copied again. The transport decodes every frame a node reads
// through the node's own table, so a payload flooded in over several
// links is held once. A nil t is Unmarshal.
func (c *Codec) UnmarshalInterned(b []byte, t *Interner) (Encodable, error) {
	r := readers.Get().(*Reader)
	*r = Reader{buf: b, intern: t}
	m, err := c.decode(r)
	*r = Reader{}
	readers.Put(r)
	return m, err
}

func (c *Codec) decode(r *Reader) (Encodable, error) {
	t := proto.MsgType(r.U16())
	if r.Err() != nil {
		return nil, r.Err()
	}
	factory, ok := c.factories[t]
	if !ok {
		return nil, fmt.Errorf("%w: %#04x", ErrUnknownType, uint16(t))
	}
	m := factory()
	if err := m.DecodeFrom(r); err != nil {
		return nil, fmt.Errorf("wire: decoding %#04x: %w", uint16(t), err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after message %#04x", r.Remaining(), uint16(t))
	}
	return m, nil
}

// Size returns the encoded size of a message in bytes, used for byte
// accounting in simulation. The encoding itself is not kept.
func (c *Codec) Size(m Encodable) int {
	w := encode(m)
	n := w.Len()
	writers.Put(w)
	return n
}
