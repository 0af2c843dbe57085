package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/node"
	"repro/internal/relchan"
	"repro/internal/wire"
)

// fuzzCodec registers the full wire surface of a composed node, so the
// decoder fuzzing covers every message family a hostile peer could
// target.
func fuzzCodec() *wire.Codec {
	c := wire.NewCodec()
	flood.RegisterMessages(c)
	adaptive.RegisterMessages(c)
	dcnet.RegisterMessages(c)
	dandelion.RegisterMessages(c)
	relchan.RegisterMessages(c)
	node.RegisterMessages(c)
	return c
}

// FuzzWireDecode feeds arbitrary bytes to the codec: Unmarshal must
// never panic — a hostile peer controls every byte after the frame
// header — and anything it accepts must reach an encode/decode fixpoint
// in one step: re-marshaling the decoded message yields canonical bytes
// that decode back to the same canonical bytes. (Exact input identity
// is too strong: varint length prefixes admit non-canonical spellings,
// which decode fine but re-encode canonically.)
func FuzzWireDecode(f *testing.F) {
	codec := fuzzCodec()
	// Seed with one valid encoding per family plus degenerate inputs.
	seeds := []wire.Encodable{
		&flood.DataMsg{ID: [16]byte{1}, Hops: 3, Payload: []byte("tx")},
		&adaptive.InfectMsg{ID: [16]byte{2}, TTL: 2, Round: 1, Payload: []byte("p")},
		&adaptive.TokenMsg{ID: [16]byte{3}, Round: 2, H: 1},
		&dcnet.ShareMsg{Round: 7, Data: bytes.Repeat([]byte{0xaa}, 32)},
		&dandelion.StemMsg{ID: [16]byte{4}, Payload: []byte("stem")},
		&node.BlockMsg{Height: 1, Miner: 3, Txs: [][]byte{{0x01}}},
	}
	for _, m := range seeds {
		enc, err := codec.Marshal(m)
		if err != nil {
			f.Fatalf("seeding: %v", err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := codec.Unmarshal(data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		enc, err := codec.Marshal(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-marshal: %v", err)
		}
		msg2, err := codec.Unmarshal(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v\n enc %x", err, enc)
		}
		enc2, err := codec.Marshal(msg2)
		if err != nil {
			t.Fatalf("second-generation re-marshal failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode did not reach a fixpoint:\n in   %x\n enc  %x\n enc2 %x", data, enc, enc2)
		}
	})
}

// readFrameOracle is the allocate-then-fill frame reader the transport
// used before FrameReader, kept verbatim: two io.ReadFulls straight on
// the stream. FrameReader must see the same frames in any stream.
func readFrameOracle(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > wire.MaxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes", wire.ErrOverflow, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return b, nil
}

// chunkReader hands out its stream at most n bytes per Read, the way a
// socket delivers a stream in pieces unrelated to frame boundaries.
type chunkReader struct {
	b []byte
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), c.n)], c.b)
	c.b = c.b[k:]
	return k, nil
}

// FuzzFrameRoundTrip: any payload framed in place by Codec.AppendFrame
// comes back unchanged through FrameReader and Unmarshal, with nothing
// trailing — whether the frame fits the read buffer or outgrows it.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{0xff}, 300))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xab})
	f.Add(bytes.Repeat([]byte{0x5a}, 5000))

	codec := fuzzCodec()
	f.Fuzz(func(t *testing.T, data []byte) {
		w := wire.NewWriter(0)
		if err := codec.AppendFrame(w, &flood.DataMsg{ID: [16]byte{9}, Hops: 2, Payload: data}); err != nil {
			t.Fatalf("AppendFrame(%d bytes): %v", len(data), err)
		}
		r := wire.NewFrameReader(bytes.NewReader(w.Bytes()))
		frame, err := r.Next()
		if err != nil {
			t.Fatalf("Next after AppendFrame: %v", err)
		}
		msg, err := codec.Unmarshal(frame)
		if err != nil {
			t.Fatalf("Unmarshal of the frame read back: %v", err)
		}
		if got := msg.(*flood.DataMsg); got.Hops != 2 || !bytes.Equal(got.Payload, data) {
			t.Fatalf("frame round-trip changed payload: %x -> %x", data, got.Payload)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after the one frame: %v, want io.EOF", err)
		}
	})
}

// FuzzFrameStream reads arbitrary bytes as a raw stream — concatenated
// frames, truncated tails, oversize headers; repeated until they pass
// the read buffer, so frames straddle it, fit it exactly and outgrow it
// — through FrameReader in chunks around the buffer size. It must yield
// the frame sequence and the same kind of ending the old ReadFrame
// yields, and never panic.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xab})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0xab, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0f, 0xfc})
	f.Add(append([]byte{0x00, 0x00, 0x10, 0x01}, bytes.Repeat([]byte{0x00, 0x00, 0x00, 0x03}, 1200)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		stream := data
		for len(stream) > 0 && len(stream) < 3*4096 {
			stream = append(stream, data...)
		}
		var want [][]byte
		var wantErr error
		for oracle := bytes.NewReader(stream); wantErr == nil; {
			var b []byte
			if b, wantErr = readFrameOracle(oracle); wantErr == nil {
				want = append(want, b)
			}
		}
		for _, chunk := range []int{1, 3, 4095, 4096, 4097} {
			r := wire.NewFrameReader(&chunkReader{b: stream, n: chunk})
			for i := 0; ; i++ {
				got, err := r.Next()
				if err != nil {
					if i != len(want) {
						t.Fatalf("chunk %d: stream ended after %d frames (%v), oracle read %d (%v)", chunk, i, err, len(want), wantErr)
					}
					if (err == io.EOF) != (wantErr == io.EOF) || errors.Is(err, wire.ErrOverflow) != errors.Is(wantErr, wire.ErrOverflow) {
						t.Fatalf("chunk %d: stream ended with %v, oracle with %v", chunk, err, wantErr)
					}
					break
				}
				if i >= len(want) || !bytes.Equal(got, want[i]) {
					t.Fatalf("chunk %d: frame %d = %d bytes, oracle disagrees (%d frames)", chunk, i, len(got), len(want))
				}
			}
		}
	})
}

// FuzzInternedDecode holds the transport's decode path to plain
// Unmarshal: an arbitrary stream of frames, read twice through one
// Interner (the second pass finds what the first left in the table),
// must decode to exactly the messages Unmarshal decodes — nil and empty
// byte strings included — with every byte string exact-size. Scribbling
// over each frame once decoded, and the evictions of later frames, must
// change no result already returned.
func FuzzInternedDecode(f *testing.F) {
	codec := fuzzCodec()
	stream := func(msgs ...wire.Encodable) []byte {
		w := wire.NewWriter(0)
		for _, m := range msgs {
			if err := codec.AppendFrame(w, m); err != nil {
				f.Fatalf("seeding: %v", err)
			}
		}
		return w.Bytes()
	}
	f.Add([]byte{})
	f.Add(stream(
		&flood.DataMsg{ID: [16]byte{1}, Hops: 1, Payload: []byte("tx")},
		&flood.DataMsg{ID: [16]byte{1}, Hops: 2, Payload: []byte("tx")},
		&flood.DataMsg{ID: [16]byte{2}, Payload: []byte{}},
		&dcnet.RevealMsg{Round: 3, Shares: [][]byte{{1}, {}, nil}, Salts: [][]byte{{1}, {1}}},
		&node.BlockMsg{Height: 1, Txs: [][]byte{[]byte("tx"), {}}},
	))
	// More distinct payloads than any table has slots, each sent twice
	// some frames apart: evictions and slot collisions on every pass.
	var many []wire.Encodable
	for i := 0; i < 600; i++ {
		p := []byte{byte(i), byte(i >> 8), 0x5a}
		many = append(many, &flood.DataMsg{Hops: uint16(i), Payload: p}, &dandelion.StemMsg{Payload: p})
	}
	f.Add(stream(many...))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := wire.NewInterner()
		var got []wire.Encodable
		var want [][]byte // got's encodings, taken as each was decoded
		for pass := 0; pass < 2; pass++ {
			frames := wire.NewFrameReader(bytes.NewReader(data))
			for {
				frame, err := frames.Next()
				if err != nil {
					break
				}
				plain, perr := codec.Unmarshal(frame)
				interned, ierr := codec.UnmarshalInterned(frame, in)
				if (perr == nil) != (ierr == nil) {
					t.Fatalf("Unmarshal error %v, interned decode error %v", perr, ierr)
				}
				if perr != nil {
					continue
				}
				if !reflect.DeepEqual(interned, plain) {
					t.Fatalf("interned decode differs:\n got %#v\nwant %#v", interned, plain)
				}
				checkExactSize(t, reflect.ValueOf(interned))
				enc, err := codec.Marshal(plain)
				if err != nil {
					t.Fatalf("decoded message failed to re-marshal: %v", err)
				}
				got, want = append(got, interned), append(want, enc)
				for i := range frame {
					frame[i] = 0xff
				}
			}
		}
		for i, m := range got {
			if enc, _ := codec.Marshal(m); !bytes.Equal(enc, want[i]) {
				t.Fatalf("message %d changed after decoding:\n got %x\nwant %x", i, enc, want[i])
			}
		}
	})
}

// checkExactSize fails t for any byte string reachable from v whose
// capacity exceeds its length.
func checkExactSize(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			checkExactSize(t, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkExactSize(t, v.Field(i))
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if v.Cap() != v.Len() {
				t.Fatalf("decoded %v has cap %d, len %d", v.Type(), v.Cap(), v.Len())
			}
			return
		}
		for i := 0; i < v.Len(); i++ {
			checkExactSize(t, v.Index(i))
		}
	}
}
