package flexnet

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/wire"
	"repro/internal/workload"
)

// sampleMessages returns one populated value of every message type a
// node can put on the wire.
func sampleMessages() []wire.Encodable {
	id := proto.NewMsgID([]byte("sample"))
	rid := relchan.ID{Stream: 77, Seq: 3, Kind: 1}
	return []wire.Encodable{
		&flood.DataMsg{ID: id, Hops: 3, Payload: []byte("payload")},
		&adaptive.InfectMsg{ID: id, TTL: 2, Round: 7, Payload: []byte("x")},
		&adaptive.ExtendMsg{ID: id, Depth: 2, Round: 9},
		&adaptive.TokenMsg{ID: id, Round: 4, H: 2},
		&adaptive.FinalMsg{ID: id, Round: 5},
		&dcnet.ShareMsg{Round: 12, Data: []byte{1, 2, 3, 4}},
		&dcnet.SPartialMsg{Round: 12, Data: []byte{5, 6}},
		&dcnet.TPartialMsg{Round: 12, Data: []byte{7}},
		&dcnet.CommitMsg{Round: 12, Digests: [][32]byte{{1}, {2}}},
		&dcnet.RevealMsg{Round: 12, Shares: [][]byte{{1}, {2, 3}}, Salts: [][]byte{{9}, {8}}},
		&dcnet.AckMsg{Round: 12, Kind: 2},
		&dcnet.NackMsg{Round: 12, Kind: 3},
		&dandelion.StemMsg{ID: id, Payload: []byte("stem")},
		&relchan.AckMsg{ID: rid},
		&relchan.NackMsg{ID: rid},
		&relchan.CustodyMsg{ID: rid, Payload: []byte("custody")},
		&node.BlockMsg{Height: 8, Miner: 4, TimeNano: 123, PowNonce: 99,
			Txs: [][]byte{{1, 2}, {3}}, Parent: [32]byte{0xaa}},
		&workload.SubmitMsg{Payload: []byte("submit")},
	}
}

// TestSamplesCoverTheCodec keeps sampleMessages complete: a message
// registered without a sample would escape both tests below.
func TestSamplesCoverTheCodec(t *testing.T) {
	sampled := make(map[proto.MsgType]bool)
	for _, msg := range sampleMessages() {
		sampled[msg.Type()] = true
	}
	for _, typ := range NewCodec().Types() {
		if !sampled[typ] {
			t.Errorf("no sample for registered message type %#04x", uint16(typ))
		}
	}
}

// TestDecodedMessagesDoNotAliasInput is the contract in-place frame
// decoding stands on (wire.Reader: "never returns a slice of its
// input"): the transport hands the codec a window of a read buffer it
// overwrites with the next Read. Decode every message from a scratch
// copy, scribble over the scratch, and the decoded value must still
// encode to the original bytes — through plain Unmarshal and through
// the interned decode the transport runs, twice, so the second decode
// takes its byte strings from the table the first filled.
func TestDecodedMessagesDoNotAliasInput(t *testing.T) {
	codec := NewCodec()
	in := wire.NewInterner()
	decoders := []struct {
		name   string
		decode func([]byte) (wire.Encodable, error)
	}{
		{"Unmarshal", codec.Unmarshal},
		{"UnmarshalInterned", func(b []byte) (wire.Encodable, error) { return codec.UnmarshalInterned(b, in) }},
		{"UnmarshalInterned (repeat)", func(b []byte) (wire.Encodable, error) { return codec.UnmarshalInterned(b, in) }},
	}
	for _, d := range decoders {
		for _, msg := range sampleMessages() {
			want, err := codec.Marshal(msg)
			if err != nil {
				t.Errorf("Marshal(%T): %v", msg, err)
				continue
			}
			scratch := bytes.Clone(want)
			back, err := d.decode(scratch)
			if err != nil {
				t.Errorf("%s(%T): %v", d.name, msg, err)
				continue
			}
			for i := range scratch {
				scratch[i] = 0xff
			}
			got, err := codec.Marshal(back)
			if err != nil {
				t.Errorf("Marshal(decoded %T): %v", msg, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %T still points into the buffer it was decoded from:\n encoded %x\n after overwrite %x", d.name, msg, want, got)
			}
		}
	}
}

// TestEveryMessageRoundTripsThroughCodec marshals and unmarshals one
// populated sample of every message type a node can put on the wire and
// requires structural equality — the cheap end-to-end check that no
// EncodeTo/DecodeFrom pair is asymmetric.
func TestEveryMessageRoundTripsThroughCodec(t *testing.T) {
	codec := NewCodec()
	samples := sampleMessages()
	for _, msg := range samples {
		b, err := codec.Marshal(msg)
		if err != nil {
			t.Errorf("Marshal(%T): %v", msg, err)
			continue
		}
		back, err := codec.Unmarshal(b)
		if err != nil {
			t.Errorf("Unmarshal(%T): %v", msg, err)
			continue
		}
		if !reflect.DeepEqual(normalize(msg), normalize(back)) {
			t.Errorf("%T round trip mismatch:\n in: %#v\nout: %#v", msg, msg, back)
		}
	}
}

// normalize maps nil and empty slices to a canonical form so DeepEqual
// compares structure, not allocation details.
func normalize(m wire.Encodable) any {
	v := reflect.ValueOf(m).Elem()
	out := reflect.New(v.Type()).Elem()
	out.Set(v)
	normalizeValue(out)
	return out.Interface()
}

func normalizeValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 && !v.IsNil() {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			normalizeValue(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				normalizeValue(v.Field(i))
			}
		}
	}
}
