package adaptive

import (
	"repro/internal/proto"
	"repro/internal/wire"
)

// Wire types of the adaptive-diffusion messages.
const (
	// TypeInfect carries the payload to a new node, with a TTL for
	// immediate onward spreading.
	TypeInfect = proto.RangeAdaptive + 1
	// TypeExtend instructs a subtree to grow its boundary by Depth hops.
	TypeExtend = proto.RangeAdaptive + 2
	// TypeToken transfers the virtual-source token.
	TypeToken = proto.RangeAdaptive + 3
	// TypeFinal is the final-spread instruction ending Phase 2 (§IV-B).
	TypeFinal = proto.RangeAdaptive + 4
)

// InfectMsg delivers the payload to an uninfected node. TTL > 1 makes the
// receiver immediately forward with TTL−1 to its other neighbors. Round
// tags the virtual-source round for control-message deduplication.
//
// A received InfectMsg is read-only, and so is its Payload. In dense mode
// (Shared) every node of a partition cell that sends one message with one
// TTL in one round sends the same InfectMsg, so a receiver shares it with
// every other receiver of its cell's sends, on any shard.
type InfectMsg struct {
	ID      proto.MsgID
	TTL     uint16
	Round   uint16
	Payload []byte
}

// Type implements proto.Message.
func (*InfectMsg) Type() proto.MsgType { return TypeInfect }

// EncodeTo implements wire.Encodable.
func (m *InfectMsg) EncodeTo(w *wire.Writer) {
	w.MsgID(m.ID)
	w.U16(m.TTL)
	w.U16(m.Round)
	w.ByteString(m.Payload)
}

// DecodeFrom implements wire.Encodable.
func (m *InfectMsg) DecodeFrom(r *wire.Reader) error {
	m.ID = r.MsgID()
	m.TTL = r.U16()
	m.Round = r.U16()
	m.Payload = r.ByteString()
	return r.Err()
}

// ExtendMsg propagates a grow-boundary instruction through the infection
// tree. Depth is how many hops the boundary should advance (1 on keep
// rounds, 2 after a token pass).
type ExtendMsg struct {
	ID    proto.MsgID
	Depth uint16
	Round uint16
}

// Type implements proto.Message.
func (*ExtendMsg) Type() proto.MsgType { return TypeExtend }

// EncodeTo implements wire.Encodable.
func (m *ExtendMsg) EncodeTo(w *wire.Writer) {
	w.MsgID(m.ID)
	w.U16(m.Depth)
	w.U16(m.Round)
}

// DecodeFrom implements wire.Encodable.
func (m *ExtendMsg) DecodeFrom(r *wire.Reader) error {
	m.ID = r.MsgID()
	m.Depth = r.U16()
	m.Round = r.U16()
	return r.Err()
}

// TokenMsg hands the virtual-source role to the receiver. Round is the
// ball radius after the accompanying balance step; H is the receiver's
// hop distance from the initial virtual source.
type TokenMsg struct {
	ID    proto.MsgID
	Round uint16
	H     uint16
}

// Type implements proto.Message.
func (*TokenMsg) Type() proto.MsgType { return TypeToken }

// EncodeTo implements wire.Encodable.
func (m *TokenMsg) EncodeTo(w *wire.Writer) {
	w.MsgID(m.ID)
	w.U16(m.Round)
	w.U16(m.H)
}

// DecodeFrom implements wire.Encodable.
func (m *TokenMsg) DecodeFrom(r *wire.Reader) error {
	m.ID = r.MsgID()
	m.Round = r.U16()
	m.H = r.U16()
	return r.Err()
}

// FinalMsg propagates the end-of-diffusion instruction through the tree;
// on receipt every node runs the configured Finisher (in the composed
// protocol: switch to flood-and-prune).
//
// A received FinalMsg is read-only. In dense mode (Shared) every node of
// a partition cell that relays one message's Final of one round sends the
// same FinalMsg, shared by every receiver of its cell's relays.
type FinalMsg struct {
	ID    proto.MsgID
	Round uint16
}

// Type implements proto.Message.
func (*FinalMsg) Type() proto.MsgType { return TypeFinal }

// EncodeTo implements wire.Encodable.
func (m *FinalMsg) EncodeTo(w *wire.Writer) {
	w.MsgID(m.ID)
	w.U16(m.Round)
}

// DecodeFrom implements wire.Encodable.
func (m *FinalMsg) DecodeFrom(r *wire.Reader) error {
	m.ID = r.MsgID()
	m.Round = r.U16()
	return r.Err()
}

// RegisterMessages adds this package's messages to a codec.
func RegisterMessages(c *wire.Codec) {
	c.Register(TypeInfect, func() wire.Encodable { return new(InfectMsg) })
	c.Register(TypeExtend, func() wire.Encodable { return new(ExtendMsg) })
	c.Register(TypeToken, func() wire.Encodable { return new(TokenMsg) })
	c.Register(TypeFinal, func() wire.Encodable { return new(FinalMsg) })
}

// Compile-time interface checks.
var (
	_ wire.Encodable = (*InfectMsg)(nil)
	_ wire.Encodable = (*ExtendMsg)(nil)
	_ wire.Encodable = (*TokenMsg)(nil)
	_ wire.Encodable = (*FinalMsg)(nil)
)
