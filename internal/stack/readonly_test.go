package stack

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/sim"
	"repro/internal/wire"
)

// receipt is one message as it looked when it reached a handler.
type receipt struct {
	msg wire.Encodable
	enc []byte
	to  proto.NodeID
}

// receiptTap encodes every message immediately before its destination
// handler runs (a single-loop network fires OnReceive inline).
type receiptTap struct {
	t     *testing.T
	codec *wire.Codec
	got   []receipt
}

func (r *receiptTap) OnSend(time.Duration, proto.NodeID, proto.NodeID, proto.Message) {}
func (r *receiptTap) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte) {}
func (r *receiptTap) OnReceive(_ time.Duration, _, to proto.NodeID, msg proto.Message) {
	enc, ok := msg.(wire.Encodable)
	if !ok {
		r.t.Fatalf("%T reaches a handler but has no wire encoding", msg)
	}
	b, err := r.codec.Marshal(enc)
	if err != nil {
		r.t.Fatalf("Marshal(%T): %v", msg, err)
	}
	r.got = append(r.got, receipt{msg: enc, enc: b, to: to})
}

// saw reports whether a message of type ty reached a handler.
func (r *receiptTap) saw(ty proto.MsgType) bool {
	for _, rc := range r.got {
		if rc.msg.Type() == ty {
			return true
		}
	}
	return false
}

// TestReceivedMessagesStayUnchanged holds every stack to proto.Handler's
// rule that a received message is read-only — the rule that lets the
// simulator hand one value to every receiver and the live runtime share
// one decoded payload between frames. Every message is encoded as it
// arrives and again after the run; no handler, the dense form or the
// map-backed live form, may have changed a byte. The impaired condition
// is what fires the DC-net exchanges, relchan retransmits and custody
// hand-off.
func TestReceivedMessagesStayUnchanged(t *testing.T) {
	codec := wire.NewCodec()
	flood.RegisterMessages(codec)
	adaptive.RegisterMessages(codec)
	dcnet.RegisterMessages(codec)
	dandelion.RegisterMessages(codec)
	relchan.RegisterMessages(codec)
	g := testGraph(t, 3)
	for _, kind := range []Kind{Flood, Dandelion, Adaptive, Composed} {
		spec := testSpec(kind)
		for _, cond := range testConditions() {
			for _, form := range []string{"mounted", "live"} {
				net := sim.NewNetwork(g, sim.Options{Seed: 3, Netem: &cond})
				if form == "mounted" {
					Mount(net, spec)
				} else {
					net.SetHandlers(func(id proto.NodeID) proto.Handler { return Live(spec, id) })
				}
				tap := &receiptTap{t: t, codec: codec}
				net.AddTap(tap)
				run(t, net, 3)
				if len(tap.got) == 0 {
					t.Fatalf("%v/%s/%s: no message reached a handler", kind, cond.Name, form)
				}
				if kind == Composed && cond.Loss > 0 && !(tap.saw(dcnet.TypeNack) && tap.saw(relchan.TypeCustody)) {
					t.Errorf("%v/%s/%s: no DC-net nack or custody hand-off fired", kind, cond.Name, form)
				}
				for _, r := range tap.got {
					now, err := codec.Marshal(r.msg)
					if err != nil {
						t.Fatalf("Marshal(%T) after the run: %v", r.msg, err)
					}
					if !bytes.Equal(now, r.enc) {
						t.Errorf("%v/%s/%s: a %T received by node %d was changed after it arrived:\n then %x\n now  %x",
							kind, cond.Name, form, r.msg, r.to, r.enc, now)
						break
					}
				}
			}
		}
	}
}

// relayFields is what a shared relay message carries: the fields every
// receiver of one must read alike. A flood DataMsg has its hop count in
// n, an adaptive InfectMsg its TTL and round, a FinalMsg its round.
type relayFields struct {
	typ     proto.MsgType
	id      proto.MsgID
	n       uint16
	round   uint16
	payload uint64 // FNV-1a of the payload bytes
}

// relayFieldsOf returns msg's fields if it is a message dense mode shares
// between relays.
func relayFieldsOf(msg proto.Message) (relayFields, bool) {
	var f relayFields
	var payload []byte
	switch m := msg.(type) {
	case *flood.DataMsg:
		f, payload = relayFields{id: m.ID, n: m.Hops}, m.Payload
	case *adaptive.InfectMsg:
		f, payload = relayFields{id: m.ID, n: m.TTL, round: m.Round}, m.Payload
	case *adaptive.FinalMsg:
		f = relayFields{id: m.ID, round: m.Round}
	default:
		return f, false
	}
	f.typ = msg.Type()
	h := fnv.New64a()
	h.Write(payload)
	f.payload = h.Sum64()
	return f, true
}

// relayFieldsTap records each shared relay message's fields when it is
// first sent and fails if any later send or receive of the same message
// reads others. It counts receives by type.
type relayFieldsTap struct {
	t    *testing.T
	name string
	sent map[proto.Message]relayFields
	recv map[proto.MsgType]int
}

func (r *relayFieldsTap) check(verb string, msg proto.Message) {
	now, ok := relayFieldsOf(msg)
	if !ok {
		return
	}
	was, ok := r.sent[msg]
	switch {
	case !ok && verb == "send":
		r.sent[msg] = now
	case !ok:
		r.t.Errorf("%s: a %T was received that was never sent", r.name, msg)
	case was != now:
		r.t.Errorf("%s: a %T sent as %+v was %s as %+v", r.name, msg, was, verb, now)
	}
}

func (r *relayFieldsTap) OnSend(_ time.Duration, _, _ proto.NodeID, msg proto.Message) {
	r.check("send", msg)
}
func (r *relayFieldsTap) OnReceive(_ time.Duration, _, _ proto.NodeID, msg proto.Message) {
	r.recv[msg.Type()]++
	r.check("received", msg)
}
func (r *relayFieldsTap) OnDeliverLocal(time.Duration, proto.NodeID, proto.MsgID, []byte) {}

// TestSharedRelaysStayUnchanged holds the rule the dense forms of flood
// and adaptive diffusion rely on: one relay message serves every receiver
// of its partition cell's sends of one key — a DataMsg per hop, an
// InfectMsg per TTL and round, a FinalMsg per round — so no handler of
// any stack that relays them may change one after it was sent. Each
// stack is mounted at one and two shards; on two, a shared relay is read
// by both shards' window goroutines.
func TestSharedRelaysStayUnchanged(t *testing.T) {
	g := testGraph(t, 4)
	relayed := map[Kind][]proto.MsgType{
		Flood:     {flood.TypeData},
		Dandelion: {flood.TypeData},
		Adaptive:  {adaptive.TypeInfect, adaptive.TypeFinal},
		Composed:  {flood.TypeData, adaptive.TypeInfect, adaptive.TypeFinal},
	}
	for _, kind := range []Kind{Flood, Dandelion, Adaptive, Composed} {
		for _, cond := range testConditions() {
			for _, k := range []int{1, 2} {
				net := sim.NewNetwork(g, sim.Options{Seed: 4, Netem: &cond, Shards: k})
				Mount(net, testSpec(kind))
				tap := &relayFieldsTap{t: t, name: fmt.Sprintf("%v/%s/k=%d", kind, cond.Name, k),
					sent: map[proto.Message]relayFields{}, recv: map[proto.MsgType]int{}}
				net.AddTap(tap)
				run(t, net, 4)
				for _, ty := range relayed[kind] {
					if tap.recv[ty] == 0 {
						t.Errorf("%s: no message of type %#04x was received", tap.name, uint16(ty))
					}
				}
			}
		}
	}
}
