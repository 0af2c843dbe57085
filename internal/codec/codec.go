// Package codec is a node's wire surface: New registers every protocol's
// messages, and Table names each registered type and its phase for the
// reports that break traffic down by message.
package codec

import (
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

// New returns a codec with every protocol message registered.
func New() *wire.Codec {
	c := wire.NewCodec()
	flood.RegisterMessages(c)
	adaptive.RegisterMessages(c)
	dcnet.RegisterMessages(c)
	dandelion.RegisterMessages(c)
	relchan.RegisterMessages(c)
	node.RegisterMessages(c)
	workload.RegisterMessages(c)
	return c
}

// Entry names one message type and its phase.
type Entry struct {
	Type        proto.MsgType
	Name, Phase string
}

// Phase display names, as the parity report and the E12 trace print them.
const (
	PhaseDCNet    = "phase 1: dc-net"
	PhaseAdaptive = "phase 2: adaptive diffusion"
	PhaseFlood    = "phase 3: flood-and-prune"
	PhaseStem     = "dandelion stem"
	PhaseRelChan  = "reliable channel"
	PhaseChain    = "blockchain"
	PhaseWorkload = "workload ingress"
)

// Table holds one row for every type New registers, ascending by type.
var Table = []Entry{
	{flood.TypeData, "flood/data", PhaseFlood},
	{adaptive.TypeInfect, "adaptive/infect", PhaseAdaptive},
	{adaptive.TypeExtend, "adaptive/extend", PhaseAdaptive},
	{adaptive.TypeToken, "adaptive/token", PhaseAdaptive},
	{adaptive.TypeFinal, "adaptive/final", PhaseAdaptive},
	{dcnet.TypeShare, "dcnet/share", PhaseDCNet},
	{dcnet.TypeSPartial, "dcnet/s-partial", PhaseDCNet},
	{dcnet.TypeTPartial, "dcnet/t-partial", PhaseDCNet},
	{dcnet.TypeCommit, "dcnet/commit", PhaseDCNet},
	{dcnet.TypeReveal, "dcnet/reveal", PhaseDCNet},
	{dcnet.TypeAck, "dcnet/ack", PhaseDCNet},
	{dcnet.TypeNack, "dcnet/nack", PhaseDCNet},
	{dandelion.TypeStem, "dandelion/stem", PhaseStem},
	{node.TypeBlock, "chain/block", PhaseChain},
	{relchan.TypeAck, "relchan/ack", PhaseRelChan},
	{relchan.TypeNack, "relchan/nack", PhaseRelChan},
	{relchan.TypeCustody, "relchan/custody", PhaseRelChan},
	{workload.TypeSubmit, "workload/submit", PhaseWorkload},
}

// Lookup returns t's row in Table, and false for a type outside it.
func Lookup(t proto.MsgType) (Entry, bool) {
	for _, e := range Table {
		if e.Type == t {
			return e, true
		}
	}
	return Entry{}, false
}
