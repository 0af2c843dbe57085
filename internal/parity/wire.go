package parity

import (
	"repro/internal/adaptive"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/node"
	"repro/internal/proto"
	"repro/internal/relchan"
	"repro/internal/workload"
)

// wireType names one protocol message type and its phase for the
// parity report.
type wireType struct {
	Type  proto.MsgType
	Name  string
	Phase string
}

// Phase display names, matching the E12 trace table.
const (
	phaseDCNet    = "phase 1: dc-net"
	phaseAdaptive = "phase 2: adaptive diffusion"
	phaseFlood    = "phase 3: flood-and-prune"
	phaseStem     = "dandelion stem"
	phaseRelChan  = "reliable channel"
	phaseChain    = "blockchain"
	phaseWorkload = "workload ingress"
)

// wireTypes is the canonical index, ascending by type.
var wireTypes = []wireType{
	{flood.TypeData, "flood/data", phaseFlood},
	{adaptive.TypeInfect, "adaptive/infect", phaseAdaptive},
	{adaptive.TypeExtend, "adaptive/extend", phaseAdaptive},
	{adaptive.TypeToken, "adaptive/token", phaseAdaptive},
	{adaptive.TypeFinal, "adaptive/final", phaseAdaptive},
	{dcnet.TypeShare, "dcnet/share", phaseDCNet},
	{dcnet.TypeSPartial, "dcnet/s-partial", phaseDCNet},
	{dcnet.TypeTPartial, "dcnet/t-partial", phaseDCNet},
	{dcnet.TypeCommit, "dcnet/commit", phaseDCNet},
	{dcnet.TypeReveal, "dcnet/reveal", phaseDCNet},
	{dcnet.TypeAck, "dcnet/ack", phaseDCNet},
	{dcnet.TypeNack, "dcnet/nack", phaseDCNet},
	{dandelion.TypeStem, "dandelion/stem", phaseStem},
	{node.TypeBlock, "chain/block", phaseChain},
	{relchan.TypeAck, "relchan/ack", phaseRelChan},
	{relchan.TypeNack, "relchan/nack", phaseRelChan},
	{relchan.TypeCustody, "relchan/custody", phaseRelChan},
	{workload.TypeSubmit, "workload/submit", phaseWorkload},
}

// phaseOf returns the display phase for a message type, or "other" for
// types outside the index.
func phaseOf(t proto.MsgType) string {
	for _, wt := range wireTypes {
		if wt.Type == t {
			return wt.Phase
		}
	}
	return "other"
}
