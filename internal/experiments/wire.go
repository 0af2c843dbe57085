package experiments

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

// WireType names one protocol message type for table rendering: the
// canonical per-type breakdown every experiment table, the parity
// harness and cmd/flexnode -parity share. Keeping the naming here —
// next to the experiments that defined the original tables — lets
// sim-side numbers be extracted and rendered outside Experiment.Run.
type WireType struct {
	Type  proto.MsgType
	Name  string
	Phase string
}

// Phase display names, matching the E12 trace table.
const (
	PhaseDCNet    = "phase 1: dc-net"
	PhaseAdaptive = "phase 2: adaptive diffusion"
	PhaseFlood    = "phase 3: flood-and-prune"
	PhaseStem     = "dandelion stem"
	PhaseRelChan  = "reliable channel"
	PhaseChain    = "blockchain"
	PhaseWorkload = "workload ingress"
)

// wireTypes is the canonical index, ascending by type.
var wireTypes = []WireType{
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

// WireTypes returns the canonical message-type index in ascending type
// order. The slice is shared; callers must not mutate it.
func WireTypes() []WireType { return wireTypes }

// PhaseOf returns the display phase for a message type, falling back to
// the range name for types outside the canonical index.
func PhaseOf(t proto.MsgType) string {
	for _, wt := range wireTypes {
		if wt.Type == t {
			return wt.Phase
		}
	}
	return "other"
}
