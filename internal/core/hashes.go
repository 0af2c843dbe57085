package core

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/proto"
)

// SimHashes derives deterministic identity hashes for simulated node IDs.
// Simulation does not need real key pairs for virtual-source selection —
// any collision-resistant hash of a stable identity has the same
// distributional properties; the TCP node uses crypto.Identity.Hash().
func SimHashes(n int) map[proto.NodeID][32]byte {
	out := make(map[proto.NodeID][32]byte, n)
	for i := 0; i < n; i++ {
		out[proto.NodeID(i)] = SimHash(proto.NodeID(i))
	}
	return out
}

// SimHash is the identity hash SimHashes assigns to one node — for
// callers that need the hashes of a few nodes, not of all of them.
func SimHash(id proto.NodeID) [32]byte {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(id))
	copy(buf[4:], "node")
	return sha256.Sum256(buf[:])
}
