// Package crypto provides the cryptographic substrate the paper assumes:
// node identities (the hash of an Ed25519 public key), pairwise encrypted
// channels between DC-net group members (X25519 + HKDF + AES-GCM), hash
// commitments for the blame protocol, CRC32 message protection for
// collision detection, and the XOR-distance metric used to pick the
// initial virtual source from the hash of a message ("the node whose
// hashed identity is closest to the hash of the message", §IV-B).
//
// Everything is built from the Go standard library.
package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
)

// Identity is a node's long-term identity: the SHA-256 of its Ed25519
// public key, the coordinate used in virtual-source selection.
type Identity struct {
	hash [32]byte
}

// IdentityFromSeed derives a deterministic identity from a 32-byte seed.
// Simulation uses this to give node i a reproducible key.
func IdentityFromSeed(seed [32]byte) *Identity {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Identity{hash: sha256.Sum256(priv.Public().(ed25519.PublicKey))}
}

// Hash returns SHA-256 of the public key: the node's coordinate for
// virtual-source selection.
func (id *Identity) Hash() [32]byte { return id.hash }

// HashPayload returns SHA-256 of a broadcast payload: the message
// coordinate for virtual-source selection.
func HashPayload(payload []byte) [32]byte { return sha256.Sum256(payload) }

// XORDistance compares two 32-byte hashes under the XOR metric and
// returns -1, 0 or +1 as a < b, a == b, a > b. Smaller means closer to
// the reference point that both were XORed against — callers pass
// pre-XORed values or use CloserToTarget.
func XORDistance(a, b [32]byte) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// DistanceTo returns the XOR distance value |id ⊕ target| as a comparable
// 32-byte big-endian quantity.
func DistanceTo(id, target [32]byte) [32]byte {
	var d [32]byte
	for i := range d {
		d[i] = id[i] ^ target[i]
	}
	return d
}

// ClosestToTarget returns the index of the hash in ids closest to target
// under the XOR metric. Ties cannot occur for distinct ids (XOR with a
// fixed target is a bijection). It returns -1 for an empty slice.
//
// This implements the paper's verifiable transition from Phase 1 to
// Phase 2: every group member evaluates it over the group's identity
// hashes with target = HashPayload(message) and derives the same initial
// virtual source with no extra messages.
func ClosestToTarget(ids [][32]byte, target [32]byte) int {
	best := -1
	var bestDist [32]byte
	for i, id := range ids {
		d := DistanceTo(id, target)
		if best == -1 || XORDistance(d, bestDist) < 0 {
			best = i
			bestDist = d
		}
	}
	return best
}
