package wire

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sync/atomic"
	"unsafe"
)

// internSlots is the size of an Interner's table. On a flood overlay a
// payload arrives once per inbound edge within a few frames of its first
// copy, so the table only has to span the transactions in flight at one
// node, not its history. With 128 slots per node, 65.6 % of the strings
// live16 interns are found in the table (the ceiling is ≈ 68 %: a node's
// first copy of a transaction always misses), and its alloc_mb falls
// from 541 to 319 MB (DESIGN §2l). 1024 slots saved only 10 MB more
// and pinned 8× the payloads per node: +21 % peak RSS and −6 %
// broadcasts/s on 16 nodes.
const internSlots = 128

// maxInternLen bounds the strings an Interner keeps: a string longer
// than a frame read buffer is copied as if there were no table, so a
// node never pins more than internSlots × maxInternLen bytes.
const maxInternLen = frameBufLen

// entryHeader is the length prefix of an interned entry.
const entryHeader = 4

// Interner deduplicates the byte strings one node decodes: a string
// equal to one decoded recently is returned as that earlier slice
// instead of a fresh copy. It is a direct-mapped table — hash, one slot,
// bytes.Equal — whose slots are atomic, so the reader goroutines of all
// of a node's inbound connections share it without a lock. Interned
// slices are shared and must be treated as read-only (proto.Handler).
type Interner struct {
	seed maphash.Seed
	// slots point at entries: one allocation holding a 4-byte
	// little-endian length, then the string. An entry is never written
	// after it is published, so one atomic store publishes it whole.
	slots [internSlots]atomic.Pointer[byte]
}

// NewInterner returns an empty table with its own hash seed.
func NewInterner() *Interner { return &Interner{seed: maphash.MakeSeed()} }

// intern returns a slice equal to b that never aliases it, with
// cap == len: the slot's entry on a hit, otherwise a new entry that
// replaces it. Empty and oversize strings are plain copies.
func (t *Interner) intern(b []byte) []byte {
	if len(b) == 0 || len(b) > maxInternLen {
		return clone(b)
	}
	slot := &t.slots[maphash.Bytes(t.seed, b)&(internSlots-1)]
	if p := slot.Load(); p != nil {
		if s := entryBytes(p); bytes.Equal(s, b) {
			return s
		}
	}
	e := make([]byte, entryHeader+len(b))
	binary.LittleEndian.PutUint32(e, uint32(len(b)))
	copy(e[entryHeader:], b)
	slot.Store(&e[0])
	return e[entryHeader:]
}

// entryBytes returns the string of the entry starting at p.
func entryBytes(p *byte) []byte {
	n := binary.LittleEndian.Uint32(unsafe.Slice(p, entryHeader))
	return unsafe.Slice(p, entryHeader+int(n))[entryHeader:]
}
