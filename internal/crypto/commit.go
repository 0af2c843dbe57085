package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"hash/crc32"
)

// SaltSize is the byte length of commitment salts.
const SaltSize = 16

// Commit returns a hiding, binding commitment to value under salt:
// HMAC-SHA256(salt, value). Used by the von-Ahn-style blame extension
// (§V-C): members commit to their DC-net shares before sending so a
// disruptor cannot retroactively change its story.
func Commit(value, salt []byte) [32]byte {
	mac := hmac.New(sha256.New, salt)
	mac.Write(value)
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// VerifyCommit checks value/salt against a commitment in constant time.
func VerifyCommit(commitment [32]byte, value, salt []byte) bool {
	want := Commit(value, salt)
	return hmac.Equal(commitment[:], want[:])
}

// CRCSize is the byte length of the CRC trailer protecting DC-net
// payloads against undetected collisions (§III-B: "message should carry
// CRC bits or a similar protection").
const CRCSize = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendCRC returns payload with its CRC32-C trailer appended.
func AppendCRC(payload []byte) []byte {
	out := make([]byte, len(payload)+CRCSize)
	copy(out, payload)
	binary.LittleEndian.PutUint32(out[len(payload):], crc32.Checksum(payload, castagnoli))
	return out
}

// CheckCRC verifies and strips the CRC trailer. It returns (payload,
// true) on success and (nil, false) for short or corrupt inputs — the
// signature a DC-net member uses to distinguish a valid anonymous message
// from a collision of multiple senders.
func CheckCRC(b []byte) ([]byte, bool) {
	if len(b) < CRCSize {
		return nil, false
	}
	payload, trailer := b[:len(b)-CRCSize], b[len(b)-CRCSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, false
	}
	return payload, true
}

// IsZero reports whether every byte of b is zero — an idle DC-net slot.
// It scans a word at a time.
func IsZero(b []byte) bool {
	var acc uint64
	for len(b) >= 8 {
		acc |= binary.NativeEndian.Uint64(b)
		b = b[8:]
	}
	for _, v := range b {
		acc |= uint64(v)
	}
	return acc == 0
}

// XORBytes xors src into dst (dst ^= src); the slices must be the same
// length. It is the core DC-net accumulation operation, so it runs the
// standard library's vectorised crypto/subtle.XORBytes.
func XORBytes(dst, src []byte) {
	if len(dst) != len(src) {
		panic("crypto: XORBytes length mismatch")
	}
	subtle.XORBytes(dst, dst, src)
}
