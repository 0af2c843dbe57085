package crypto

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"testing"
	"testing/quick"
)

func TestIdentityDeterministicFromSeed(t *testing.T) {
	var seed [32]byte
	seed[0] = 7
	a := IdentityFromSeed(seed)
	b := IdentityFromSeed(seed)
	if a.Hash() != b.Hash() {
		t.Error("same seed produced different hashes")
	}
	// SHA-256 of the Ed25519 public key for this seed: live nodes select
	// virtual sources by it, so the derivation must not drift.
	if got := fmt.Sprintf("%x", a.Hash()); got != "4e40120b721f4d3b2353db38e447488f776fb4f189509147ce2ed107de55d3e7" {
		t.Errorf("Hash() = %s, derivation changed", got)
	}
	seed[0] = 8
	c := IdentityFromSeed(seed)
	if a.Hash() == c.Hash() {
		t.Error("different seeds produced same identity")
	}
}

func TestClosestToTargetAgreesAcrossMembers(t *testing.T) {
	// All group members must derive the same initial virtual source from
	// the same inputs, regardless of slice order of their own view —
	// here we verify the selection depends only on content.
	ids := make([][32]byte, 7)
	for i := range ids {
		var seed [32]byte
		seed[0] = byte(i)
		ids[i] = IdentityFromSeed(seed).Hash()
	}
	target := HashPayload([]byte("tx-bytes"))
	want := ClosestToTarget(ids, target)
	if want < 0 || want >= len(ids) {
		t.Fatalf("ClosestToTarget out of range: %d", want)
	}
	// Brute-force check: no other id has a strictly smaller distance.
	for i, id := range ids {
		if XORDistance(DistanceTo(id, target), DistanceTo(ids[want], target)) < 0 {
			t.Errorf("id %d closer than winner %d", i, want)
		}
	}
	if ClosestToTarget(nil, target) != -1 {
		t.Error("empty slice should return -1")
	}
}

func TestClosestToTargetOriginatorIndependence(t *testing.T) {
	// §IV-B requires the transition to be independent of the originator:
	// the winner is a pure function of (message, member identities), so
	// every member computes the same winner, and over random messages no
	// member is starved (each wins sometimes). Note the distribution is
	// NOT uniform in general — XOR-metric cells depend on identity-hash
	// trie geometry — and the paper does not claim uniformity.
	const members = 5
	const trials = 5000
	ids := make([][32]byte, members)
	for i := range ids {
		var seed [32]byte
		seed[0] = byte(i + 1)
		ids[i] = IdentityFromSeed(seed).Hash()
	}
	counts := make([]int, members)
	rng := mrand.New(mrand.NewPCG(1, 2))
	buf := make([]byte, 32)
	for i := 0; i < trials; i++ {
		for j := range buf {
			buf[j] = byte(rng.Uint32())
		}
		winner := ClosestToTarget(ids, HashPayload(buf))
		// Re-evaluating (any member's view) yields the same winner.
		if again := ClosestToTarget(ids, HashPayload(buf)); again != winner {
			t.Fatalf("winner not deterministic: %d vs %d", winner, again)
		}
		counts[winner]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("member %d never selected over %d random messages", i, trials)
		}
	}
}

func TestXORDistanceProperties(t *testing.T) {
	f := func(a, b [32]byte) bool {
		d := XORDistance(a, b)
		// Antisymmetry and identity.
		if XORDistance(b, a) != -d {
			return false
		}
		return XORDistance(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSecureChannelRoundTrip(t *testing.T) {
	kxA, err := NewKeyExchange(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	kxB, err := NewKeyExchange(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	chA, err := kxA.Channel(kxB.PublicBytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	chB, err := kxB.Channel(kxA.PublicBytes(), false)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		msg := []byte{byte(i), 1, 2, 3}
		aad := []byte("round-1")
		ct, err := chA.Seal(msg, aad)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(ct, msg) {
			t.Error("ciphertext contains plaintext")
		}
		pt, err := chB.Open(ct, aad)
		if err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Errorf("round trip %d mismatch", i)
		}
		// And the reverse direction.
		ct2, err := chB.Seal(msg, aad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chA.Open(ct2, aad); err != nil {
			t.Fatalf("reverse Open %d: %v", i, err)
		}
	}
}

func TestSecureChannelTamperDetection(t *testing.T) {
	kxA, _ := NewKeyExchange(rand.Reader)
	kxB, _ := NewKeyExchange(rand.Reader)
	chA, _ := kxA.Channel(kxB.PublicBytes(), true)
	chB, _ := kxB.Channel(kxA.PublicBytes(), false)

	ct, err := chA.Seal([]byte("secret share"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	ct[0] ^= 1
	if _, err := chB.Open(ct, []byte("aad")); !errors.Is(err, ErrDecrypt) {
		t.Errorf("tampered frame accepted: %v", err)
	}
	// AAD mismatch must also fail; note recvSeq did not advance on the
	// failed open, so a clean frame still decrypts afterwards.
	ct2, _ := chA.Seal([]byte("x"), []byte("aad-1"))
	if _, err := chB.Open(ct2, []byte("aad-2")); !errors.Is(err, ErrDecrypt) {
		t.Errorf("wrong AAD accepted: %v", err)
	}
}

func TestSecureChannelBadPeerKey(t *testing.T) {
	kx, _ := NewKeyExchange(rand.Reader)
	if _, err := kx.Channel([]byte{1, 2, 3}, true); err == nil {
		t.Error("short peer key accepted")
	}
}

func TestHKDFExpandsDeterministically(t *testing.T) {
	secret := []byte("shared-secret")
	a := hkdfSHA256(secret, []byte("label"), 64)
	b := hkdfSHA256(secret, []byte("label"), 64)
	if !bytes.Equal(a, b) {
		t.Error("HKDF not deterministic")
	}
	c := hkdfSHA256(secret, []byte("other"), 64)
	if bytes.Equal(a, c) {
		t.Error("HKDF ignores info")
	}
	if len(hkdfSHA256(secret, nil, 7)) != 7 {
		t.Error("HKDF wrong length")
	}
}

func TestCommitVerify(t *testing.T) {
	salt := bytes.Repeat([]byte{0x5a}, SaltSize)
	other := bytes.Repeat([]byte{0xa5}, SaltSize)
	value := []byte("dc-net share bytes")
	c := Commit(value, salt)
	if !VerifyCommit(c, value, salt) {
		t.Error("valid opening rejected")
	}
	if VerifyCommit(c, []byte("other"), salt) {
		t.Error("wrong value accepted")
	}
	if VerifyCommit(c, value, other) {
		t.Error("wrong salt accepted")
	}
}

func TestCRCRoundTrip(t *testing.T) {
	payload := []byte("anonymous transaction")
	protected := AppendCRC(payload)
	if len(protected) != len(payload)+CRCSize {
		t.Fatalf("protected length = %d", len(protected))
	}
	got, ok := CheckCRC(protected)
	if !ok || !bytes.Equal(got, payload) {
		t.Error("CRC round trip failed")
	}
	protected[3] ^= 0xff
	if _, ok := CheckCRC(protected); ok {
		t.Error("corrupted payload passed CRC")
	}
	if _, ok := CheckCRC([]byte{1, 2}); ok {
		t.Error("short buffer passed CRC")
	}
}

func TestCRCDetectsCollisions(t *testing.T) {
	// The XOR of two valid CRC-protected messages must not verify —
	// that's how DC-net members detect collisions.
	a := AppendCRC([]byte("message-from-alice"))
	b := AppendCRC([]byte("message-from-bob!!"))
	x := make([]byte, len(a))
	copy(x, a)
	XORBytes(x, b)
	if _, ok := CheckCRC(x); ok {
		t.Error("XOR of two valid messages passed CRC")
	}
}

func TestIsZeroAndXORBytes(t *testing.T) {
	if !IsZero(make([]byte, 16)) {
		t.Error("IsZero(zeros) = false")
	}
	if IsZero([]byte{0, 0, 1}) {
		t.Error("IsZero(nonzero) = true")
	}
	a := []byte{1, 2, 3}
	XORBytes(a, []byte{1, 2, 3})
	if !IsZero(a) {
		t.Error("x ^ x != 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	XORBytes([]byte{1}, []byte{1, 2})
}

// Property: XOR of k shares reconstructs the message — the share-split
// operation used in DC-net step 1.
func TestShareSplitProperty(t *testing.T) {
	f := func(msg []byte, k8 uint8) bool {
		k := int(k8%8) + 2
		rng := mrand.New(mrand.NewPCG(uint64(len(msg)), uint64(k)))
		shares := make([][]byte, k)
		acc := make([]byte, len(msg))
		for i := 0; i < k-1; i++ {
			shares[i] = make([]byte, len(msg))
			for j := range shares[i] {
				shares[i][j] = byte(rng.Uint32())
			}
			XORBytes(acc, shares[i])
		}
		last := make([]byte, len(msg))
		copy(last, msg)
		XORBytes(last, acc)
		shares[k-1] = last

		recon := make([]byte, len(msg))
		for _, s := range shares {
			XORBytes(recon, s)
		}
		return bytes.Equal(recon, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDCNetPrimitiveAllocs: the DC-net accumulation step and the
// virtual-source pick run once per share and once per message per group
// member, and allocate nothing.
func TestDCNetPrimitiveAllocs(t *testing.T) {
	dst, src := make([]byte, 256), make([]byte, 256)
	ids := make([][32]byte, 19)
	for i := range ids {
		var seed [32]byte
		seed[0] = byte(i)
		ids[i] = IdentityFromSeed(seed).Hash()
	}
	target := HashPayload([]byte("tx"))
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"XORBytes", func() { XORBytes(dst, src) }},
		{"ClosestToTarget", func() { _ = ClosestToTarget(ids, target) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
			t.Errorf("%s allocates %v times, want 0", tc.name, got)
		}
	}
}
