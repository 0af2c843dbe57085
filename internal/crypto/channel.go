package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Channel errors.
var (
	// ErrDecrypt indicates authentication failure on an incoming frame.
	ErrDecrypt = errors.New("crypto: message authentication failed")
	// ErrNonceExhausted indicates the channel sent 2⁶⁴−1 messages.
	ErrNonceExhausted = errors.New("crypto: channel nonce space exhausted")
)

// KeyExchange holds an ephemeral X25519 key used to establish pairwise
// channels between DC-net group members.
type KeyExchange struct {
	priv *ecdh.PrivateKey
}

// NewKeyExchange generates an X25519 key pair from entropy.
func NewKeyExchange(entropy io.Reader) (*KeyExchange, error) {
	priv, err := ecdh.X25519().GenerateKey(entropy)
	if err != nil {
		return nil, fmt.Errorf("crypto: generating X25519 key: %w", err)
	}
	return &KeyExchange{priv: priv}, nil
}

// PublicBytes returns the X25519 public key to send to the peer.
func (kx *KeyExchange) PublicBytes() []byte { return kx.priv.PublicKey().Bytes() }

// Channel derives a bidirectional AEAD channel with the peer whose public
// key bytes are given. Both sides derive the same keys; direction
// separation comes from the role flag (exactly one side must pass
// initiator=true — by convention the side with the smaller identity hash).
func (kx *KeyExchange) Channel(peerPub []byte, initiator bool) (*SecureChannel, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("crypto: bad peer X25519 key: %w", err)
	}
	secret, err := kx.priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("crypto: ECDH: %w", err)
	}
	sendLabel, recvLabel := "dcnet-init->resp", "dcnet-resp->init"
	if !initiator {
		sendLabel, recvLabel = recvLabel, sendLabel
	}
	sendKey := hkdfSHA256(secret, []byte(sendLabel), 32)
	recvKey := hkdfSHA256(secret, []byte(recvLabel), 32)
	send, err := newGCM(sendKey)
	if err != nil {
		return nil, err
	}
	recv, err := newGCM(recvKey)
	if err != nil {
		return nil, err
	}
	return &SecureChannel{send: send, recv: recv}, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypto: AES: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypto: GCM: %w", err)
	}
	return gcm, nil
}

// hkdfSHA256 is HKDF (RFC 5869) with SHA-256, empty salt, built from
// stdlib HMAC. n must be ≤ 255*32.
func hkdfSHA256(secret, info []byte, n int) []byte {
	// Extract.
	ext := hmac.New(sha256.New, make([]byte, sha256.Size))
	ext.Write(secret)
	prk := ext.Sum(nil)
	// Expand.
	var out []byte
	var block []byte
	for counter := byte(1); len(out) < n; counter++ {
		h := hmac.New(sha256.New, prk)
		h.Write(block)
		h.Write(info)
		h.Write([]byte{counter})
		block = h.Sum(nil)
		out = append(out, block...)
	}
	return out[:n]
}

// SecureChannel is an ordered pairwise AEAD channel. Nonces are message
// counters, so both ends must process messages in order (the runtimes
// guarantee per-link FIFO). Not safe for concurrent use.
type SecureChannel struct {
	send, recv cipher.AEAD
	sendSeq    uint64
	recvSeq    uint64
}

func nonceFor(seq uint64, size int) []byte {
	nonce := make([]byte, size)
	binary.BigEndian.PutUint64(nonce[size-8:], seq)
	return nonce
}

// Seal encrypts and authenticates plaintext, binding the associated data.
func (c *SecureChannel) Seal(plaintext, aad []byte) ([]byte, error) {
	if c.sendSeq == ^uint64(0) {
		return nil, ErrNonceExhausted
	}
	nonce := nonceFor(c.sendSeq, c.send.NonceSize())
	c.sendSeq++
	return c.send.Seal(nil, nonce, plaintext, aad), nil
}

// Open decrypts and verifies a frame produced by the peer's Seal with the
// same associated data.
func (c *SecureChannel) Open(ciphertext, aad []byte) ([]byte, error) {
	nonce := nonceFor(c.recvSeq, c.recv.NonceSize())
	pt, err := c.recv.Open(nil, nonce, ciphertext, aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	c.recvSeq++
	return pt, nil
}
