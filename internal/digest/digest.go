// Package digest implements content digests in the format used by the
// Docker Registry HTTP API v2: an algorithm prefix followed by a colon and
// the lower-case hex encoding of the hash, e.g.
//
//	sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
//
// Only SHA-256 is supported, which is what Docker Hub used for both layer
// blobs and manifest references at the time of the paper's crawl.
package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"strings"
)

// Algorithm identifies the hash algorithm of a digest. Only SHA-256 is
// supported.
const Algorithm = "sha256"

// hexLen is the length of the hex-encoded SHA-256 hash.
const hexLen = sha256.Size * 2

// Digest is a content digest string of the form "sha256:<64 hex chars>".
// The zero value is invalid; construct digests with FromBytes or Parse.
type Digest string

// Errors returned by Parse.
var (
	ErrMissingSeparator = errors.New("digest: missing ':' separator")
	ErrUnknownAlgorithm = errors.New("digest: unknown algorithm")
	ErrInvalidHex       = errors.New("digest: invalid hex encoding")
	ErrInvalidLength    = errors.New("digest: invalid hex length")
)

// FromBytes computes the SHA-256 digest of b.
func FromBytes(b []byte) Digest {
	sum := sha256.Sum256(b)
	return encode(sum[:])
}

// FromUint64 derives a deterministic digest from a 64-bit value. It is used
// by the synthetic dataset generator to give every synthetic unique file a
// stable content digest without materializing its bytes.
func FromUint64(v uint64) Digest {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return FromBytes(buf[:])
}

// encode spells out a SHA-256 sum as a Digest. The string is assembled in
// a stack array and converted once: one allocation per digest.
func encode(sum []byte) Digest {
	var buf [len(Algorithm) + 1 + hexLen]byte
	spell(&buf, sum)
	return Digest(buf[:])
}

// spell writes a SHA-256 sum into buf in the digest format.
func spell(buf *[len(Algorithm) + 1 + hexLen]byte, sum []byte) {
	copy(buf[:], Algorithm+":")
	hex.Encode(buf[len(Algorithm)+1:], sum)
}

// Parse validates s and returns it as a Digest.
func Parse(s string) (Digest, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return "", ErrMissingSeparator
	}
	algo, hx := s[:i], s[i+1:]
	if algo != Algorithm {
		return "", fmt.Errorf("%w: %q", ErrUnknownAlgorithm, algo)
	}
	if len(hx) != hexLen {
		return "", fmt.Errorf("%w: got %d, want %d", ErrInvalidLength, len(hx), hexLen)
	}
	for i := 0; i < len(hx); i++ {
		c := hx[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("%w: byte %q at %d", ErrInvalidHex, c, i)
		}
	}
	return Digest(s), nil
}

// Valid reports whether d is a well-formed digest.
func (d Digest) Valid() bool {
	_, err := Parse(string(d))
	return err == nil
}

// Hex returns the hex portion of the digest (without the algorithm prefix).
// It returns "" if the digest is malformed.
func (d Digest) Hex() string {
	i := strings.IndexByte(string(d), ':')
	if i < 0 {
		return ""
	}
	return string(d)[i+1:]
}

// Short returns a 12-character abbreviation of the hex portion, the
// convention Docker uses when displaying layer and image IDs.
func (d Digest) Short() string {
	h := d.Hex()
	if len(h) >= 12 {
		return h[:12]
	}
	return h
}

// String returns the full digest string.
func (d Digest) String() string { return string(d) }

// Key64 returns the first 8 bytes of the hash as a uint64, a compact
// dedup-index key. Truncating SHA-256 to 64 bits preserves the equality
// structure for any realistic file population (collision odds ~2^-32 at a
// billion files). Returns 0 for malformed digests.
func (d Digest) Key64() uint64 { return Key64Hex(d.Hex()) }

// Key64Hex is Key64 of a digest's hex portion, given as a string or as
// bytes, so a caller holding the hex in a buffer builds no Digest.
func Key64Hex[H string | []byte](h H) uint64 {
	if len(h) < 16 {
		return 0
	}
	var v uint64
	for i := 0; i < 16; i++ {
		c := h[i]
		var nib uint64
		switch {
		case c >= '0' && c <= '9':
			nib = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			nib = uint64(c-'a') + 10
		default:
			return 0
		}
		v = v<<4 | nib
	}
	return v
}

// Hasher incrementally computes a content digest, for callers that stream
// data in pieces (e.g. a classification prefix followed by the remainder
// of a large file) without buffering it whole.
type Hasher struct {
	h   hash.Hash
	sum [sha256.Size]byte // Sum's destination: a local would escape through h
}

// NewHasher returns an empty Hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// Write feeds content. It never fails.
func (h *Hasher) Write(p []byte) (int, error) { return h.h.Write(p) }

// Digest returns the digest of everything written so far.
func (h *Hasher) Digest() Digest { return encode(h.h.Sum(h.sum[:0])) }

// Matches reports whether everything written so far hashes to want,
// equal to Digest() == want but without building the digest string.
func (h *Hasher) Matches(want Digest) bool {
	var buf [len(Algorithm) + 1 + hexLen]byte
	spell(&buf, h.h.Sum(h.sum[:0]))
	return string(buf[:]) == string(want)
}

// Reset returns the Hasher to its initial state so it can be reused,
// letting hot paths (one digest per file instance) pool hashers instead of
// allocating a fresh SHA-256 state each time.
func (h *Hasher) Reset() { h.h.Reset() }

// Key64 returns the first 8 bytes of the current hash as a big-endian
// uint64, equal to Digest().Key64() but without materializing the digest
// string.
func (h *Hasher) Key64() uint64 {
	return binary.BigEndian.Uint64(h.h.Sum(h.sum[:0])[:8])
}
