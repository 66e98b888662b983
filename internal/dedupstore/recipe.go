package dedupstore

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"repro/internal/digest"
)

// Binary recipe encoding. Recipes are pure metadata overhead next to the
// pool — every byte spent here eats directly into the realized savings
// ratio — so the format is compact: a 4-byte magic, a version byte, a flag
// byte and a varint entry count, then per entry a kind byte, a varint name
// length plus the name, and for files a varint size plus the 32 raw digest
// bytes (vs ~140 B/entry for the JSON encoding this replaced, whose hex
// digests alone were 71 bytes). The encoding is the recipe's one form on
// the store's paths: the put path writes it member by member
// (recipeEncoder), and everything that reads it walks it in place
// (recipeCursor).
const (
	recipeMagic   = "drcp"
	recipeVersion = 1

	entryFile = 0x00
	entryDir  = 0x01

	flagGzip = 0x01
)

// rawDigestLen is the byte length of a binary-encoded content digest;
// digestPrefix is what precedes its hex in a digest.Digest.
const (
	rawDigestLen = 32
	digestPrefix = digest.Algorithm + ":"
)

// recipeHeaderMax is the longest header an encoding has: magic, version,
// flags and the entry count's varint.
const recipeHeaderMax = len(recipeMagic) + 2 + binary.MaxVarintLen64

// recipeEncoder writes an encoding one member at a time. The members go
// after room kept for the header, whose entry count is known only at the
// end; finish writes the header into the end of that room. Reused, it
// allocates nothing per member.
type recipeEncoder struct {
	buf   []byte
	count uint64
}

// reset starts a new encoding in the encoder's buffer.
func (e *recipeEncoder) reset() {
	e.buf = append(e.buf[:0], make([]byte, recipeHeaderMax)...)
	e.count = 0
}

// dir appends a directory member.
func (e *recipeEncoder) dir(name string) { e.member(entryDir, name) }

// file appends a regular file of size bytes whose content the pool holds
// under sum.
func (e *recipeEncoder) file(name string, size int64, sum digest.Digest) {
	e.member(entryFile, name)
	e.buf = binary.AppendUvarint(e.buf, uint64(size))
	// Digests in a recipe come from the store's own hashing, so the hex is
	// well-formed.
	e.buf, _ = hex.AppendDecode(e.buf, []byte(sum.Hex()))
}

// member appends what every member starts with: its kind and its name.
func (e *recipeEncoder) member(kind byte, name string) {
	e.buf = append(e.buf, kind)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(name)))
	e.buf = append(e.buf, name...)
	e.count++
}

// finish writes the header and returns the encoding, a view of the
// encoder's buffer.
func (e *recipeEncoder) finish(gzip bool) []byte {
	var flags byte
	if gzip {
		flags |= flagGzip
	}
	var hdr [recipeHeaderMax]byte
	h := append(hdr[:0], recipeMagic...)
	h = append(h, recipeVersion, flags)
	h = binary.AppendUvarint(h, e.count)
	start := recipeHeaderMax - len(h)
	copy(e.buf[start:], h)
	return e.buf[start:]
}

// members returns a cursor over the members appended so far.
func (e *recipeEncoder) members() recipeCursor {
	return recipeCursor{rest: e.buf[recipeHeaderMax:], left: e.count}
}

// recipeCursor reads an encoding one member at a time, in place: the
// current member's name and digest are views of the encoding, so a walk
// allocates nothing. It is the one parser of the format, under reassembly
// (writeBlob) and reference release (releaseEntry). It refuses every byte
// string that recipeEncoder could not have written, so an encoding it
// accepts re-encodes to itself.
type recipeCursor struct {
	gzip bool
	rest []byte // the encoding after the current member
	left uint64 // members not yet read
	read uint64 // members read

	// The current member.
	dir  bool
	name []byte
	size int64
	sum  []byte // raw content digest; nil for a directory

	err error // the first malformed byte's error; next reports false after it
}

// openRecipe reads an encoding's header and returns a cursor before its
// first member.
func openRecipe(data []byte) (recipeCursor, error) {
	if len(data) < len(recipeMagic)+2 || string(data[:len(recipeMagic)]) != recipeMagic {
		return recipeCursor{}, errors.New("dedupstore: not a recipe")
	}
	if v := data[len(recipeMagic)]; v != recipeVersion {
		return recipeCursor{}, fmt.Errorf("dedupstore: unsupported recipe version %d", v)
	}
	flags := data[len(recipeMagic)+1]
	if flags&^flagGzip != 0 {
		return recipeCursor{}, fmt.Errorf("dedupstore: unknown recipe flags %#x", flags)
	}
	rest := data[len(recipeMagic)+2:]
	count, n := uvarint(rest)
	if n <= 0 {
		return recipeCursor{}, errors.New("dedupstore: malformed recipe entry count")
	}
	rest = rest[n:]
	// Every entry takes at least two bytes, its kind and its name's length,
	// so a count the rest cannot hold is refused before anyone sizes
	// anything by it.
	if count > uint64(len(rest))/2 {
		return recipeCursor{}, fmt.Errorf("dedupstore: recipe claims %d entries in %d bytes", count, len(rest))
	}
	return recipeCursor{gzip: flags&flagGzip != 0, rest: rest, left: count}, nil
}

// next moves to the next member and reports whether there is one. It
// reports false after the last member, and at a malformed member, leaving
// the error in c.err; bytes after the last member are malformed too.
func (c *recipeCursor) next() bool {
	if c.err != nil {
		return false
	}
	if c.left == 0 {
		if len(c.rest) != 0 {
			c.err = fmt.Errorf("dedupstore: %d trailing bytes after recipe", len(c.rest))
		}
		return false
	}
	rest := c.rest
	if len(rest) == 0 {
		return c.fail("missing")
	}
	kind := rest[0]
	if kind != entryFile && kind != entryDir {
		return c.fail(fmt.Sprintf("unknown kind %#x", kind))
	}
	nameLen, n := uvarint(rest[1:])
	if n <= 0 || nameLen > uint64(len(rest)-1-n) {
		return c.fail("malformed name")
	}
	rest = rest[1+n:]
	c.dir, c.name, rest = kind == entryDir, rest[:nameLen], rest[nameLen:]
	c.size, c.sum = 0, nil
	if !c.dir {
		size, n := uvarint(rest)
		if n <= 0 || size > math.MaxInt64 || len(rest)-n < rawDigestLen {
			return c.fail("malformed content")
		}
		c.size, c.sum, rest = int64(size), rest[n:n+rawDigestLen], rest[n+rawDigestLen:]
	}
	c.rest = rest
	c.left--
	c.read++
	return true
}

func (c *recipeCursor) fail(what string) bool {
	c.err = fmt.Errorf("dedupstore: recipe entry %d: %s", c.read, what)
	return false
}

// spell writes the current file's content digest into k.
func (c *recipeCursor) spell(k *spelled) {
	copy(k[:], digestPrefix)
	hex.Encode(k[len(digestPrefix):], c.sum)
}

// uvarint reads a varint as binary.Uvarint does, but refuses the padded
// forms — a zero last byte — that binary.AppendUvarint never writes.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return x, n
}
