package dedupstore

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/digest"
)

// RecipeEntry is one tar member of a decomposed layer.
type RecipeEntry struct {
	// Name is the member path inside the layer.
	Name string
	// Dir marks directory entries (no content, no size).
	Dir bool
	// Size is the file size in bytes.
	Size int64
	// Content is the pool digest of the file content (empty for
	// directories).
	Content digest.Digest
}

// Recipe describes how to reassemble one layer blob bit-exactly: the tar
// members in original order, plus whether the wire blob was gzip-framed.
// The recipe is keyed by the blob's wire digest in the Store, so no
// separate verification digest is carried — reassembly was proven against
// the wire digest at put time.
type Recipe struct {
	// Gzip records whether the wire blob was gzip-compressed; Get
	// recompresses on read when set (same gzip level as the materializer,
	// so the framing reproduces exactly).
	Gzip bool
	// Entries are the members in original order.
	Entries []RecipeEntry
}

// fileCount returns the number of non-directory entries.
func (r *Recipe) fileCount() int64 {
	var n int64
	for i := range r.Entries {
		if !r.Entries[i].Dir {
			n++
		}
	}
	return n
}

// Binary recipe encoding. Recipes are pure metadata overhead next to the
// pool — every byte spent here eats directly into the realized savings
// ratio — so the format is compact: a 4-byte magic, a flag byte, then per
// entry a kind byte, a varint name length plus the name, and for files a
// varint size plus the 32 raw digest bytes (vs ~140 B/entry for the JSON
// encoding this replaced, whose hex digests alone were 71 bytes).
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

// EncodeRecipe serializes a recipe to the compact binary format.
func EncodeRecipe(r *Recipe) []byte {
	var flags byte
	if r.Gzip {
		flags |= flagGzip
	}
	buf := make([]byte, 0, 8+len(r.Entries)*(rawDigestLen+16))
	buf = append(buf, recipeMagic...)
	buf = append(buf, recipeVersion, flags)
	buf = binary.AppendUvarint(buf, uint64(len(r.Entries)))
	for i := range r.Entries {
		e := &r.Entries[i]
		if e.Dir {
			buf = append(buf, entryDir)
			buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
			buf = append(buf, e.Name...)
			continue
		}
		buf = append(buf, entryFile)
		buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.AppendUvarint(buf, uint64(e.Size))
		// Digests in a recipe come from the store's own hashing, so the
		// hex is well-formed.
		buf, _ = hex.AppendDecode(buf, []byte(e.Content.Hex()))
	}
	return buf
}

// DecodeRecipe parses the compact binary format.
func DecodeRecipe(data []byte) (*Recipe, error) {
	if len(data) < len(recipeMagic)+2 || string(data[:len(recipeMagic)]) != recipeMagic {
		return nil, fmt.Errorf("dedupstore: not a recipe")
	}
	if v := data[len(recipeMagic)]; v != recipeVersion {
		return nil, fmt.Errorf("dedupstore: unsupported recipe version %d", v)
	}
	flags := data[len(recipeMagic)+1]
	rest := data[len(recipeMagic)+2:]
	r := &Recipe{Gzip: flags&flagGzip != 0}

	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("dedupstore: truncated recipe header")
	}
	rest = rest[n:]
	r.Entries = make([]RecipeEntry, 0, count)
	// One scratch holds "sha256:" and receives each entry's hex after it, so
	// a content digest costs the one string allocation.
	dbuf := make([]byte, len(digestPrefix), len(digestPrefix)+2*rawDigestLen)
	copy(dbuf, digestPrefix)
	for i := uint64(0); i < count; i++ {
		if len(rest) == 0 {
			return nil, fmt.Errorf("dedupstore: truncated recipe entry %d", i)
		}
		kind := rest[0]
		rest = rest[1:]
		nameLen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest[n:])) < nameLen {
			return nil, fmt.Errorf("dedupstore: truncated name in recipe entry %d", i)
		}
		name := string(rest[n : n+int(nameLen)])
		rest = rest[n+int(nameLen):]
		if kind == entryDir {
			r.Entries = append(r.Entries, RecipeEntry{Name: name, Dir: true})
			continue
		}
		size, n := binary.Uvarint(rest)
		if n <= 0 || len(rest[n:]) < rawDigestLen {
			return nil, fmt.Errorf("dedupstore: truncated content in recipe entry %d", i)
		}
		d := digest.Digest(hex.AppendEncode(dbuf[:len(digestPrefix)], rest[n:n+rawDigestLen]))
		rest = rest[n+rawDigestLen:]
		r.Entries = append(r.Entries, RecipeEntry{Name: name, Size: int64(size), Content: d})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dedupstore: %d trailing bytes after recipe", len(rest))
	}
	return r, nil
}
