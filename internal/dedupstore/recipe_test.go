package dedupstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

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
// the wire digest at put time. The store itself only ever holds the
// encoding; DecodeRecipe builds this form for the tests.
type Recipe struct {
	// Gzip records whether the wire blob was gzip-compressed; Get
	// recompresses on read when set (tarutil's one deflate level, the
	// synthetic layers' own, so the framing reproduces exactly).
	Gzip bool
	// Entries are the members in original order.
	Entries []RecipeEntry
}

// DecodeRecipe parses the compact binary format into a Recipe.
func DecodeRecipe(data []byte) (*Recipe, error) {
	c, err := openRecipe(data)
	if err != nil {
		return nil, err
	}
	r := &Recipe{Gzip: c.gzip, Entries: make([]RecipeEntry, 0, c.left)}
	for c.next() {
		e := RecipeEntry{Name: string(c.name), Dir: c.dir, Size: c.size}
		if !c.dir {
			e.Content = memberDigest(&c)
		}
		r.Entries = append(r.Entries, e)
	}
	if c.err != nil {
		return nil, c.err
	}
	return r, nil
}

// memberDigest returns the cursor's current file's content digest.
func memberDigest(c *recipeCursor) digest.Digest {
	var k spelled
	c.spell(&k)
	return digest.Digest(k[:])
}

// Recipe returns the stored recipe for a decomposed blob (nil for raw
// blobs).
func (s *Store) Recipe(d digest.Digest) *Recipe {
	s.mu.RLock()
	e, ok := s.blobs[d]
	s.mu.RUnlock()
	if !ok || e.recipeZ == nil {
		return nil
	}
	rb, err := inflateRecipe(e.recipeZ)
	if err != nil {
		return nil
	}
	defer putRecipeBuf(rb)
	rec, err := DecodeRecipe(rb.enc.Bytes())
	if err != nil {
		return nil
	}
	return rec
}

// encodeRecipe is a Recipe's encoding, as the put path writes it.
func encodeRecipe(r *Recipe) []byte { return encodeWith(new(recipeEncoder), r) }

// encodeWith writes r's encoding with e.
func encodeWith(e *recipeEncoder, r *Recipe) []byte {
	e.reset()
	for _, m := range r.Entries {
		if m.Dir {
			e.dir(m.Name)
		} else {
			e.file(m.Name, m.Size, m.Content)
		}
	}
	return e.finish(r.Gzip)
}

// checkRecipe holds the codec to its properties on one input: no panic;
// the cursor and DecodeRecipe accept the same inputs and agree entry for
// entry; and what they accept re-encodes to the input itself.
func checkRecipe(t *testing.T, data []byte) {
	t.Helper()
	rec, decErr := DecodeRecipe(data)
	var walked []RecipeEntry
	c, err := openRecipe(data)
	if err == nil {
		for c.next() {
			e := RecipeEntry{Name: string(c.name), Dir: c.dir, Size: c.size}
			if !c.dir {
				e.Content = memberDigest(&c)
			}
			walked = append(walked, e)
		}
		err = c.err
	}
	if (err == nil) != (decErr == nil) {
		t.Fatalf("cursor error %v, DecodeRecipe error %v", err, decErr)
	}
	if decErr != nil {
		return
	}
	if len(walked) != len(rec.Entries) || c.gzip != rec.Gzip {
		t.Fatalf("cursor read %d entries (gzip %v), DecodeRecipe %d (gzip %v)", len(walked), c.gzip, len(rec.Entries), rec.Gzip)
	}
	for i := range walked {
		if walked[i] != rec.Entries[i] {
			t.Fatalf("entry %d: cursor %+v, DecodeRecipe %+v", i, walked[i], rec.Entries[i])
		}
	}
	if again := encodeRecipe(rec); !bytes.Equal(again, data) {
		t.Fatalf("accepted %x, which re-encodes to %x", data, again)
	}
}

// FuzzRecipe holds the drcp codec to checkRecipe's properties. The seed
// corpus in testdata/fuzz/FuzzRecipe is recipeSeeds, written by
// TestRecipeSeeds where a seed file is missing.
func FuzzRecipe(f *testing.F) {
	f.Fuzz(checkRecipe)
}

// recipeSeed is one input of FuzzRecipe's seed corpus and whether the
// codec must accept it.
type recipeSeed struct {
	name string
	data []byte
	ok   bool
}

// goldenRecipe is TestRecipeEncodingGolden's recipe.
func goldenRecipe() *Recipe {
	return &Recipe{Gzip: true, Entries: []RecipeEntry{
		{Name: "app", Dir: true},
		{Name: "app/a.txt", Size: 300, Content: digest.FromBytes([]byte("a"))},
		{Name: "app/empty", Size: 0, Content: digest.FromBytes([]byte(""))},
	}}
}

func recipeSeeds() []recipeSeed {
	golden := encodeRecipe(goldenRecipe())
	with := func(prefix []byte, rest ...byte) []byte { return append(bytes.Clone(prefix), rest...) }
	header := []byte(recipeMagic + "\x01\x01")
	seeds := []recipeSeed{
		{name: "golden", data: golden, ok: true},
		{name: "empty-recipe", data: with(header, 0), ok: true},
		{name: "plain-tar", data: encodeRecipe(&Recipe{Entries: goldenRecipe().Entries}), ok: true},
		{name: "huge-count", data: binary.AppendUvarint(bytes.Clone(header), 1<<62)},
		{name: "name-length-overflow", data: binary.AppendUvarint(with(header, 1, entryDir), 1<<63)},
		{name: "padded-varint", data: with(header, 0x80, 0x00)},
		{name: "trailing-bytes", data: with(golden, 0)},
		{name: "bad-magic", data: append([]byte("DRCP"), golden[4:]...)},
		{name: "bad-version", data: with(header[:4], 2, 1, 0)},
		{name: "unknown-flags", data: with(header[:5], 0x03, 0)},
		{name: "unknown-kind", data: append(with(header, 1, 0x02, 0, 0), make([]byte, rawDigestLen)...)},
		{name: "size-over-int64", data: append(binary.AppendUvarint(with(header, 1, entryFile, 0), 1<<63), make([]byte, rawDigestLen)...)},
	}
	// A truncation inside every field of the golden encoding: magic,
	// version, flags, count, then each entry's kind, name length, name,
	// size and digest.
	for _, cut := range []int{0, 2, 4, 5, 6, 7, 8, 12, 13, 21, 23, 24, 40, 56, 58, 59, 68, len(golden) - 1} {
		seeds = append(seeds, recipeSeed{name: fmt.Sprintf("truncated-%03d", cut), data: golden[:cut]})
	}
	return seeds
}

// TestRecipeSeeds holds the codec to each seed's stated outcome and to
// checkRecipe, and the committed corpus to recipeSeeds. It writes a seed
// file that is missing, so deleting the corpus and running it regenerates
// it.
func TestRecipeSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRecipe")
	for _, s := range recipeSeeds() {
		t.Run(s.name, func(t *testing.T) {
			if _, err := DecodeRecipe(s.data); (err == nil) != s.ok {
				t.Fatalf("DecodeRecipe error %v, want accepted = %v", err, s.ok)
			}
			checkRecipe(t, s.data)

			file := filepath.Join(dir, s.name)
			corpus := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s.data)) + ")\n"
			if _, err := os.Stat(file); errors.Is(err, fs.ErrNotExist) {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, []byte(corpus), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if b, err := os.ReadFile(file); err != nil || string(b) != corpus {
				t.Fatalf("seed %s is not recipeSeeds' (%v): delete it and run TestRecipeSeeds again", file, err)
			}
		})
	}
}

// TestRecipeHugeCount: an entry count the input cannot hold is an error,
// not a makeslice panic.
func TestRecipeHugeCount(t *testing.T) {
	data := binary.AppendUvarint([]byte(recipeMagic+"\x01\x00"), 1<<62)
	data = append(data, bytes.Repeat([]byte{entryDir, 0}, 8)...)
	if _, err := DecodeRecipe(data); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("DecodeRecipe = %v, want the count refused", err)
	}
}

// TestStoredRecipesExactSize: the at-rest recipe the store keeps is as
// large as Stats.RecipeBytes counts it, with no growth slack behind it.
func TestStoredRecipesExactSize(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	var counted int64
	for _, n := range []int{1, 2, 5, 17, 33, 64, 100, 128} {
		files := map[string]string{}
		for i := 0; i < n; i++ {
			files[fmt.Sprintf("f%03d", i)] = fmt.Sprintf("content %d of %d", i, n)
		}
		d := putStream(t, s, buildLayer(t, files))
		s.mu.RLock()
		z := s.blobs[d].recipeZ
		s.mu.RUnlock()
		if cap(z) != len(z) {
			t.Fatalf("%d-file recipe: %d bytes held for %d counted", n, cap(z), len(z))
		}
		counted += int64(len(z))
	}
	if got := s.Stats().RecipeBytes; got != counted {
		t.Fatalf("RecipeBytes = %d, want %d", got, counted)
	}
}
