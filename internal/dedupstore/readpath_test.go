package dedupstore

import (
	"bytes"
	"compress/flate"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/digest"
	"repro/internal/tarutil"
)

// noisyLayer builds a layer of nFiles incompressible files of fileSize
// bytes, gzip-framed or plain tar: big enough that the reassembly crosses
// the write buffer many times.
func noisyLayer(t testing.TB, nFiles, fileSize int, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	b := tarutil.NewBuilder(&buf)
	if gz {
		b = tarutil.NewGzipBuilder(&buf)
	}
	content := make([]byte, fileSize)
	seed := uint64(fileSize)*0x9e3779b97f4a7c15 + uint64(nFiles)
	for i := 0; i < nFiles; i++ {
		for j := range content {
			seed = seed*6364136223846793005 + 1442695040888963407
			content[j] = byte(seed >> 56)
		}
		if err := b.File(fmt.Sprintf("data/f%03d.bin", i), content); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// proseLayer builds a plain tar layer of nFiles distinct files of
// fileSize bytes that the pool packs. Plain, because re-gzipping text is
// the slow part of its reassembly and tells nothing about the inflater.
func proseLayer(t testing.TB, nFiles, fileSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	b := tarutil.NewBuilder(&buf)
	for i := 0; i < nFiles; i++ {
		if err := b.File(fmt.Sprintf("doc/f%03d.txt", i), tapeProse(1000+i, fileSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pullOnly hides a reader's WriterTo, as a decorating store does.
type pullOnly struct{ io.Reader }

// settleGoroutines waits for the goroutine count to come back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d: a reassembly writer leaked", runtime.NumGoroutine(), base)
		}
	}
}

// pins reports the in-flight readers pinning d (0 for a deleted blob).
func pins(s *Store, d digest.Digest) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.blobs[d]; ok {
		return e.readers
	}
	return 0
}

// TestWriteToAndReadAgree: the push path, the pull adapter and a switch
// from one to the other mid-stream all yield the stored wire bytes, for
// every blob shape the store holds.
func TestWriteToAndReadAgree(t *testing.T) {
	blobs := map[string][]byte{
		"gzip layer": noisyLayer(t, 24, 8<<10, true),
		"plain tar":  noisyLayer(t, 24, 8<<10, false),
		"raw blob":   []byte(`{"architecture":"amd64","os":"linux"}`),
	}
	for name, blob := range blobs {
		t.Run(name, func(t *testing.T) {
			s := NewWithConfig(NewMemoryPool(0), Config{})
			d := putStream(t, s, blob)
			base := runtime.NumGoroutine()

			consume := map[string]func(rc io.ReadCloser) ([]byte, error){
				"WriteTo": func(rc io.ReadCloser) ([]byte, error) {
					wt, ok := rc.(io.WriterTo)
					if !ok {
						t.Fatalf("%T is not an io.WriterTo", rc)
					}
					var out bytes.Buffer
					n, err := wt.WriteTo(&out)
					if n != int64(out.Len()) {
						t.Errorf("WriteTo reported %d bytes, delivered %d", n, out.Len())
					}
					return out.Bytes(), err
				},
				"Read": func(rc io.ReadCloser) ([]byte, error) {
					return io.ReadAll(pullOnly{rc})
				},
				"Read then WriteTo": func(rc io.ReadCloser) ([]byte, error) {
					head := make([]byte, 7)
					if _, err := io.ReadFull(rc, head); err != nil {
						return nil, err
					}
					out := bytes.NewBuffer(head)
					_, err := rc.(io.WriterTo).WriteTo(out)
					return out.Bytes(), err
				},
			}
			for how, f := range consume {
				rc, size, err := s.Get(d)
				if err != nil {
					t.Fatalf("%s: Get: %v", how, err)
				}
				got, err := f(rc)
				if err != nil {
					t.Fatalf("%s: %v", how, err)
				}
				if size != int64(len(blob)) || !bytes.Equal(got, blob) || digest.FromBytes(got) != d {
					t.Errorf("%s: got %d bytes (size %d), want the %d stored", how, len(got), size, len(blob))
				}
				// The stream is spent: neither path may replay it.
				if n, err := rc.(io.WriterTo).WriteTo(io.Discard); n != 0 || err != nil {
					t.Errorf("%s: second WriteTo = %d, %v; want 0, nil", how, n, err)
				}
				if n, err := rc.Read(make([]byte, 1)); n != 0 || err != io.EOF {
					t.Errorf("%s: Read after the end = %d, %v; want 0, EOF", how, n, err)
				}
				rc.Close()
			}
			settleGoroutines(t, base)
			if n := pins(s, d); n != 0 {
				t.Errorf("%d readers still pinned after every Close", n)
			}
		})
	}
}

// TestReadPrefixThenClose: a puller that gives up after a prefix stops the
// writer goroutine its first Read started and drops its pin.
func TestReadPrefixThenClose(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	blob := noisyLayer(t, 64, 8<<10, true)
	d := putStream(t, s, blob)
	base := runtime.NumGoroutine()

	rc, _, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() != base {
		t.Error("Get started a goroutine before anything was read")
	}
	head := make([]byte, 100)
	if _, err := io.ReadFull(rc, head); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, blob[:len(head)]) {
		t.Fatal("prefix differs from the stored blob")
	}
	if n := pins(s, d); n != 1 {
		t.Fatalf("readers = %d mid-read, want 1", n)
	}
	rc.Close()
	rc.Close() // a second Close must not release a second pin
	settleGoroutines(t, base)
	if n := pins(s, d); n != 0 {
		t.Fatalf("readers = %d after Close, want 0", n)
	}
	if got := readBlob(t, s, d); !bytes.Equal(got, blob) {
		t.Fatal("blob unreadable after an abandoned read")
	}
}

// deleteOnWrite deletes a blob from inside the destination of its own
// reassembly, once.
type deleteOnWrite struct {
	bytes.Buffer
	s    *Store
	d    digest.Digest
	done bool
	err  error
}

func (w *deleteOnWrite) Write(p []byte) (int, error) {
	if !w.done {
		w.done = true
		w.err = w.s.Delete(w.d)
	}
	return w.Buffer.Write(p)
}

// TestDeleteDuringWriteTo: a blob deleted while it is being pushed into a
// destination finishes streaming, and its pool references are released by
// that reader's Close — once.
func TestDeleteDuringWriteTo(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	blob := noisyLayer(t, 64, 8<<10, true)
	d := putStream(t, s, blob)
	// One extra, test-owned reference on one of the blob's files: a second
	// release by the reader would take it away.
	shared := s.Recipe(d).Entries[0].Content
	if err := s.pool.add(shared, nil, nil); err != nil {
		t.Fatal(err)
	}

	rc, _, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	dst := &deleteOnWrite{s: s, d: d}
	if _, err := rc.(io.WriterTo).WriteTo(dst); err != nil {
		t.Fatalf("WriteTo across a Delete: %v", err)
	}
	if dst.err != nil {
		t.Fatalf("Delete during WriteTo: %v", dst.err)
	}
	if !bytes.Equal(dst.Bytes(), blob) {
		t.Fatal("a blob deleted mid-stream streamed wrong bytes")
	}
	if s.Stats().UniqueFiles != 64 {
		t.Fatal("pool files released before the reader closed")
	}
	rc.Close()
	rc.Close()
	if n := s.Stats().UniqueFiles; n != 1 || !s.pool.has(shared) {
		t.Fatalf("%d pool files left after Close, want only the one the test holds", n)
	}
	k := spell(shared)
	s.pool.unref(&k)
	if s.pool.has(shared) {
		t.Fatal("the deleted blob's reference was never released")
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteToDestinationError: a destination that fails mid-stream ends the
// reassembly with its error, and the pin goes with the Close as usual —
// also when the blob was deleted meanwhile.
func TestWriteToDestinationError(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	blob := noisyLayer(t, 64, 8<<10, true)
	d := putStream(t, s, blob)
	errGone := errors.New("client went away")

	rc, _, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rc.(io.WriterTo).WriteTo(&failAfter{n: 100_000, err: errGone})
	if !errors.Is(err, errGone) {
		t.Fatalf("WriteTo = %d, %v; want the destination's error", n, err)
	}
	if n != 100_000 {
		t.Errorf("WriteTo reported %d bytes delivered, want 100000", n)
	}
	if err := s.Delete(d); err != nil {
		t.Fatal(err)
	}
	if s.Stats().FileBytes == 0 {
		t.Fatal("pool freed while the failed reader still held its pin")
	}
	rc.Close()
	if st := s.Stats(); st.FileBytes != 0 || st.UniqueFiles != 0 {
		t.Fatalf("pool not freed after the failed reader closed: %+v", st)
	}
}

// plainSink is an io.Writer and nothing else.
type plainSink struct{}

func (plainSink) Write(p []byte) (int, error) { return len(p), nil }

// bytesPerCall is -benchmem's B/op for f: heap bytes allocated per call,
// after a collection (so that no cycle the set-up left pending runs
// mid-measure) and one call to warm the pools.
func bytesPerCall(calls int, f func()) uint64 {
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
}

// TestColdGetAllocationIndependentOfLayerSize guards the read path's
// working memory. The inflated recipe, tar builder, write buffer and
// deflater come from free lists, the recipe is walked in place, each file
// streams from the pool into the tar, and no pipe or copy buffer stands
// between the reassembly and the consumer. So a cold Get costs a few small
// values per blob whatever its files hold, and per member only the pool
// backing's reader: the lookup spells the recipe's raw digest into a stack
// buffer instead of building its string. A packed member inflates through
// the scratch's one decompressor.
func TestColdGetAllocationIndependentOfLayerSize(t *testing.T) {
	if raceEnabled {
		t.Skip("four minutes under the race detector")
	}
	// measure returns the bytes and allocations of one cold Get of blob,
	// the least of three measurements, how many members it packed, and the
	// allocations of inflating those packed forms once through one reused
	// decompressor: compress/flate builds link tables for every dynamic
	// Huffman code longer than 9 bits, per block, and that cost is the
	// data's, not the read path's.
	measure := func(blob []byte) (uint64, float64, int, float64) {
		s := NewWithConfig(NewMemoryPool(0), Config{})
		d := putStream(t, s, blob)
		get := func() {
			rc, _, err := s.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(plainSink{}, rc); err != nil {
				t.Fatal(err)
			}
			rc.Close()
		}
		perGet, allocs := uint64(math.MaxUint64), math.Inf(1)
		for range 3 {
			perGet = min(perGet, bytesPerCall(20, get))
			runtime.GC()
			allocs = min(allocs, testing.AllocsPerRun(20, get))
		}
		var forms [][]byte
		for _, sh := range s.pool.shards {
			for _, e := range sh.entries {
				if e.key == "" {
					continue
				}
				rc, _, err := sh.packed.Get(e.key)
				if err != nil {
					t.Fatal(err)
				}
				z, _ := io.ReadAll(rc)
				rc.Close()
				forms = append(forms, z)
			}
		}
		var src bytes.Reader
		fr := flate.NewReader(&src)
		inflate := testing.AllocsPerRun(20, func() {
			for _, z := range forms {
				src.Reset(z)
				fr.(flate.Resetter).Reset(&src, nil)
				io.Copy(io.Discard, fr)
			}
		})
		return perGet, allocs, len(forms), inflate
	}
	small, _, _, _ := measure(noisyLayer(t, 1, 64<<10, true))
	large, one, _, _ := measure(noisyLayer(t, 1, 1<<20, true))
	t.Logf("one 64 KiB file: %d B/get; one 1 MiB file: %d B/get in %.0f allocations", small, large, one)
	if large > small+256 {
		t.Errorf("a cold Get of a 1 MiB-file layer allocates %d B, of a 64 KiB-file layer %d B: want within 256 B", large, small)
	}
	if large > 1<<10 {
		t.Errorf("a cold Get allocates %d B: a per-read buffer is back", large)
	}
	if one > 3 {
		t.Errorf("a cold Get of one file allocates %.0f times, want at most 3: the reader, the file's pool reader, one to spare", one)
	}
	// Per blob: the reader, and the tables the inflater builds for the
	// recipe's dynamic Huffman codes (none to a dozen).
	const perBlob = 16
	for _, n := range []int{32, 256} {
		_, allocs, _, _ := measure(noisyLayer(t, n, 1<<10, true))
		t.Logf("%d files: %.0f allocations/get", n, allocs)
		if allocs > float64(n+perBlob) {
			t.Errorf("a cold Get of %d files allocates %.0f times, want at most 1 per member (the pool reader) + %d",
				n, allocs, perBlob)
		}
	}
	// Packed members of 8 KiB, and of 1 KiB, just over the packing floor:
	// a small member inflates through the same decompressor.
	for _, c := range []struct{ n, size int }{{32, 8 << 10}, {256, 8 << 10}, {64, 1 << 10}} {
		_, allocs, packed, inflate := measure(proseLayer(t, c.n, c.size))
		t.Logf("%d packed files of %d B: %.0f allocations/get, %.0f of them flate's Huffman tables", c.n, c.size, allocs, inflate)
		if packed != c.n {
			t.Fatalf("%d of %d compressible files of %d B packed", packed, c.n, c.size)
		}
		if allocs > float64(2*c.n+perBlob)+inflate {
			t.Errorf("a cold Get of %d packed files of %d B allocates %.0f times, want at most 2 per member (no decompressor per member) + %d + the %.0f of flate's Huffman tables",
				c.n, c.size, allocs, perBlob, inflate)
		}
	}
}

// TestColdGetKeepsCodecsAcrossGC: the reassembly's deflater and the
// recipe's inflater outlive garbage collections, so a cold Get of a
// gzip-framed layer after two collections (which empty every sync.Pool)
// allocates far less than the one level-6 flate.Writer it would otherwise
// build again.
func TestColdGetKeepsCodecsAcrossGC(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	d := putStream(t, s, noisyLayer(t, 8, 4<<10, true))
	get := func() {
		rc, _, err := s.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(plainSink{}, rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
	}
	perGet := uint64(math.MaxUint64)
	for range 3 {
		get()
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		get()
		runtime.ReadMemStats(&after)
		perGet = min(perGet, after.TotalAlloc-before.TotalAlloc)
	}
	deflater := bytesPerCall(3, func() { flate.NewWriter(io.Discard, flate.DefaultCompression) })
	t.Logf("cold Get after two collections: %d B; one level-6 flate.Writer: %d B", perGet, deflater)
	if perGet > deflater/64 {
		t.Errorf("a cold Get after two collections allocates %d B, a level-6 flate.Writer is %d B: want under 1/64 of it", perGet, deflater)
	}
}

// TestRecipeEncodingGolden pins the at-rest recipe bytes: they are what
// stored_bytes_per_user_byte counts, and what a store on disk would have
// to read back.
func TestRecipeEncodingGolden(t *testing.T) {
	rec := goldenRecipe()
	const golden = "64726370" + "01" + "01" + "03" + // magic, version, gzip flag, 3 entries
		"01" + "03" + "617070" + // dir "app"
		"00" + "09" + "6170702f612e747874" + "ac02" + // file "app/a.txt", 300 bytes
		"ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb" +
		"00" + "09" + "6170702f656d707479" + "00" + // file "app/empty", 0 bytes
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	enc := encodeRecipe(rec)
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("recipe encoding changed:\n got %s\nwant %s", got, golden)
	}
	back, err := DecodeRecipe(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back) != fmt.Sprint(rec) {
		t.Fatalf("decoded %+v, want %+v", back, rec)
	}
	if raceEnabled {
		return
	}
	// The recipe, its entry slice, a name per member and a digest per file:
	// no hex temporaries on either side.
	if n := testing.AllocsPerRun(100, func() { DecodeRecipe(enc) }); n > 7 {
		t.Errorf("DecodeRecipe allocates %v times for 2 files and a dir, want <= 7", n)
	}
	// A reused encoder writes members without allocating, and the cursor
	// walks them without allocating.
	var e recipeEncoder
	if n := testing.AllocsPerRun(100, func() { encodeWith(&e, rec) }); n != 0 {
		t.Errorf("a reused recipeEncoder allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c, _ := openRecipe(enc)
		for c.next() {
		}
	}); n != 0 {
		t.Errorf("walking a recipe allocates %v times, want 0", n)
	}
}
