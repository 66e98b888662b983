package dedupstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
		var err error
		if b, err = tarutil.NewGzipBuilder(&buf, 0); err != nil {
			t.Fatal(err)
		}
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
			s := New(NewMemoryPool(0))
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
	s := New(NewMemoryPool(0))
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
	s := New(NewMemoryPool(0))
	blob := noisyLayer(t, 64, 8<<10, true)
	d := putStream(t, s, blob)
	// One extra, test-owned reference on one of the blob's files: a second
	// release by the reader would take it away.
	shared := s.Recipe(d).Entries[0].Content
	if err := s.pool.add(shared, nil); err != nil {
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
	s.pool.unref(shared)
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
	s := New(NewMemoryPool(0))
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
// pools warmed by one call first.
func bytesPerCall(calls int, f func()) uint64 {
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
// working memory: file buffer, write buffer and deflater are pooled and no
// pipe or copy buffer stands between the reassembly and the consumer, so a
// cold Get costs its recipe and a few small headers whatever the layer
// holds.
func TestColdGetAllocationIndependentOfLayerSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	perGet := func(fileSize int) uint64 {
		s := New(NewMemoryPool(0))
		d := putStream(t, s, noisyLayer(t, 1, fileSize, true))
		return bytesPerCall(20, func() {
			rc, _, err := s.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(plainSink{}, rc); err != nil {
				t.Fatal(err)
			}
			rc.Close()
		})
	}
	small, large := perGet(64<<10), perGet(1<<20)
	t.Logf("64 KiB file: %d B/get; 1 MiB file: %d B/get", small, large)
	if large > small+8<<10 {
		t.Errorf("a cold Get of a 1 MiB-file layer allocates %d B, of a 64 KiB-file layer %d B: want within 8 KiB", large, small)
	}
	if large >= 16<<10 {
		t.Errorf("a cold Get allocates %d B: a per-read copy buffer is back", large)
	}
}

// TestRecipeEncodingGolden pins the at-rest recipe bytes: they are what
// stored_bytes_per_user_byte counts, and what a store on disk would have
// to read back.
func TestRecipeEncodingGolden(t *testing.T) {
	rec := &Recipe{Gzip: true, Entries: []RecipeEntry{
		{Name: "app", Dir: true},
		{Name: "app/a.txt", Size: 300, Content: digest.FromString("a")},
		{Name: "app/empty", Size: 0, Content: digest.FromString("")},
	}}
	const golden = "64726370" + "01" + "01" + "03" + // magic, version, gzip flag, 3 entries
		"01" + "03" + "617070" + // dir "app"
		"00" + "09" + "6170702f612e747874" + "ac02" + // file "app/a.txt", 300 bytes
		"ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb" +
		"00" + "09" + "6170702f656d707479" + "00" + // file "app/empty", 0 bytes
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	enc := EncodeRecipe(rec)
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
	if n := testing.AllocsPerRun(100, func() { EncodeRecipe(rec) }); n > 1 {
		t.Errorf("EncodeRecipe allocates %v times, want 1 (the output)", n)
	}
}
