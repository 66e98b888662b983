package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/digest"
)

// storeFactories lets every test run against both backends.
func storeFactories(t *testing.T) map[string]func() Store {
	return map[string]func() Store{
		"memory": func() Store { return NewMemory() },
		"disk": func() Store {
			d, err := NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			content := []byte("layer blob content")
			d, err := s.Put(content)
			if err != nil {
				t.Fatal(err)
			}
			if d != digest.FromBytes(content) {
				t.Fatalf("Put returned wrong digest %s", d)
			}
			r, size, err := s.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(content) {
				t.Fatalf("Get returned %q", got)
			}
			if size != int64(len(content)) {
				t.Fatalf("size = %d", size)
			}
		})
	}
}

func TestPutIdempotent(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			content := []byte("same bytes")
			s.Put(content)
			s.Put(content)
			if s.Len() != 1 {
				t.Fatalf("Len = %d after duplicate Put", s.Len())
			}
			if s.TotalBytes() != int64(len(content)) {
				t.Fatalf("TotalBytes = %d", s.TotalBytes())
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			missing := digest.FromBytes([]byte("never stored"))
			if _, _, err := s.Get(missing); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
			}
			if _, err := s.Stat(missing); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Stat(missing) = %v, want ErrNotFound", err)
			}
			if s.Has(missing) {
				t.Fatal("Has(missing) = true")
			}
		})
	}
}

func TestPutVerified(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			content := []byte("verified content")
			want := digest.FromBytes(content)
			if err := s.PutVerified(want, content); err != nil {
				t.Fatalf("PutVerified(correct): %v", err)
			}
			wrong := digest.FromBytes([]byte("other"))
			if err := s.PutVerified(wrong, content); !errors.Is(err, ErrDigestMismatch) {
				t.Fatalf("PutVerified(wrong) = %v, want ErrDigestMismatch", err)
			}
		})
	}
}

func TestDigestsSortedAndComplete(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			for i := 0; i < 20; i++ {
				s.Put([]byte{byte(i)})
			}
			ds := s.Digests()
			if len(ds) != 20 {
				t.Fatalf("Digests returned %d, want 20", len(ds))
			}
			for i := 1; i < len(ds); i++ {
				if ds[i] <= ds[i-1] {
					t.Fatal("Digests not sorted")
				}
			}
		})
	}
}

func TestDiskReopenPreservesIndex(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("persistent blob")
	d, err := s1.Put(content)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(d) {
		t.Fatal("reopened store lost blob")
	}
	if s2.Len() != 1 || s2.TotalBytes() != int64(len(content)) {
		t.Fatalf("reopened index wrong: len=%d bytes=%d", s2.Len(), s2.TotalBytes())
	}
	r, _, err := s2.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, _ := io.ReadAll(r)
	if string(got) != string(content) {
		t.Fatalf("reopened content = %q", got)
	}
}

func TestDelete(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			content := []byte("to be deleted")
			d, err := s.Put(content)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(d); err != nil {
				t.Fatal(err)
			}
			if s.Has(d) || s.Len() != 0 || s.TotalBytes() != 0 {
				t.Fatalf("delete left state: len=%d bytes=%d", s.Len(), s.TotalBytes())
			}
			if err := s.Delete(d); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete = %v, want ErrNotFound", err)
			}
			// Re-putting works after deletion.
			if _, err := s.Put(content); err != nil {
				t.Fatal(err)
			}
			if !s.Has(d) {
				t.Fatal("re-put after delete missing")
			}
		})
	}
}

func TestDiskDeletePersists(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s1.Put([]byte("ephemeral"))
	keep, _ := s1.Put([]byte("kept"))
	if err := s1.Delete(d); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Has(d) {
		t.Fatal("deleted blob reappeared after reopen")
	}
	if !s2.Has(keep) {
		t.Fatal("kept blob lost after reopen")
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := NewMemory()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				s.Put([]byte{byte(g), byte(i)})
				s.Put([]byte("shared"))
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s.Len() != 8*100+1 {
		t.Fatalf("Len = %d, want %d", s.Len(), 8*100+1)
	}
}

// Property: TotalBytes always equals the sum of unique blob sizes no matter
// the insertion pattern (including duplicates).
func TestQuickAccounting(t *testing.T) {
	f := func(blobs [][]byte) bool {
		s := NewMemory()
		unique := make(map[digest.Digest]int)
		for _, b := range blobs {
			s.Put(b)
			unique[digest.FromBytes(b)] = len(b)
		}
		var want int64
		for _, n := range unique {
			want += int64(n)
		}
		return s.TotalBytes() == want && s.Len() == len(unique)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMemoryPut(b *testing.B) {
	s := NewMemory()
	content := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		content[0] = byte(i)
		content[1] = byte(i >> 8)
		content[2] = byte(i >> 16)
		s.Put(content)
	}
}

// errAfterReader yields n bytes of src then fails with errBroken.
type errAfterReader struct {
	src io.Reader
	n   int
}

var errBroken = errors.New("stream broke")

func (e *errAfterReader) Read(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errBroken
	}
	if len(p) > e.n {
		p = p[:e.n]
	}
	n, err := e.src.Read(p)
	e.n -= n
	return n, err
}

func TestPutStreamRoundTrip(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			content := bytes.Repeat([]byte("streamed layer bytes "), 10_000)
			want := digest.FromBytes(content)
			n, err := s.PutStream(want, bytes.NewReader(content))
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(content)) {
				t.Fatalf("PutStream read %d bytes, want %d", n, len(content))
			}
			rc, size, err := s.Get(want)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			got, err := io.ReadAll(rc)
			if err != nil {
				t.Fatal(err)
			}
			if size != int64(len(content)) || !bytes.Equal(got, content) {
				t.Fatal("streamed blob does not round-trip")
			}
			if s.TotalBytes() != int64(len(content)) {
				t.Fatalf("TotalBytes = %d, want %d", s.TotalBytes(), len(content))
			}
		})
	}
}

func TestPutStreamMismatch(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			want := digest.FromBytes([]byte("the real content"))
			if _, err := s.PutStream(want, bytes.NewReader([]byte("imposter bytes"))); !errors.Is(err, ErrDigestMismatch) {
				t.Fatalf("err = %v, want ErrDigestMismatch", err)
			}
			if s.Has(want) || s.Len() != 0 {
				t.Fatal("mismatched stream was stored")
			}
		})
	}
}

func TestPutStreamMidStreamError(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			content := bytes.Repeat([]byte("x"), 50_000)
			want := digest.FromBytes(content)
			r := &errAfterReader{src: bytes.NewReader(content), n: 10_000}
			if _, err := s.PutStream(want, r); !errors.Is(err, errBroken) {
				t.Fatalf("err = %v, want wrapped errBroken", err)
			}
			if s.Has(want) || s.Len() != 0 {
				t.Fatal("truncated stream was stored")
			}
		})
	}
}

// A stream for an already-present blob must still be consumed to EOF and
// verified, so callers can hand over live HTTP bodies unconditionally.
func TestPutStreamExistingBlobDrains(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			content := []byte("shared layer")
			want, err := s.Put(content)
			if err != nil {
				t.Fatal(err)
			}
			r := bytes.NewReader(content)
			n, err := s.PutStream(want, r)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(content)) || r.Len() != 0 {
				t.Fatalf("existing-blob stream not drained: n=%d, %d bytes left", n, r.Len())
			}
			if _, err := s.PutStream(want, bytes.NewReader([]byte("corrupt"))); !errors.Is(err, ErrDigestMismatch) {
				t.Fatalf("existing-blob corrupt stream: err = %v, want ErrDigestMismatch", err)
			}
			if s.Len() != 1 || s.TotalBytes() != int64(len(content)) {
				t.Fatal("redundant ingest changed accounting")
			}
		})
	}
}

func TestPutStreamConcurrentSameDigest(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			content := bytes.Repeat([]byte("contended blob "), 5_000)
			want := digest.FromBytes(content)
			var wg sync.WaitGroup
			errs := make([]error, 8)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = s.PutStream(want, bytes.NewReader(content))
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if s.Len() != 1 || s.TotalBytes() != int64(len(content)) {
				t.Fatalf("concurrent ingest stored %d blobs / %d bytes", s.Len(), s.TotalBytes())
			}
		})
	}
}

// No stray temp files may survive a streaming ingest, failed or not.
func TestDiskPutStreamLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("b"), 10_000)
	want := digest.FromBytes(content)
	if _, err := d.PutStream(want, bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PutStream(digest.FromBytes([]byte("other")), bytes.NewReader(content)); err == nil {
		t.Fatal("mismatch accepted")
	}
	if _, err := d.PutStream(digest.FromBytes([]byte("broke")), &errAfterReader{src: bytes.NewReader(content), n: 100}); err == nil {
		t.Fatal("broken stream accepted")
	}
	err = filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() && strings.Contains(de.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readFromSpy is a destination whose ReadFrom must never run: it stands
// for the http.ResponseWriter, whose ReadFrom allocates per response.
type readFromSpy struct {
	bytes.Buffer
	writes, readFroms int
}

func (s *readFromSpy) Write(p []byte) (int, error) { s.writes++; return s.Buffer.Write(p) }
func (s *readFromSpy) ReadFrom(r io.Reader) (int64, error) {
	s.readFroms++
	return s.Buffer.ReadFrom(r)
}

// TestCopyBody: a source that can push itself does (one Write for a memory
// blob), any other shape — a bounded range, a reader with nothing but Read
// — is copied without touching the destination's ReadFrom, and all of them
// deliver the right bytes and count.
func TestCopyBody(t *testing.T) {
	m := NewMemory()
	content := bytes.Repeat([]byte("0123456789abcdef"), 10_000)
	d, _ := m.Put(content)
	open := func() io.ReadCloser {
		rc, _, err := m.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		return rc
	}
	cases := []struct {
		name       string
		src        io.Reader
		want       []byte
		wantWrites int // 0: any number
	}{
		{"pushes itself", open(), content, 1},
		{"bounded range", io.LimitReader(open(), 1000), content[:1000], 0},
		{"plain reader", struct{ io.Reader }{open()}, content, 0},
	}
	for _, c := range cases {
		var dst readFromSpy
		n, err := CopyBody(&dst, c.src)
		if err != nil || n != int64(len(c.want)) || !bytes.Equal(dst.Bytes(), c.want) {
			t.Errorf("%s: copied %d bytes, %v; want %d", c.name, n, err, len(c.want))
		}
		if dst.readFroms != 0 {
			t.Errorf("%s: the destination's ReadFrom ran", c.name)
		}
		if c.wantWrites != 0 && dst.writes != c.wantWrites {
			t.Errorf("%s: %d writes, want %d", c.name, dst.writes, c.wantWrites)
		}
	}
}

// TestNewDiskRemovesTempFiles: opening a store removes the temp files a
// crash leaves in its shards — a PutStream's <hex>.tmp-<random> and an
// earlier store's <hex>.tmp — and nothing else.
func TestNewDiskRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	hex := digest.FromBytes([]byte("cut short")).Hex()
	shard := filepath.Join(dir, hex[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{
		hex + ".tmp-2961830405": false,
		hex + ".tmp":            false,
		"notes.tmp":             true,
		hex + ".tmpfile":        true,
	}
	for name := range keep {
		if err := os.WriteFile(filepath.Join(shard, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range keep {
		_, err := os.Stat(filepath.Join(shard, name))
		if got := err == nil; got != want {
			t.Errorf("%s: present after open = %v, want %v", name, got, want)
		}
	}
	if d.Len() != 0 || d.TotalBytes() != 0 {
		t.Fatalf("store indexed %d blobs / %d bytes, want none", d.Len(), d.TotalBytes())
	}
}

// TestDiskOneCommitPath: Put, PutVerified and PutStream commit through one
// temp-file-and-rename, so goroutines mixing them over one shared blob and
// blobs of their own leave one file per digest, of mode 0644, exact
// accounting and no temp file, and a PutVerified under the wrong digest
// leaves nothing.
func TestDiskOneCommitPath(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	shared := bytes.Repeat([]byte("shared blob "), 4_000)
	want := map[digest.Digest]int64{digest.FromBytes(shared): int64(len(shared))}
	own := make([][]byte, workers)
	for g := range own {
		own[g] = bytes.Repeat([]byte{byte('a' + g)}, 1_000*(g+1))
		want[digest.FromBytes(own[g])] = int64(len(own[g]))
	}
	wrong := digest.FromBytes([]byte("never stored"))
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, b := range [][]byte{shared, own[g], shared} {
				var err error
				switch g % 3 {
				case 0:
					_, err = d.Put(b)
				case 1:
					err = d.PutVerified(digest.FromBytes(b), b)
				default:
					_, err = d.PutStream(digest.FromBytes(b), bytes.NewReader(b))
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
			if err := d.PutVerified(wrong, own[g]); !errors.Is(err, ErrDigestMismatch) {
				errs[g] = fmt.Errorf("PutVerified under the wrong digest: %v, want ErrDigestMismatch", err)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if d.Has(wrong) {
		t.Fatal("a PutVerified under the wrong digest was stored")
	}
	files := make(map[string]int64)
	err = filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err == nil {
			files[de.Name()] = info.Size()
			if info.Mode() != 0o644 {
				t.Errorf("%s: mode %v, want -rw-r--r--", de.Name(), info.Mode())
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for dg, size := range want {
		if got, ok := files[dg.Hex()]; !ok || got != size {
			t.Errorf("%s: file of %d bytes (present %v), want %d", dg.Short(), got, ok, size)
		}
		delete(files, dg.Hex())
		total += size
	}
	for name := range files {
		t.Errorf("stray file %s", name)
	}
	if d.Len() != len(want) || d.TotalBytes() != total {
		t.Fatalf("Len %d, TotalBytes %d; want %d, %d", d.Len(), d.TotalBytes(), len(want), total)
	}
}
