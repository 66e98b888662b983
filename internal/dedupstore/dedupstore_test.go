package dedupstore

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/tarutil"
)

// buildLayer makes a gzip layer with the given (name, content) pairs.
func buildLayer(t *testing.T, files map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	b := tarutil.NewGzipBuilder(&buf)
	if err := b.Dir("app"); err != nil {
		t.Fatal(err)
	}
	// Deterministic order: sort by iterating a fixed slice.
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		if err := b.File("app/"+n, []byte(files[n])); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// putStream pushes blob through the streaming path, fails the test on
// error, and waits out the store's background proofs, so that the test goes
// on from a settled store with no prover goroutine running.
func putStream(t *testing.T, s *Store, blob []byte) digest.Digest {
	t.Helper()
	d := digest.FromBytes(blob)
	n, err := s.PutStream(d, bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("PutStream: %v", err)
	}
	if n != int64(len(blob)) {
		t.Fatalf("PutStream consumed %d of %d bytes", n, len(blob))
	}
	settle(t, s)
	return d
}

// readBlob fetches d and returns the full reconstructed bytes.
func readBlob(t *testing.T, s *Store, d digest.Digest) []byte {
	t.Helper()
	rc, size, err := s.Get(d)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("reading blob: %v", err)
	}
	if int64(len(data)) != size {
		t.Fatalf("Get reported size %d, streamed %d bytes", size, len(data))
	}
	return data
}

func TestPutStreamGetRoundTrip(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	blob := buildLayer(t, map[string]string{"a.txt": "alpha", "b.txt": "beta"})
	key := putStream(t, s, blob)
	if !s.Has(key) {
		t.Fatal("stored layer not found")
	}
	got := readBlob(t, s, key)
	if !bytes.Equal(got, blob) {
		t.Fatal("reconstructed blob is not byte-identical to the wire blob")
	}
	if rec := s.Recipe(key); rec == nil {
		t.Fatal("gzip tar layer was not decomposed")
	} else if !rec.Gzip {
		t.Fatal("recipe lost the gzip framing flag")
	}
	// Content survives reassembly.
	found := map[string]string{}
	l := tarutil.OpenLayer(bytes.NewReader(got))
	defer l.Close()
	err := l.Walk(func(e tarutil.Entry, r io.Reader) error {
		if r != nil {
			data, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			found[e.Name] = string(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found["app/a.txt"] != "alpha" || found["app/b.txt"] != "beta" {
		t.Fatalf("contents lost: %v", found)
	}
}

func TestPlainTarRoundTrip(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	var buf bytes.Buffer
	b := tarutil.NewBuilder(&buf)
	b.File("f", []byte("plain"))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	key := putStream(t, s, buf.Bytes())
	if rec := s.Recipe(key); rec == nil || rec.Gzip {
		t.Fatalf("plain tar should decompose with Gzip=false, recipe=%+v", rec)
	}
	if got := readBlob(t, s, key); !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("plain tar did not round-trip byte-identically")
	}
}

func TestRawBlobRoundTrip(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	manifest := []byte(`{"schemaVersion":2,"layers":[{"digest":"sha256:abc"}]}`)
	key := putStream(t, s, manifest)
	if rec := s.Recipe(key); rec != nil {
		t.Fatal("JSON blob was decomposed as a tar")
	}
	if got := readBlob(t, s, key); !bytes.Equal(got, manifest) {
		t.Fatal("raw blob did not round-trip")
	}
	st := s.Stats()
	if st.RawBlobs != 1 || st.Layers != 0 {
		t.Fatalf("raw blob accounting wrong: %+v", st)
	}
}

func TestDedupAcrossLayers(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	shared := "this content is shared between layers and stored once"
	l1 := buildLayer(t, map[string]string{"lib.so": shared, "one.txt": "one"})
	l2 := buildLayer(t, map[string]string{"lib.so": shared, "two.txt": "two"})
	putStream(t, s, l1)
	putStream(t, s, l2)
	st := s.Stats()
	if st.Layers != 2 {
		t.Fatalf("Layers = %d", st.Layers)
	}
	if st.TotalFiles != 4 {
		t.Fatalf("TotalFiles = %d", st.TotalFiles)
	}
	if st.UniqueFiles != 3 {
		t.Fatalf("UniqueFiles = %d, want 3 (shared content pooled once)", st.UniqueFiles)
	}
	wantLogical := int64(2*len(shared) + len("one") + len("two"))
	if st.LogicalBytes != wantLogical {
		t.Fatalf("LogicalBytes = %d, want %d", st.LogicalBytes, wantLogical)
	}
	wantPool := int64(len(shared) + len("one") + len("two"))
	if st.FileBytes != wantPool {
		t.Fatalf("FileBytes = %d, want %d", st.FileBytes, wantPool)
	}
	if st.WireBytes != int64(len(l1)+len(l2)) {
		t.Fatalf("WireBytes = %d, want %d", st.WireBytes, len(l1)+len(l2))
	}
}

func TestPutIdempotent(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	blob := buildLayer(t, map[string]string{"x": "content"})
	k1 := putStream(t, s, blob)
	k2 := putStream(t, s, blob)
	if k1 != k2 {
		t.Fatal("same layer produced different keys")
	}
	if st := s.Stats(); st.Layers != 1 || st.TotalFiles != 1 {
		t.Fatalf("idempotent put double-counted: %+v", st)
	}
	// The duplicate stream must still be verified end to end.
	if _, err := s.PutStream(k1, bytes.NewReader(blob[:len(blob)-1])); !errors.Is(err, blobstore.ErrDigestMismatch) {
		t.Fatalf("truncated duplicate accepted: %v", err)
	}
}

func TestPutStreamDigestMismatch(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	blob := buildLayer(t, map[string]string{"x": "content"})
	wrong := digest.FromBytes([]byte("not this blob"))
	if _, err := s.PutStream(wrong, bytes.NewReader(blob)); !errors.Is(err, blobstore.ErrDigestMismatch) {
		t.Fatalf("digest mismatch not detected: %v", err)
	}
	if s.Has(wrong) || s.pool.has(digest.FromBytes([]byte("content"))) {
		t.Fatal("failed put left state behind")
	}
	if s.Stats().PhysicalBytes() != 0 {
		t.Fatal("failed put leaked pool bytes")
	}

	// A raw blob whose digest a layer's member already pooled: an imposter
	// stream is refused and takes no reference.
	putStream(t, s, blob)
	d := digest.FromBytes([]byte("content"))
	if _, err := s.PutStream(d, bytes.NewReader([]byte("imposter"))); !errors.Is(err, blobstore.ErrDigestMismatch) {
		t.Fatalf("imposter raw blob for a pooled digest = %v, want ErrDigestMismatch", err)
	}
	if s.Has(d) {
		t.Fatal("imposter raw blob stored")
	}
	if err := checkStore(s); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptGzipStream: a gzip blob with no tar inside does not
// decompose, and its digest checks out, so PutStream and Put alike commit
// it verbatim from their spools.
func TestCorruptGzipStream(t *testing.T) {
	// Valid gzip framing, invalid tar inside.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("this is not a tar archive but is long enough to try parsing it as one ......."))
	zw.Close()
	blob := buf.Bytes()
	d := digest.FromBytes(blob)

	s := NewWithConfig(NewMemoryPool(0), Config{})
	if _, err := s.PutStream(d, bytes.NewReader(blob)); err != nil {
		t.Fatalf("PutStream: %v", err)
	}
	checkVerbatim(t, s, blob)

	s = NewWithConfig(NewMemoryPool(0), Config{})
	key, err := s.Put(blob)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if key != d {
		t.Fatalf("Put key %s != digest %s", key.Short(), d.Short())
	}
	checkVerbatim(t, s, blob)
}

// TestHugeMemberClaimAllocatesUnderCap pushes a small upload whose one
// member claims 64 MiB: the file buffer is sized from the tar header only
// up to maxFilePrealloc, so the claim costs at most that, and when the
// bytes run out the walk fails and the upload, whose digest checks out, is
// stored verbatim from its spool.
func TestHugeMemberClaimAllocatesUnderCap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	const claim = 64 << 20
	var tb bytes.Buffer
	tw := tar.NewWriter(&tb)
	if err := tw.WriteHeader(&tar.Header{Typeflag: tar.TypeReg, Name: "big.bin", Mode: 0o644, Size: claim}); err != nil {
		t.Fatal(err)
	}
	tb.Write(make([]byte, 4<<10)) // 4 KiB of the claimed 64 MiB
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(tb.Bytes())
	zw.Close()
	blob := gz.Bytes()
	d := digest.FromBytes(blob)

	s := NewWithConfig(NewMemoryPool(0), Config{})
	putScratches = engine.NewFreeList[putScratch]() // the file buffer starts from nothing
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.PutStream(d, bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("upload claiming %d bytes with 4 KiB present: %v", claim, err)
	}
	checkVerbatim(t, s, blob)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte upload claiming %d bytes: %d B allocated", len(blob), claim, got)
	if got > maxFilePrealloc+256<<10 {
		t.Errorf("put allocated %d B for a %d-byte upload, want at most the %d B cap + 256 KiB", got, len(blob), maxFilePrealloc)
	}
}

// TestFreeListsKeepNoOutsizedBuffer: the free lists outlive garbage
// collections, so a put of a large incompressible blob, its spool, and any
// put or recipe scratch grown past maxFilePrealloc, goes back holding no
// buffer above it.
func TestFreeListsKeepNoOutsizedBuffer(t *testing.T) {
	big := make([]byte, 2*maxFilePrealloc)
	rand.New(rand.NewSource(1)).Read(big)
	check := func(what string, caps map[string]int) {
		t.Helper()
		for name, c := range caps {
			if c > maxFilePrealloc {
				t.Errorf("%s: the %s buffer went back on the list at %d B, above the %d B bound", what, name, c, maxFilePrealloc)
			}
		}
	}
	putCaps := func(ps *putScratch) map[string]int {
		return map[string]int{"file": ps.file.Cap(), "recipe deflate": ps.z.Cap(), "packer": ps.pk.z.Cap(), "recipe encoding": cap(ps.enc.buf)}
	}

	s := NewWithConfig(NewMemoryPool(0), Config{})
	putScratches = engine.NewFreeList[putScratch]()
	if _, err := s.Put(big); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(buildLayer(t, map[string]string{"big.bin": string(big[1:])})); err != nil {
		t.Fatal(err)
	}
	ps := putScratches.Get()
	check("a put of 2 MiB of random bytes", putCaps(ps))

	ps.file.Grow(len(big))
	ps.z.Grow(len(big))
	ps.pk.z.Grow(len(big))
	ps.enc.buf = make([]byte, 0, len(big))
	ps.release()
	check("a grown put scratch", putCaps(putScratches.Get()))

	spools = engine.NewFreeList[spool]()
	if _, err := s.PutStream(digest.FromBytes(big[2:]), bytes.NewReader(big[2:])); err != nil {
		t.Fatal(err)
	}
	check("a PutStream of 2 MiB of random bytes", map[string]int{"spool": cap(spools.Get().b)})

	recipeBufs = engine.NewFreeList[recipeBuf]()
	rb := recipeBufs.Get()
	rb.enc.Grow(len(big))
	putRecipeBuf(rb)
	check("a grown recipe buffer", map[string]int{"recipe": recipeBufs.Get().enc.Cap()})
}

// foreignLayer builds a gzip tar whose metadata tarutil's builder cannot
// reproduce (nonzero mod time, odd mode), so it decomposes but fails the
// put-time reassembly proof.
func foreignLayer(t *testing.T) []byte {
	return foreignTar(t, map[string][]byte{"etc/passwd": []byte("root:x:0:0\n")})
}

// foreignTar is a gzip tar of files, in name order, written by archive/tar
// with a mod time, an owner name and a mode tarutil's builder never writes.
func foreignTar(t testing.TB, files map[string][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	tw := tar.NewWriter(zw)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		hdr := &tar.Header{
			Name:    name,
			Mode:    0o600,
			Size:    int64(len(files[name])),
			ModTime: time.Date(2019, 9, 24, 12, 0, 0, 0, time.UTC),
			Uname:   "builder",
		}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(files[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkVerbatim checks that s holds blob, and only blob, as one raw pool
// entry: Get serves it byte-exact, no member of its failed recipe is left
// pooled, and checkStore is clean.
func checkVerbatim(t *testing.T, s *Store, blob []byte) {
	t.Helper()
	d := digest.FromBytes(blob)
	if got := readBlob(t, s, d); !bytes.Equal(got, blob) {
		t.Fatal("blob did not round-trip verbatim")
	}
	st := s.Stats()
	if st.RawBlobs != 1 || st.Layers != 0 || st.TotalFiles != 0 || st.RecipeBytes != 0 {
		t.Fatalf("stats %+v, want one raw blob and no layer", st)
	}
	if st.UniqueFiles != 1 || st.FileBytes != int64(len(blob)) {
		t.Fatalf("pool holds %d entries of %d content bytes, want the %d-byte blob alone", st.UniqueFiles, st.FileBytes, len(blob))
	}
	if err := checkStore(s); err != nil {
		t.Fatal(err)
	}
}

// TestNotReproducibleBlob: a foreign layer decomposes but does not
// reassemble bit-identically, so PutStream and Put alike commit it
// verbatim, PutStream from its spool, and drop the recipe's members.
func TestNotReproducibleBlob(t *testing.T) {
	blob := foreignLayer(t)
	d := digest.FromBytes(blob)

	s := NewWithConfig(NewMemoryPool(0), Config{})
	if _, err := s.PutStream(d, bytes.NewReader(blob)); err != nil {
		t.Fatalf("PutStream: %v", err)
	}
	checkVerbatim(t, s, blob)

	s = NewWithConfig(NewMemoryPool(0), Config{})
	if _, err := s.Put(blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	checkVerbatim(t, s, blob)
}

// TestForeignLayerOverSpoolCap: a foreign layer larger than the spool is
// the one push PutStream still refuses, with ErrNotReproducible and
// nothing left pooled; Put, which holds the bytes, stores it verbatim.
func TestForeignLayerOverSpoolCap(t *testing.T) {
	big := make([]byte, maxFilePrealloc+1<<10)
	rand.New(rand.NewSource(3)).Read(big)
	blob := foreignTar(t, map[string][]byte{"big.bin": big})
	if len(blob) <= maxFilePrealloc {
		t.Fatalf("the layer is %d bytes, not over the %d-byte spool", len(blob), maxFilePrealloc)
	}
	s := NewWithConfig(NewMemoryPool(0), Config{})
	if _, err := s.PutStream(digest.FromBytes(blob), bytes.NewReader(blob)); !errors.Is(err, ErrNotReproducible) {
		t.Fatalf("error = %v, want ErrNotReproducible", err)
	}
	if s.Has(digest.FromBytes(blob)) || s.Stats().PhysicalBytes() != 0 {
		t.Fatal("refused put left state behind")
	}
	if err := checkStore(s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	checkVerbatim(t, s, blob)
}

// TestTruncatedLayerOverSpoolCap: a gzip tar too large for a stream's
// spool whose walk pools one whole member before the tar is cut short
// cannot be committed verbatim, so PutStream refuses it, releases the
// member the walk pooled and leaves nothing; Put, whose spool holds all of
// it, stores it verbatim.
func TestTruncatedLayerOverSpoolCap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var tb bytes.Buffer
	tw := tar.NewWriter(&tb)
	for _, name := range []string{"a.bin", "b.bin"} {
		content := make([]byte, 640<<10)
		rng.Read(content)
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(content))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(content); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(tb.Bytes()[:tb.Len()-100<<10]) // b.bin cut short
	zw.Close()
	blob := buf.Bytes()
	if len(blob) <= maxFilePrealloc {
		t.Fatalf("the layer is %d bytes, not over the %d-byte spool", len(blob), maxFilePrealloc)
	}
	d := digest.FromBytes(blob)
	s := NewWithConfig(NewMemoryPool(0), Config{})
	obs := &observedReader{Reader: bytes.NewReader(blob)}
	if _, err := s.PutStream(d, obs); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error = %v, want unexpected EOF", err)
	}
	if len(obs.calls) != 1 || !strings.HasPrefix(obs.calls[0], "file a.bin ") {
		t.Fatalf("the walk reported %d calls, want a.bin's member alone", len(obs.calls))
	}
	if s.Has(d) || s.Stats().PhysicalBytes() != 0 {
		t.Fatal("refused put left state behind")
	}
	if err := checkStore(s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	checkVerbatim(t, s, blob)
}

// walkSeed returns an archive of tarutil's FuzzWalk seed corpus, the blobs
// whose first block probes the line between a tar and a raw blob.
func walkSeed(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "tarutil", "testdata", "fuzz", "FuzzWalk", name))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(string(b), "go test fuzz v1\n[]byte("), ")\n")
	data, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(data)
}

// TestBadHeaderBlobStoredRaw: a blob whose first block has a valid
// checksum but a mode field that does not parse is not a tar to the walker,
// so the store keeps it verbatim, as blobstore.Memory would, instead of
// failing to decompose it.
func TestBadHeaderBlobStoredRaw(t *testing.T) {
	blob := walkSeed(t, "bad-mode")
	s := NewWithConfig(NewMemoryPool(0), Config{})
	d := putStream(t, s, blob)
	if s.Recipe(d) != nil {
		t.Fatal("a blob the walker refuses was decomposed")
	}
	if got := readBlob(t, s, d); !bytes.Equal(got, blob) {
		t.Fatal("raw blob did not round-trip")
	}
}

// TestSignedChecksumTarNotReproducible: a tar whose checksum is a signed
// byte sum is a tar to the walker, so the store decomposes it like any
// foreign tar, and the round-trip proof fails (the Builder writes unsigned
// sums): the store keeps the spooled bytes verbatim and pools none of the
// recipe's members.
func TestSignedChecksumTarNotReproducible(t *testing.T) {
	blob := walkSeed(t, "signed-checksum")
	s := NewWithConfig(NewMemoryPool(0), Config{})
	if _, err := s.PutStream(digest.FromBytes(blob), bytes.NewReader(blob)); err != nil {
		t.Fatalf("PutStream: %v", err)
	}
	checkVerbatim(t, s, blob)
}

// TestGzipTrailingBytesNotReproducible: bytes after a layer's gzip member
// are wire bytes the walk drains without inflating them, so the store
// finds the blob out through its round-trip proof rather than with a gzip
// read error and keeps it verbatim, and the analyzer profiles it exactly as
// the layer without them, but for its compressed size.
func TestGzipTrailingBytesNotReproducible(t *testing.T) {
	layer := buildLayer(t, map[string]string{"a.txt": "alpha", "b.txt": "beta"})
	blob := append(bytes.Clone(layer), "trailing"...)
	s := NewWithConfig(NewMemoryPool(0), Config{})
	if _, err := s.PutStream(digest.FromBytes(blob), bytes.NewReader(blob)); err != nil {
		t.Fatalf("PutStream: %v", err)
	}
	checkVerbatim(t, s, blob)

	d := digest.FromBytes(layer)
	clean, err := analyzer.WalkLayerReader(d, bytes.NewReader(layer))
	if err != nil {
		t.Fatal(err)
	}
	trailing, err := analyzer.WalkLayerReader(d, bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("walking the layer with trailing bytes: %v", err)
	}
	want := clean.Profile()
	want.CLS = int64(len(blob))
	if got := trailing.Profile(); got != want {
		t.Fatalf("profile %+v, want %+v", got, want)
	}
}

func TestUnknownBlobError(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	_, _, err := s.Get(digest.FromBytes([]byte("nope")))
	if !errors.Is(err, ErrUnknownLayer) {
		t.Fatalf("error = %v, want ErrUnknownLayer", err)
	}
	// The registry's generic miss handling (v2 BLOB_UNKNOWN) keys off
	// blobstore.ErrNotFound; the typed error must match it too.
	if !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("error = %v does not match blobstore.ErrNotFound", err)
	}
	var ub *UnknownBlobError
	if !errors.As(err, &ub) || ub.Digest != digest.FromBytes([]byte("nope")) {
		t.Fatalf("error = %#v, want UnknownBlobError carrying the digest", err)
	}
	if err := s.Delete(digest.FromBytes([]byte("nope"))); !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("Delete miss = %v", err)
	}
	if _, err := s.Stat(digest.FromBytes([]byte("nope"))); !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("Stat miss = %v", err)
	}
}

func TestSavingsRatioEmptyStore(t *testing.T) {
	var st Stats
	if got := st.SavingsRatio(); got != 1.0 {
		t.Fatalf("empty store SavingsRatio = %v, want 1.0", got)
	}
	if got := NewWithConfig(NewMemoryPool(0), Config{}).Stats().SavingsRatio(); got != 1.0 {
		t.Fatalf("fresh store SavingsRatio = %v, want 1.0", got)
	}
}

func TestDeleteFreesPoolBytes(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	shared := "shared content kept while any referencing layer lives"
	l1 := buildLayer(t, map[string]string{"lib.so": shared, "one.txt": "only in layer one"})
	l2 := buildLayer(t, map[string]string{"lib.so": shared, "two.txt": "only in layer two"})
	k1 := putStream(t, s, l1)
	k2 := putStream(t, s, l2)

	if err := s.Delete(k1); err != nil {
		t.Fatal(err)
	}
	if s.Has(k1) {
		t.Fatal("deleted blob still visible")
	}
	st := s.Stats()
	if st.UniqueFiles != 2 {
		t.Fatalf("UniqueFiles after delete = %d, want 2 (shared + two.txt)", st.UniqueFiles)
	}
	if want := int64(len(shared) + len("only in layer two")); st.FileBytes != want {
		t.Fatalf("FileBytes after delete = %d, want %d", st.FileBytes, want)
	}
	// The survivor still reconstructs.
	if got := readBlob(t, s, k2); !bytes.Equal(got, l2) {
		t.Fatal("surviving layer corrupted by delete")
	}
	if err := s.Delete(k2); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.UniqueFiles != 0 || st.FileBytes != 0 || st.RecipeBytes != 0 || st.WireBytes != 0 {
		t.Fatalf("store not empty after deleting everything: %+v", st)
	}
}

// TestDeleteDuringRead is the GC-vs-concurrent-pull race: a blob deleted
// while a pull is streaming it must finish streaming correct bytes, and
// its pool files must be freed only after the reader closes.
func TestDeleteDuringRead(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	files := map[string]string{}
	for i := 0; i < 64; i++ {
		files[fmt.Sprintf("f%02d.bin", i)] = fmt.Sprintf("content %d ", i) + string(bytes.Repeat([]byte{byte(i)}, 2048))
	}
	blob := buildLayer(t, files)
	key := putStream(t, s, blob)

	rc, _, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 10)
	if _, err := io.ReadFull(rc, head); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatalf("Delete during read: %v", err)
	}
	// New pulls miss immediately...
	if _, _, err := s.Get(key); !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("Get after delete = %v, want not-found", err)
	}
	// ...but the pinned reader's pool files are still alive.
	if st := s.Stats(); st.FileBytes == 0 {
		t.Fatal("pool freed while a reader was mid-stream")
	}
	rest, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("in-flight read failed after delete: %v", err)
	}
	if got := append(head, rest...); !bytes.Equal(got, blob) {
		t.Fatal("in-flight read returned wrong bytes after delete")
	}
	rc.Close()
	if st := s.Stats(); st.FileBytes != 0 || st.UniqueFiles != 0 {
		t.Fatalf("pool not freed after last reader closed: %+v", st)
	}
}

// countingStore wraps a blobstore.Store and counts write calls, to prove
// singleflight coalescing.
type countingStore struct {
	blobstore.Store
	writes atomic.Int64
}

func (c *countingStore) PutVerified(d digest.Digest, content []byte) error {
	c.writes.Add(1)
	return c.Store.PutVerified(d, content)
}

func (c *countingStore) PutStream(d digest.Digest, r io.Reader) (int64, error) {
	c.writes.Add(1)
	return c.Store.PutStream(d, r)
}

// TestConcurrentDuplicatePushSingleflight pushes the same blob from many
// goroutines and two sibling blobs sharing every file: the pool backing
// must see exactly one write per unique content digest.
func TestConcurrentDuplicatePushSingleflight(t *testing.T) {
	backing := &countingStore{Store: blobstore.NewMemory()}
	// One shard so the counter sees everything; these files are too small
	// to pack, so every write goes to the raw backing.
	s := NewWithConfig(NewPool([]blobstore.Store{backing}, []blobstore.Store{blobstore.NewMemory()}), Config{})
	shared := map[string]string{
		"usr/lib/libc.so": "the same library bytes in every layer of this test",
		"etc/os-release":  "ID=repro VERSION=1",
	}
	blob := buildLayer(t, shared)
	d := digest.FromBytes(blob)

	const pushers = 16
	var wg sync.WaitGroup
	errs := make([]error, pushers)
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.PutStream(d, bytes.NewReader(blob))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pusher %d: %v", i, err)
		}
	}
	if got := backing.writes.Load(); got != 2 {
		t.Fatalf("pool backing saw %d writes for 2 unique files", got)
	}
	if st := s.Stats(); st.Layers != 1 || st.TotalFiles != 2 {
		t.Fatalf("duplicate pushes double-counted: %+v", st)
	}

	// Sibling layers share both files plus one new file each: two more
	// backing writes, no matter the interleaving.
	sib1map := map[string]string{"a.txt": "unique to sibling one"}
	sib2map := map[string]string{"b.txt": "unique to sibling two"}
	for k, v := range shared {
		sib1map[k], sib2map[k] = v, v
	}
	sib1, sib2 := buildLayer(t, sib1map), buildLayer(t, sib2map)
	wg.Add(2)
	go func() { defer wg.Done(); putStream(t, s, sib1) }()
	go func() { defer wg.Done(); putStream(t, s, sib2) }()
	wg.Wait()
	if got := backing.writes.Load(); got != 4 {
		t.Fatalf("pool backing saw %d writes for 4 unique files", got)
	}
}

func TestCacheServesIdenticalBytes(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{CacheBytes: 1 << 20})
	blob := buildLayer(t, map[string]string{"a": "cached content", "b": "more cached content"})
	key := putStream(t, s, blob)

	first := readBlob(t, s, key)
	second := readBlob(t, s, key)
	if !bytes.Equal(first, blob) || !bytes.Equal(second, blob) {
		t.Fatal("cache-path read not byte-identical")
	}
	cs := s.CacheStats()
	if cs == nil {
		t.Fatal("CacheStats nil with cache configured")
	}
	if cs.Hits == 0 {
		t.Fatalf("second read missed the reconstruction cache: %+v", cs)
	}
	// Delete invalidates: the blob is gone even though it was cached.
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(key); !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("cached blob survived delete: %v", err)
	}
}

func TestRecipeCodecRoundTrip(t *testing.T) {
	rec := &Recipe{
		Gzip: true,
		Entries: []RecipeEntry{
			{Name: "app/", Dir: true},
			{Name: "app/bin/tool", Size: 12345, Content: digest.FromBytes([]byte("tool bytes"))},
			{Name: "app/empty", Size: 0, Content: digest.FromBytes(nil)},
		},
	}
	enc := encodeRecipe(rec)
	dec, err := DecodeRecipe(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Gzip != rec.Gzip || len(dec.Entries) != len(rec.Entries) {
		t.Fatalf("decoded recipe shape wrong: %+v", dec)
	}
	for i := range rec.Entries {
		if dec.Entries[i] != rec.Entries[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, dec.Entries[i], rec.Entries[i])
		}
	}
	// The whole point of the binary format is compactness: well under the
	// ~140 B/entry of a JSON encoding.
	if perEntry := len(enc) / len(rec.Entries); perEntry > 70 {
		t.Fatalf("recipe encoding is %d B/entry", perEntry)
	}
	if _, err := DecodeRecipe(enc[:len(enc)-4]); err == nil {
		t.Fatal("truncated recipe decoded")
	}
	if _, err := DecodeRecipe([]byte("junk")); err == nil {
		t.Fatal("junk decoded as recipe")
	}
}

// TestSavingsMatchDedupAnalysis stores every materialized layer of a
// synthetic hub and checks the realized storage savings approach the
// dataset's file-level capacity dedup ratio — the §VI design validated
// against the §V analysis.
func TestSavingsMatchDedupAnalysis(t *testing.T) {
	d, err := synth.Generate(synth.MaterializeSpec(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(blobstore.NewMemory())
	if _, err := synth.Materialize(d, reg); err != nil {
		t.Fatal(err)
	}

	s := NewWithConfig(NewMemoryPool(0), Config{})
	for i := range d.Layers {
		blob, err := synth.RenderLayer(d, synth.LayerID(i), new(tarutil.Builder))
		if err != nil {
			t.Fatal(err)
		}
		putStream(t, s, blob)
	}
	st := s.Stats()
	if st.Layers != len(d.Layers) {
		t.Fatalf("stored %d layers, want %d", st.Layers, len(d.Layers))
	}
	if st.TotalFiles != d.FileInstances() {
		t.Fatalf("TotalFiles = %d, want %d", st.TotalFiles, d.FileInstances())
	}
	if st.UniqueFiles != len(d.Files) {
		t.Fatalf("UniqueFiles = %d, want %d", st.UniqueFiles, len(d.Files))
	}
	// The pool must hold exactly the model's unique bytes — content
	// addressing realizes the §V-B dedup with no slack.
	var uniqueBytes int64
	for _, f := range d.Files {
		uniqueBytes += f.Size
	}
	if st.FileBytes != uniqueBytes {
		t.Fatalf("pool holds %d bytes, model unique bytes are %d", st.FileBytes, uniqueBytes)
	}
	if st.LogicalBytes != d.TotalFLS() {
		t.Fatalf("logical bytes %d != dataset FLS %d", st.LogicalBytes, d.TotalFLS())
	}
	// Packing only ever shrinks what the backings hold.
	if st.PoolBytes > st.FileBytes {
		t.Fatalf("pool backings hold %d bytes for %d content bytes", st.PoolBytes, st.FileBytes)
	}
	// Realized dedup = logical/(content+recipes): packing is not dedup, so
	// the bound is over content bytes. MaterializeSpec shrinks files to
	// ~200 B so recipe metadata (~50 B/entry) eats part of the win here; at
	// the paper's 31.6 KB mean file size the overhead is ~0.2% and realized
	// dedup approaches the 6.9x capacity ratio.
	modelRatio := float64(d.TotalFLS()) / float64(uniqueBytes)
	realized := float64(st.LogicalBytes) / float64(st.FileBytes+st.RecipeBytes)
	if realized <= 1.1 {
		t.Fatalf("realized dedup %.2fx provides no benefit", realized)
	}
	if realized > modelRatio*1.01 {
		t.Fatalf("realized dedup %.2fx exceeds the theoretical %.2fx", realized, modelRatio)
	}
}

// TestRoundTripMaterializedLayers proves the recipe path reproduces
// synth-rendered wire blobs bit-identically through the full
// PutStream/Get cycle.
func TestRoundTripMaterializedLayers(t *testing.T) {
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(NewMemoryPool(0), Config{})
	for i := 0; i < len(d.Layers) && i < 50; i++ {
		blob, err := synth.RenderLayer(d, synth.LayerID(i), new(tarutil.Builder))
		if err != nil {
			t.Fatal(err)
		}
		key := putStream(t, s, blob)
		if got := readBlob(t, s, key); !bytes.Equal(got, blob) {
			t.Fatalf("layer %d not byte-identical after reassembly", i)
		}
	}
}

// observedReader carries a recording MemberObserver the way the registry's
// upload reader does, and notes whether the store asked for it.
type observedReader struct {
	io.Reader
	asked bool
	calls []string
}

func (o *observedReader) MemberObserver() blobstore.MemberObserver {
	o.asked = true
	return o
}
func (o *observedReader) Dir(e tarutil.Entry) { o.calls = append(o.calls, "dir "+e.Name) }
func (o *observedReader) File(e tarutil.Entry, sum digest.Digest, head []byte) {
	o.calls = append(o.calls, fmt.Sprintf("file %s %s %q", e.Name, sum.Short(), head))
}
func (o *observedReader) End(wireBytes int64) {
	o.calls = append(o.calls, fmt.Sprint("end ", wireBytes))
}

// TestPutStreamReportsMembers: the decomposition tells an observer carried
// on the reader exactly what it wrote into the recipe — in order, with each
// file's content digest and bytes — and End only when the blob commits.
func TestPutStreamReportsMembers(t *testing.T) {
	s := NewWithConfig(NewMemoryPool(0), Config{})
	blob := buildLayer(t, map[string]string{"a.txt": "alpha", "b.txt": "beta"})
	d := digest.FromBytes(blob)
	want := []string{
		"dir app/",
		fmt.Sprintf("file app/a.txt %s %q", digest.FromBytes([]byte("alpha")).Short(), "alpha"),
		fmt.Sprintf("file app/b.txt %s %q", digest.FromBytes([]byte("beta")).Short(), "beta"),
	}

	// Rejected upload: members were reported, End was not, nothing stays.
	bad := &observedReader{Reader: bytes.NewReader(blob)}
	if _, err := s.PutStream(digest.FromBytes([]byte("other")), bad); !errors.Is(err, blobstore.ErrDigestMismatch) {
		t.Fatalf("mismatched put: %v, want ErrDigestMismatch", err)
	}
	if fmt.Sprint(bad.calls) != fmt.Sprint(want) {
		t.Fatalf("rejected put reported %q, want %q and no End", bad.calls, want)
	}
	if st := s.Stats(); st.UniqueFiles != 0 || st.Layers != 0 {
		t.Fatalf("rejected put left %d pooled files, %d layers", st.UniqueFiles, st.Layers)
	}

	good := &observedReader{Reader: bytes.NewReader(blob)}
	if _, err := s.PutStream(d, good); err != nil {
		t.Fatal(err)
	}
	if full := append(want, fmt.Sprint("end ", len(blob))); fmt.Sprint(good.calls) != fmt.Sprint(full) {
		t.Fatalf("committed put reported %q, want %q", good.calls, full)
	}

	// A duplicate is drained: the observer is claimed, nothing is reported.
	dup := &observedReader{Reader: bytes.NewReader(blob)}
	if _, err := s.PutStream(d, dup); err != nil {
		t.Fatal(err)
	}
	if !dup.asked || len(dup.calls) != 0 {
		t.Fatalf("duplicate put: asked=%v, reported %q; want claimed and silent", dup.asked, dup.calls)
	}

	// A raw blob is none of the observer's business.
	raw := &observedReader{Reader: strings.NewReader(`{"architecture":"amd64"}`)}
	if _, err := s.PutStream(digest.FromBytes([]byte(`{"architecture":"amd64"}`)), raw); err != nil {
		t.Fatal(err)
	}
	if raw.asked {
		t.Fatal("raw blob: the store claimed the observer")
	}
}
