package dedupstore

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/tarutil"
)

// buildLayer makes a gzip layer with the given (name, content) pairs.
func buildLayer(t *testing.T, files map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	b, err := tarutil.NewGzipBuilder(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
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

// putStream pushes blob through the streaming path and fails the test on
// error.
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
	s := New(NewMemoryPool(0))
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
	err := tarutil.WalkAuto(bytes.NewReader(got), func(e tarutil.Entry, r io.Reader) error {
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
	s := New(NewMemoryPool(0))
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
	s := New(NewMemoryPool(0))
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
	s := New(NewMemoryPool(0))
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
	s := New(NewMemoryPool(0))
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
	s := New(NewMemoryPool(0))
	blob := buildLayer(t, map[string]string{"x": "content"})
	wrong := digest.FromString("not this blob")
	if _, err := s.PutStream(wrong, bytes.NewReader(blob)); !errors.Is(err, blobstore.ErrDigestMismatch) {
		t.Fatalf("digest mismatch not detected: %v", err)
	}
	if s.Has(wrong) || s.pool.has(digest.FromString("content")) {
		t.Fatal("failed put left state behind")
	}
	if s.Stats().PhysicalBytes() != 0 {
		t.Fatal("failed put leaked pool bytes")
	}
}

func TestCorruptGzipStream(t *testing.T) {
	// Valid gzip framing, invalid tar inside.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("this is not a tar archive but is long enough to try parsing it as one ......."))
	zw.Close()
	blob := buf.Bytes()
	d := digest.FromBytes(blob)

	// PutStream has consumed the bytes and cannot fall back: it errors.
	s := New(NewMemoryPool(0))
	if _, err := s.PutStream(d, bytes.NewReader(blob)); err == nil {
		t.Fatal("corrupt layer accepted by PutStream")
	}
	// Put holds the bytes and stores them verbatim instead.
	key, err := s.Put(blob)
	if err != nil {
		t.Fatalf("Put fallback failed: %v", err)
	}
	if key != d {
		t.Fatalf("fallback key %s != digest %s", key.Short(), d.Short())
	}
	if s.Recipe(key) != nil {
		t.Fatal("undecomposable blob got a recipe")
	}
	if got := readBlob(t, s, key); !bytes.Equal(got, blob) {
		t.Fatal("fallback blob did not round-trip")
	}
}

// foreignLayer builds a gzip tar whose metadata tarutil's builder cannot
// reproduce (nonzero mod time, odd mode), so it decomposes but fails the
// put-time reassembly proof.
func foreignLayer(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	tw := tar.NewWriter(zw)
	hdr := &tar.Header{
		Name:    "etc/passwd",
		Mode:    0o600,
		Size:    int64(len("root:x:0:0\n")),
		ModTime: time.Date(2019, 9, 24, 12, 0, 0, 0, time.UTC),
		Uname:   "builder",
	}
	if err := tw.WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write([]byte("root:x:0:0\n")); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestNotReproducibleBlob(t *testing.T) {
	blob := foreignLayer(t)
	d := digest.FromBytes(blob)

	s := New(NewMemoryPool(0))
	if _, err := s.PutStream(d, bytes.NewReader(blob)); !errors.Is(err, ErrNotReproducible) {
		t.Fatalf("error = %v, want ErrNotReproducible", err)
	}
	if s.Stats().PhysicalBytes() != 0 {
		t.Fatal("failed put leaked pool bytes")
	}
	// Put falls back to verbatim storage and serves the exact bytes.
	if _, err := s.Put(blob); err != nil {
		t.Fatalf("Put fallback: %v", err)
	}
	if got := readBlob(t, s, d); !bytes.Equal(got, blob) {
		t.Fatal("foreign blob did not round-trip verbatim")
	}
}

func TestUnknownBlobError(t *testing.T) {
	s := New(NewMemoryPool(0))
	_, _, err := s.Get(digest.FromString("nope"))
	if !errors.Is(err, ErrUnknownLayer) {
		t.Fatalf("error = %v, want ErrUnknownLayer", err)
	}
	// The registry's generic miss handling (v2 BLOB_UNKNOWN) keys off
	// blobstore.ErrNotFound; the typed error must match it too.
	if !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("error = %v does not match blobstore.ErrNotFound", err)
	}
	var ub *UnknownBlobError
	if !errors.As(err, &ub) || ub.Digest != digest.FromString("nope") {
		t.Fatalf("error = %#v, want UnknownBlobError carrying the digest", err)
	}
	if err := s.Delete(digest.FromString("nope")); !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("Delete miss = %v", err)
	}
	if _, err := s.Stat(digest.FromString("nope")); !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("Stat miss = %v", err)
	}
}

func TestSavingsRatioEmptyStore(t *testing.T) {
	var st Stats
	if got := st.SavingsRatio(); got != 1.0 {
		t.Fatalf("empty store SavingsRatio = %v, want 1.0", got)
	}
	if got := st.WireSavingsRatio(); got != 1.0 {
		t.Fatalf("empty store WireSavingsRatio = %v, want 1.0", got)
	}
	if got := New(NewMemoryPool(0)).Stats().SavingsRatio(); got != 1.0 {
		t.Fatalf("fresh store SavingsRatio = %v, want 1.0", got)
	}
}

func TestDeleteFreesPoolBytes(t *testing.T) {
	s := New(NewMemoryPool(0))
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
	s := New(NewMemoryPool(0))
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
	s := New(NewPool(backing)) // one shard so the counter sees everything
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
			{Name: "app/bin/tool", Size: 12345, Content: digest.FromString("tool bytes")},
			{Name: "app/empty", Size: 0, Content: digest.FromBytes(nil)},
		},
	}
	enc := EncodeRecipe(rec)
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

	s := New(NewMemoryPool(0))
	for i := range d.Layers {
		blob, err := synth.RenderLayer(d, synth.LayerID(i))
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
	// Realized savings = logical/(pool+recipes). MaterializeSpec shrinks
	// files to ~200 B so recipe metadata (~50 B/entry) eats part of the
	// win here; at the paper's 31.6 KB mean file size the overhead is
	// ~0.2% and realized savings approach the 6.9x capacity ratio.
	modelRatio := float64(d.TotalFLS()) / float64(uniqueBytes)
	realized := st.SavingsRatio()
	if realized <= 1.1 {
		t.Fatalf("realized savings %.2fx provide no benefit", realized)
	}
	if realized > modelRatio*1.01 {
		t.Fatalf("realized savings %.2fx exceeds the theoretical %.2fx", realized, modelRatio)
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
	s := New(NewMemoryPool(0))
	for i := 0; i < len(d.Layers) && i < 50; i++ {
		blob, err := synth.RenderLayer(d, synth.LayerID(i))
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
	s := New(NewMemoryPool(0))
	blob := buildLayer(t, map[string]string{"a.txt": "alpha", "b.txt": "beta"})
	d := digest.FromBytes(blob)
	want := []string{
		"dir app/",
		fmt.Sprintf("file app/a.txt %s %q", digest.FromString("alpha").Short(), "alpha"),
		fmt.Sprintf("file app/b.txt %s %q", digest.FromString("beta").Short(), "beta"),
	}

	// Rejected upload: members were reported, End was not, nothing stays.
	bad := &observedReader{Reader: bytes.NewReader(blob)}
	if _, err := s.PutStream(digest.FromString("other"), bad); !errors.Is(err, blobstore.ErrDigestMismatch) {
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
	if _, err := s.PutStream(digest.FromString(`{"architecture":"amd64"}`), raw); err != nil {
		t.Fatal(err)
	}
	if raw.asked {
		t.Fatal("raw blob: the store claimed the observer")
	}
}
