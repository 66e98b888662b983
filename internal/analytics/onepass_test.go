package analytics

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/dedupstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/tarutil"
)

// newDedupEnv is an env whose registry stores into a dedupstore — the
// store that decomposes layers itself, so the live census should ride its
// walk.
func newDedupEnv(t *testing.T, scale float64) (*env, *dedupstore.Store) {
	t.Helper()
	ds := dedupstore.New(dedupstore.NewMemoryPool(0))
	return newEnvOn(t, scale, ds), ds
}

// liveFileInstances sums the file counts of every layer in the current
// snapshot's batch-equivalent result.
func liveFileInstances(t *testing.T, e *env) int64 {
	t.Helper()
	res, err := e.live.Snapshot().Result()
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for i := range res.Layers {
		n += int64(res.Layers[i].FileCount)
	}
	return n
}

// TestOnePassOverDecomposingStore: with a dedupstore under the registry
// the analytics side never sees a byte stream and never re-reads a blob —
// every layer is inflated exactly once, by the store — and the figures
// still equal a batch pass. Store and hook sit behind embedding
// decorators, as in the benchmark's traced run.
func TestOnePassOverDecomposingStore(t *testing.T) {
	e, ds := newDedupEnv(t, 0.0002)
	manifests := e.pushAll(t)
	images := len(manifests)
	if images == 0 {
		t.Fatal("dataset produced no downloadable repos")
	}

	// Only configs may take the byte tee: the store sniffs them as raw and
	// leaves the observer unclaimed.
	var layers []digest.Digest
	for _, m := range manifests {
		layers = append(layers, m.LayerDigests()...)
	}
	if total, ofLayers := e.hook.streams(layers...); ofLayers != 0 || total == 0 || total > images {
		t.Fatalf("BlobStream ran %d times, %d of them on layers; want configs only (at most %d)", total, ofLayers, images)
	}
	if n := e.store.gets.Load(); n != 0 {
		t.Fatalf("%d store reads during pushes: something walked a stored blob again", n)
	}
	st, dst := e.live.Stats(), ds.Stats()
	if st.BlobsWalked != int64(dst.Layers) || dst.Layers == 0 {
		t.Fatalf("%d walks committed for %d decomposed layers", st.BlobsWalked, dst.Layers)
	}
	if st.WalkErrors != int64(images) {
		t.Fatalf("%d walk errors, want one per config upload (%d images)", st.WalkErrors, images)
	}
	if st.FallbackWalks != 0 || st.SkippedLayers != 0 {
		t.Fatalf("fallback walks %d, skipped layers %d, want 0 and 0", st.FallbackWalks, st.SkippedLayers)
	}

	live := e.liveFingerprint(t)
	if got := e.batchFingerprint(t, 4); got != live {
		t.Fatalf("live != batch over dedupstore:\n live %s\nbatch %s", live, got)
	}
	// Every layer here is referenced, so the census saw exactly the
	// members the store pooled.
	if got := liveFileInstances(t, e); got != dst.TotalFiles {
		t.Fatalf("census holds %d file instances, store decomposed %d", got, dst.TotalFiles)
	}

	// The same dataset over a plain store takes the byte tee and must land
	// on the same figures.
	plain := newEnv(t, 0.0002)
	plain.pushAll(t)
	pst := plain.live.Stats()
	if n, _ := plain.hook.streams(); int64(n) != pst.BlobsWalked+pst.WalkErrors || pst.BlobsWalked != st.BlobsWalked {
		t.Fatalf("plain store: %d byte tees for %d walks + %d walk errors (dedup store committed %d walks)",
			n, pst.BlobsWalked, pst.WalkErrors, st.BlobsWalked)
	}
	if got := plain.liveFingerprint(t); got != live {
		t.Fatalf("byte tee and member observer disagree:\n plain %s\n dedup %s", got, live)
	}
}

// walkedLayers is the size of the walk cache right now (a Snapshot would
// be memoized across uploads, which do not advance the epoch).
func (e *env) walkedLayers() int {
	e.live.mu.Lock()
	defer e.live.mu.Unlock()
	return len(e.live.layers)
}

// gzipLayer renders a deterministic gzip layer tarball the dedupstore can
// reproduce bit for bit.
func gzipLayer(t *testing.T, files map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	b, err := tarutil.NewGzipBuilder(&buf, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 0 {
		if err := b.Dir("app"); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"app/a.txt", "app/b.txt", "app/c.txt"} {
		if body, ok := files[name]; ok {
			if err := b.File(name, []byte(body)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// upload drives one monolithic upload through the registry handler and
// returns the status.
func (e *env) upload(repo string, want digest.Digest, body io.Reader) int {
	req := httptest.NewRequest(http.MethodPost, "/v2/"+repo+"/blobs/uploads/?digest="+want.String(), body)
	rec := httptest.NewRecorder()
	e.reg.ServeHTTP(rec, req)
	return rec.Code
}

// cutReader yields the first n bytes of b and then fails the way a dropped
// connection does.
type cutReader struct {
	b []byte
	n int
}

func (c *cutReader) Read(p []byte) (int, error) {
	if c.n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	k := copy(p, c.b[:c.n])
	c.b, c.n = c.b[k:], c.n-k
	return k, nil
}

// TestOnePassRejectedUploadsLeaveNothing: members reported for an upload
// that then fails — wrong digest, truncated body — must not reach the
// census, and the store must give back every pool reference it took.
func TestOnePassRejectedUploadsLeaveNothing(t *testing.T) {
	e, ds := newDedupEnv(t, 0.0001)
	e.reg.CreateRepo("alice/app", false)
	layer := gzipLayer(t, map[string]string{"app/a.txt": "alpha", "app/b.txt": "beta"})
	d := digest.FromBytes(layer)

	if code := e.upload("alice/app", digest.FromString("something else"), bytes.NewReader(layer)); code != http.StatusBadRequest {
		t.Fatalf("mismatched digest: status %d, want 400", code)
	}
	if code := e.upload("alice/app", d, &cutReader{b: layer, n: len(layer) / 2}); code != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", code)
	}
	if n := e.walkedLayers(); n != 0 {
		t.Fatalf("%d layers retained from rejected uploads", n)
	}
	if st := e.live.Stats(); st.BlobsWalked != 0 || st.WalkErrors != 2 {
		t.Fatalf("walked %d, walk errors %d, want 0 and 2", st.BlobsWalked, st.WalkErrors)
	}
	if st := ds.Stats(); st.UniqueFiles != 0 || st.FileBytes != 0 || st.Layers != 0 {
		t.Fatalf("rejected uploads left %d pooled files (%d bytes), %d layers", st.UniqueFiles, st.FileBytes, st.Layers)
	}
	if n, _ := e.hook.streams(); n != 0 {
		t.Fatal("rejected uploads fell back to the byte tee")
	}

	// The same blob, uploaded intact, commits.
	if code := e.upload("alice/app", d, bytes.NewReader(layer)); code != http.StatusCreated {
		t.Fatalf("intact upload: status %d, want 201", code)
	}
	if n := e.walkedLayers(); n != 1 {
		t.Fatalf("%d layers after the intact upload, want 1", n)
	}
}

// pushManifestFor tags a one-layer image over the wire.
func (e *env) pushManifestFor(t *testing.T, repo string, layer []byte) {
	t.Helper()
	cfg := []byte(`{"architecture":"amd64","os":"linux"}`)
	cfgDg, err := e.client.PushBlob(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.New(
		manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(cfg)), Digest: cfgDg},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(len(layer)), Digest: digest.FromBytes(layer)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.client.PushManifest(repo, "latest", m); err != nil {
		t.Fatal(err)
	}
}

// TestOnePassConcurrentPushesOfOneDigest: eight clients race one layer
// in. The store decomposes it once; the other seven drain onto that put
// and must not add a second walk or a second census entry.
func TestOnePassConcurrentPushesOfOneDigest(t *testing.T) {
	e, ds := newDedupEnv(t, 0.0001)
	e.reg.CreateRepo("alice/app", false)
	layer := gzipLayer(t, map[string]string{"app/a.txt": "alpha", "app/b.txt": "beta", "app/c.txt": "alpha"})

	const pushers = 8
	var wg sync.WaitGroup
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.client.PushBlob("alice/app", layer); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if st := e.live.Stats(); st.BlobsWalked != 1 || st.BlobsWalked+st.WalkErrors != pushers {
		t.Fatalf("walked %d, walk errors %d: want one committed walk of %d uploads", st.BlobsWalked, st.WalkErrors, pushers)
	}
	if st := ds.Stats(); st.Layers != 1 || st.TotalFiles != 3 || st.UniqueFiles != 2 {
		t.Fatalf("store holds %d layers, %d file instances, %d unique files; want 1, 3, 2", st.Layers, st.TotalFiles, st.UniqueFiles)
	}
	e.pushManifestFor(t, "alice/app", layer)
	sum := e.live.Snapshot().Summary()
	if sum.WalkedLayers != 1 || sum.Dedup.TotalFiles != 3 {
		t.Fatalf("%d walked layers, %d census instances; want 1 and 3", sum.WalkedLayers, sum.Dedup.TotalFiles)
	}
	if live, batch := e.liveFingerprint(t), e.batchFingerprint(t, 2); live != batch {
		t.Fatalf("live != batch after the race:\n live %s\nbatch %s", live, batch)
	}
}

// TestOnePassEmptyLayerVersusConfig: a valid archive with no members is a
// layer (it commits, with a wire size and nothing else); a config blob is
// not, however the store got to look at it.
func TestOnePassEmptyLayerVersusConfig(t *testing.T) {
	e, ds := newDedupEnv(t, 0.0001)
	e.reg.CreateRepo("alice/empty", false)
	empty := gzipLayer(t, nil)
	if _, err := e.client.PushBlob("alice/empty", empty); err != nil {
		t.Fatal(err)
	}
	if st := e.live.Stats(); st.BlobsWalked != 1 || st.WalkErrors != 0 {
		t.Fatalf("empty layer: walked %d, walk errors %d, want 1 and 0", st.BlobsWalked, st.WalkErrors)
	}
	e.pushManifestFor(t, "alice/empty", empty) // pushes the config too
	if st := e.live.Stats(); st.BlobsWalked != 1 || st.WalkErrors != 1 || st.FallbackWalks != 0 {
		t.Fatalf("after config: walked %d, walk errors %d, fallback %d; want 1, 1, 0", st.BlobsWalked, st.WalkErrors, st.FallbackWalks)
	}
	if st := ds.Stats(); st.Layers != 1 || st.TotalFiles != 0 {
		t.Fatalf("store: %d layers with %d files, want 1 and 0", st.Layers, st.TotalFiles)
	}
	res, err := e.live.Snapshot().Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 1 || res.Layers[0].CLS != int64(len(empty)) || res.Layers[0].FileCount != 0 {
		t.Fatalf("live layers %+v, want one empty layer of %d wire bytes", res.Layers, len(empty))
	}
	if live, batch := e.liveFingerprint(t), e.batchFingerprint(t, 2); live != batch {
		t.Fatalf("live != batch with an empty layer:\n live %s\nbatch %s", live, batch)
	}
	if total, ofLayer := e.hook.streams(digest.FromBytes(empty)); total != 1 || ofLayer != 0 {
		t.Fatalf("%d byte tees, %d of the layer; want the config's alone", total, ofLayer)
	}
}

// TestOnePassFallsBackToStoreWalk: a layer the hook never saw committed —
// stored before the hook was listening — is still walked from the store
// when a manifest first references it.
func TestOnePassFallsBackToStoreWalk(t *testing.T) {
	e, _ := newDedupEnv(t, 0.0001)
	e.reg.CreateRepo("alice/app", false)
	layer := gzipLayer(t, map[string]string{"app/a.txt": "alpha"})
	if _, err := e.reg.Blobs().PutStream(digest.FromBytes(layer), bytes.NewReader(layer)); err != nil {
		t.Fatal(err)
	}
	// A re-upload of a stored blob is drained, not decomposed: no End.
	if _, err := e.client.PushBlob("alice/app", layer); err != nil {
		t.Fatal(err)
	}
	if st := e.live.Stats(); st.BlobsWalked != 0 || st.WalkErrors != 1 {
		t.Fatalf("re-upload: walked %d, walk errors %d, want 0 and 1", st.BlobsWalked, st.WalkErrors)
	}
	e.pushManifestFor(t, "alice/app", layer)
	if st := e.live.Stats(); st.FallbackWalks != 1 || st.SkippedLayers != 0 {
		t.Fatalf("fallback walks %d, skipped %d, want 1 and 0", st.FallbackWalks, st.SkippedLayers)
	}
	if live, batch := e.liveFingerprint(t), e.batchFingerprint(t, 2); live != batch {
		t.Fatalf("live != batch after fallback:\n live %s\nbatch %s", live, batch)
	}
}
