package analytics

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/synth"
)

// env is one live registry + analytics stack over a real HTTP listener.
type env struct {
	ds     *synth.Dataset
	reg    *registry.Registry
	live   *Live
	store  *countingStore
	hook   *countingIngest
	srv    *httptest.Server
	client *registry.Client
}

// countingStore and countingIngest decorate the way bench/trace.go does:
// they embed the interface and override only the methods they count, so
// the upload's io.Reader and every other call pass through untouched.
// Whatever lets the store and the hook share one walk has to survive that.
type countingStore struct {
	blobstore.Store
	gets atomic.Int64
}

func (s *countingStore) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	s.gets.Add(1)
	return s.Store.Get(d)
}

type countingIngest struct {
	registry.Ingest
	mu       sync.Mutex
	streamed map[digest.Digest]int // byte-tee calls per digest
}

func (h *countingIngest) BlobStream(d digest.Digest, r io.Reader) {
	h.mu.Lock()
	if h.streamed == nil {
		h.streamed = make(map[digest.Digest]int)
	}
	h.streamed[d]++
	h.mu.Unlock()
	h.Ingest.BlobStream(d, r)
}

// streams returns how many uploads took the byte tee, and how many of
// those were of the given digests.
func (h *countingIngest) streams(of ...digest.Digest) (total, matching int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, n := range h.streamed {
		total += n
	}
	for _, d := range of {
		matching += h.streamed[d]
	}
	return total, matching
}

func newEnv(t *testing.T, scale float64) *env {
	return newEnvOn(t, scale, blobstore.NewMemory())
}

// newEnvOn is newEnv over a chosen backing store.
func newEnvOn(t *testing.T, scale float64, backing blobstore.Store) *env {
	t.Helper()
	ds, err := synth.Generate(synth.MaterializeSpec(scale))
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{Store: backing}
	reg := registry.New(store)
	live := New(reg.Blobs(), synth.Repositories(ds))
	hook := &countingIngest{Ingest: live}
	reg.SetIngest(hook)
	srv := httptest.NewServer(reg)
	t.Cleanup(srv.Close)
	return &env{
		ds:     ds,
		reg:    reg,
		live:   live,
		store:  store,
		hook:   hook,
		srv:    srv,
		client: &registry.Client{Base: srv.URL, Token: "push-test"},
	}
}

// pushAll drives the full dataset through the wire push path: every repo
// registered, every downloadable repo's layers, config and manifest
// uploaded over HTTP so the ingest tee sees all bytes.
func (e *env) pushAll(t *testing.T) map[string]*manifest.Manifest {
	t.Helper()
	manifests := make(map[string]*manifest.Manifest)
	pushed := make(map[synth.LayerID]bool)
	for ri := range e.ds.Repos {
		r := &e.ds.Repos[ri]
		e.reg.CreateRepo(r.Name, r.Private)
		if !r.Downloadable() {
			continue
		}
		m := e.pushImage(t, r.Name, synth.ImageID(r.Image), pushed)
		manifests[r.Name] = m
	}
	return manifests
}

// pushImage uploads one image's layers (those not already pushed), config
// and manifest under the given repo, returning the manifest.
func (e *env) pushImage(t *testing.T, repo string, imgID synth.ImageID, pushed map[synth.LayerID]bool) *manifest.Manifest {
	t.Helper()
	layers := e.ds.ImageLayers(imgID)
	descs := make([]manifest.Descriptor, len(layers))
	for j, l := range layers {
		blob, err := synth.RenderLayer(e.ds, l)
		if err != nil {
			t.Fatal(err)
		}
		if !pushed[l] {
			if _, err := e.client.PushBlob(repo, blob); err != nil {
				t.Fatalf("push layer %d: %v", l, err)
			}
			pushed[l] = true
		}
		descs[j] = manifest.Descriptor{
			MediaType: manifest.MediaTypeLayer,
			Size:      int64(len(blob)),
			Digest:    digest.FromBytes(blob),
		}
	}
	cfg, err := json.Marshal(manifest.Config{
		Architecture: "amd64",
		OS:           "linux",
		Created:      fmt.Sprintf("2017-05-%02dT00:00:00Z", 1+int(imgID)%30),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgDg, err := e.client.PushBlob(repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.New(manifest.Descriptor{
		MediaType: manifest.MediaTypeConfig,
		Size:      int64(len(cfg)),
		Digest:    cfgDg,
	}, descs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.client.PushManifest(repo, "latest", m); err != nil {
		t.Fatalf("push manifest %s: %v", repo, err)
	}
	return m
}

// batchFingerprint runs the batch pipeline over the registry's current
// state and fingerprints its figures.
func (e *env) batchFingerprint(t *testing.T, workers int) string {
	t.Helper()
	images, err := RegistryImages(e.reg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analyzer.AnalyzeStore(e.reg.Blobs(), images, workers)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(report.All(&report.Source{Analysis: res, Repos: synth.Repositories(e.ds)}))
}

// liveFingerprint fingerprints the live snapshot's figures.
func (e *env) liveFingerprint(t *testing.T) string {
	t.Helper()
	figs, err := e.live.Snapshot().Figures()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(figs)
}

func fingerprint(figs []report.Figure) string {
	h := sha256.New()
	for i := range figs {
		fmt.Fprint(h, figs[i].String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLiveMatchesBatch is the tentpole invariant end to end: ingest the
// dataset through the wire push path, then require the incrementally
// maintained state to render figures sha256-identical to a fresh batch
// AnalyzeStore pass — after initial ingest, after deletes, and after
// re-pushing the deleted images.
func TestLiveMatchesBatch(t *testing.T) {
	e := newEnv(t, 0.0002)
	manifests := e.pushAll(t)
	if len(manifests) == 0 {
		t.Fatal("dataset produced no downloadable repos")
	}

	full := e.liveFingerprint(t)
	if got := e.batchFingerprint(t, 4); got != full {
		t.Fatalf("live != batch after ingest:\n live %s\nbatch %s", full, got)
	}

	// Delete a third of the repos' latest tags over the wire.
	var names []string
	for name := range manifests {
		names = append(names, name)
	}
	sort.Strings(names)
	deleted := names[:len(names)/3]
	if len(deleted) == 0 {
		deleted = names[:1]
	}
	for _, name := range deleted {
		if err := e.client.DeleteManifest(name, "latest"); err != nil {
			t.Fatalf("delete %s: %v", name, err)
		}
	}
	afterDelete := e.liveFingerprint(t)
	if afterDelete == full {
		t.Fatal("figures unchanged by deletes")
	}
	if got := e.batchFingerprint(t, 4); got != afterDelete {
		t.Fatalf("live != batch after deletes:\n live %s\nbatch %s", afterDelete, got)
	}

	// Re-push the deleted manifests (blobs are still stored; manifest PUT
	// suffices) and require an exact return to the original figure state.
	for _, name := range deleted {
		if _, err := e.client.PushManifest(name, "latest", manifests[name]); err != nil {
			t.Fatalf("re-push %s: %v", name, err)
		}
	}
	afterRepush := e.liveFingerprint(t)
	if afterRepush != full {
		t.Fatalf("delete/re-push cycle did not restore figures:\n before %s\n  after %s", full, afterRepush)
	}
	if got := e.batchFingerprint(t, 1); got != afterRepush {
		t.Fatalf("live != batch after re-push:\n live %s\nbatch %s", afterRepush, got)
	}

	st := e.live.Stats()
	if st.BlobsWalked == 0 {
		t.Fatal("no blobs walked via the wire tee")
	}
	if st.SkippedLayers != 0 {
		t.Fatalf("%d skipped layers (degraded census)", st.SkippedLayers)
	}
	if st.FallbackWalks != 0 {
		t.Fatalf("%d fallback walks: wire-pushed layers should all come from the tee", st.FallbackWalks)
	}
}
