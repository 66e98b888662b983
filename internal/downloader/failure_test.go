package downloader

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/synth"
)

// tamperStore serves corrupted bytes for a chosen set of blobs, simulating
// wire corruption or a rotten storage backend, to exercise the
// downloader's digest-verification path.
type tamperStore struct {
	blobstore.Store
	corrupt map[digest.Digest]bool
}

func (t *tamperStore) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	rc, size, err := t.Store.Get(d)
	if err != nil || !t.corrupt[d] {
		return rc, size, err
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, 0, err
	}
	if len(data) > 0 {
		data[0] ^= 0xFF
	}
	return io.NopCloser(bytes.NewReader(data)), size, nil
}

func TestDownloadDetectsCorruptLayers(t *testing.T) {
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	tampered := &tamperStore{Store: blobstore.NewMemory(), corrupt: map[digest.Digest]bool{}}
	reg := registry.New(tampered)
	mat, err := synth.Materialize(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt three layer blobs (manifests stay intact).
	corrupted := 0
	for _, dg := range mat.LayerDigests {
		if corrupted == 3 {
			break
		}
		if !tampered.corrupt[dg] {
			tampered.corrupt[dg] = true
			corrupted++
		}
	}

	srv := httptest.NewServer(reg)
	defer srv.Close()

	repos := make([]string, len(d.Repos))
	for i := range d.Repos {
		repos[i] = d.Repos[i].Name
	}
	sink := blobstore.NewMemory()
	dl := &Downloader{Client: &registry.Client{Base: srv.URL}, Workers: 4, Store: sink}
	res, err := dl.RunContext(context.Background(), repos)
	if err != nil {
		t.Fatal(err)
	}

	// Images still download (manifests are fine); the corrupted layers are
	// detected by digest verification and counted as other failures.
	if res.Stats.Downloaded != len(d.Images) {
		t.Fatalf("Downloaded = %d, want %d", res.Stats.Downloaded, len(d.Images))
	}
	if res.Stats.OtherFailures == 0 {
		t.Fatal("corrupted layers not detected")
	}
	// Corrupted blobs never reach the sink; intact ones all do.
	for _, dg := range mat.LayerDigests {
		if tampered.corrupt[dg] {
			if sink.Has(dg) {
				t.Fatalf("corrupted layer %s stored", dg.Short())
			}
		} else if !sink.Has(dg) {
			t.Fatalf("intact layer %s missing from sink", dg.Short())
		}
	}
}

// flakyStore fails the first read of every blob, succeeding afterwards —
// the transient-failure pattern the Retries option exists for.
type flakyStore struct {
	blobstore.Store
	attempts sync.Map // digest -> *atomic.Int64
}

func (f *flakyStore) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	v, _ := f.attempts.LoadOrStore(d, &atomic.Int64{})
	if v.(*atomic.Int64).Add(1) == 1 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	return f.Store.Get(d)
}

func TestDownloadRetriesTransientFailures(t *testing.T) {
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyStore{Store: blobstore.NewMemory()}
	reg := registry.New(flaky)
	if _, err := synth.Materialize(d, reg); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg)
	defer srv.Close()
	repos := make([]string, len(d.Repos))
	for i := range d.Repos {
		repos[i] = d.Repos[i].Name
	}

	// Without retries, the first-read failures surface.
	noRetry := &Downloader{Client: &registry.Client{Base: srv.URL}, Workers: 4, Store: blobstore.NewMemory()}
	res, err := noRetry.RunContext(context.Background(), repos)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OtherFailures == 0 && res.Stats.Downloaded == len(d.Images) {
		t.Fatal("flaky store produced no failures without retries")
	}

	// With retries every image and layer eventually lands. (The flaky
	// store fails only the first read per blob, so one retry suffices.)
	flaky2 := &flakyStore{Store: blobstore.NewMemory()}
	reg2 := registry.New(flaky2)
	if _, err := synth.Materialize(d, reg2); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(reg2)
	defer srv2.Close()
	withRetry := &Downloader{Client: &registry.Client{Base: srv2.URL}, Workers: 4, Retries: 2, Store: blobstore.NewMemory()}
	res2, err := withRetry.RunContext(context.Background(), repos)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Downloaded != len(d.Images) {
		t.Fatalf("with retries: downloaded %d, want %d", res2.Stats.Downloaded, len(d.Images))
	}
	if res2.Stats.OtherFailures != 0 {
		t.Fatalf("with retries: %d residual failures", res2.Stats.OtherFailures)
	}
	if res2.Stats.UniqueLayers != len(d.Layers) {
		t.Fatalf("with retries: %d unique layers, want %d", res2.Stats.UniqueLayers, len(d.Layers))
	}
}

// holeStore corrupts the FIRST read of one chosen blob (same length, wrong
// bytes — a digest mismatch at EOF, which is not resumable mid-stream) and
// serves it intact afterwards.
type holeStore struct {
	blobstore.Store
	target  digest.Digest
	tripped atomic.Bool
}

func (h *holeStore) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	rc, size, err := h.Store.Get(d)
	if err != nil || d != h.target || !h.tripped.CompareAndSwap(false, true) {
		return rc, size, err
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, 0, err
	}
	// Let the loser of the claim race arrive while the fetch is still in
	// flight, so the singleflight wait path actually runs.
	time.Sleep(30 * time.Millisecond)
	garbage := bytes.Repeat([]byte{0xAB}, len(data))
	return io.NopCloser(bytes.NewReader(garbage)), size, nil
}

// TestSharedLayerClaimHole is the regression test for the claim-map hole:
// two images share a layer; the first claimant's fetch fails. Under the
// old claim map the second image had already "skipped" the layer, so it
// never landed in the store. Singleflight semantics make the waiter observe
// the failure and take over the fetch.
func TestSharedLayerClaimHole(t *testing.T) {
	inner := blobstore.NewMemory()
	layer := []byte("shared layer content for the claim hole regression test")
	hs := &holeStore{Store: inner}
	reg := registry.New(hs)
	layerDg, err := reg.PushBlob(layer)
	if err != nil {
		t.Fatal(err)
	}
	hs.target = layerDg
	layerDesc := manifest.Descriptor{
		MediaType: manifest.MediaTypeLayer, Size: int64(len(layer)), Digest: layerDg,
	}
	for i, name := range []string{"hole/one", "hole/two"} {
		cfg := []byte(fmt.Sprintf(`{"architecture":"amd64","os":"linux","n":%d}`, i))
		cfgDg, err := reg.PushBlob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := manifest.New(manifest.Descriptor{
			MediaType: manifest.MediaTypeConfig, Size: int64(len(cfg)), Digest: cfgDg,
		}, []manifest.Descriptor{layerDesc})
		if err != nil {
			t.Fatal(err)
		}
		reg.CreateRepo(name, false)
		if _, err := reg.PushManifest(name, "latest", m); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(reg)
	defer srv.Close()
	sink := blobstore.NewMemory()
	// Retries:0 — only the takeover path, not the retry loop, can save the
	// second image.
	dl := &Downloader{Client: &registry.Client{Base: srv.URL}, Workers: 2, Store: sink}
	res, err := dl.RunContext(context.Background(), []string{"hole/one", "hole/two"})
	if err != nil {
		t.Fatal(err)
	}

	if !sink.Has(layerDg) {
		t.Fatal("shared layer missing from store: claim hole is back")
	}
	if res.Stats.Downloaded != 2 {
		t.Fatalf("Downloaded = %d, want 2", res.Stats.Downloaded)
	}
	if res.Stats.OtherFailures != 1 {
		t.Fatalf("OtherFailures = %d, want 1 (the first claimant)", res.Stats.OtherFailures)
	}
	if res.Stats.UniqueLayers != 1 {
		t.Fatalf("UniqueLayers = %d, want 1", res.Stats.UniqueLayers)
	}
	if res.Stats.SkippedLayers != 0 {
		t.Fatalf("SkippedLayers = %d, want 0 (the waiter took over, it did not skip)", res.Stats.SkippedLayers)
	}
}
