package pipeline

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/downloader"
	"repro/internal/registry"
	"repro/internal/synth"
)

// fixture materializes a registry and returns the server plus repo list.
func fixture(t *testing.T) (*httptest.Server, []string, int) {
	t.Helper()
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(blobstore.NewMemory())
	if _, err := synth.Materialize(d, reg); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg)
	t.Cleanup(srv.Close)
	repos := make([]string, len(d.Repos))
	for i := range d.Repos {
		repos[i] = d.Repos[i].Name
	}
	return srv, repos, len(d.Images)
}

// compareAnalyses asserts two analyses are bit-identical the way the
// analyzer's own worker-invariance test does.
func compareAnalyses(t *testing.T, label string, got, want *analyzer.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Layers, want.Layers) {
		t.Fatalf("%s: layer profiles diverged", label)
	}
	if !reflect.DeepEqual(got.Images, want.Images) {
		t.Fatalf("%s: image profiles diverged", label)
	}
	if g, w := got.Index.Ratios(), want.Index.Ratios(); g != w {
		t.Fatalf("%s: dedup ratios %+v, want %+v", label, g, w)
	}
	if g, w := got.Index.MultiCopyFrac(), want.Index.MultiCopyFrac(); g != w {
		t.Fatalf("%s: multi-copy frac %v, want %v", label, g, w)
	}
	_, gMax, gEmpty := got.Index.RepeatCDF()
	_, wMax, wEmpty := want.Index.RepeatCDF()
	if gMax != wMax || gEmpty != wEmpty {
		t.Fatalf("%s: repeat max %d/%v, want %d/%v", label, gMax, gEmpty, wMax, wEmpty)
	}
	if g, w := got.Index.SizeQuantiles(0.5, 0.9), want.Index.SizeQuantiles(0.5, 0.9); !slices.Equal(g, w) {
		t.Fatalf("%s: file-size p50/p90 %v, want %v", label, g, w)
	}
}

// TestFusedMatchesTwoPhase is the tentpole invariance: at every worker
// count the fused pipeline's analysis is bit-identical to a two-phase
// download-then-analyze over the same registry.
func TestFusedMatchesTwoPhase(t *testing.T) {
	srv, repos, wantImages := fixture(t)

	// Two-phase baseline.
	baseSink := blobstore.NewMemory()
	baseDl := &downloader.Downloader{Client: &registry.Client{Base: srv.URL}, Workers: 4, Store: baseSink}
	dres, err := baseDl.RunContext(context.Background(), repos)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Stats.Downloaded != wantImages {
		t.Fatalf("baseline downloaded %d, want %d", dres.Stats.Downloaded, wantImages)
	}
	base, err := analyzer.AnalyzeStore(baseSink, dres.Images, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Layers) == 0 || base.Index.Instances() == 0 {
		t.Fatal("fixture produced an empty analysis; test is vacuous")
	}

	for _, workers := range []int{1, 2, 8} {
		sink := blobstore.NewMemory()
		dl := &downloader.Downloader{Client: &registry.Client{Base: srv.URL}, Workers: workers, Store: sink}
		res, err := Run(context.Background(), dl, repos)
		if err != nil {
			t.Fatal(err)
		}
		if res.Download.Stats.Downloaded != wantImages {
			t.Fatalf("workers=%d: downloaded %d, want %d", workers, res.Download.Stats.Downloaded, wantImages)
		}
		if res.ReWalked != 0 {
			t.Fatalf("workers=%d: %d layers re-walked on a clean run", workers, res.ReWalked)
		}
		if res.WalkedInline != len(base.Layers) {
			t.Fatalf("workers=%d: walked %d layers inline, want %d", workers, res.WalkedInline, len(base.Layers))
		}
		compareAnalyses(t, "fused", res.Analysis, base)
		// The fused run also stored every blob, like the two-phase run.
		if sink.Len() != baseSink.Len() {
			t.Fatalf("workers=%d: sink holds %d blobs, baseline %d", workers, sink.Len(), baseSink.Len())
		}
	}
}

// TestFusedRequiresStore: layers are walked from the store they were
// committed to, so Run refuses a downloader without one before it sends a
// single request.
func TestFusedRequiresStore(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	dl := &downloader.Downloader{Client: &registry.Client{Base: srv.URL}, Workers: 2}
	if _, err := Run(context.Background(), dl, []string{"library/a", "library/b"}); err == nil {
		t.Fatal("Run accepted a downloader without a store")
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("Run sent %d requests before refusing", n)
	}
	if dl.LayerStored != nil {
		t.Fatal("refused run left its hook attached to the downloader")
	}
}

// TestFusedHookReset: the pipeline detaches its hook from the downloader
// when it returns.
func TestFusedHookReset(t *testing.T) {
	srv, repos, _ := fixture(t)
	dl := &downloader.Downloader{Client: &registry.Client{Base: srv.URL}, Workers: 2, Store: blobstore.NewMemory()}
	if _, err := Run(context.Background(), dl, repos); err != nil {
		t.Fatal(err)
	}
	if dl.LayerStored != nil {
		t.Fatal("pipeline left its hook attached to the downloader")
	}
}
