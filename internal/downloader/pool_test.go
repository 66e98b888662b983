package downloader

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
)

// handlerTransport serves a client's requests by calling the handler on the
// requesting goroutine, so a run's goroutines are only its own: no server
// connection goroutines, no client read and write loops.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// peakStore records the most goroutines alive at any PutStream.
type peakStore struct {
	blobstore.Store
	peak atomic.Int64
}

func (p *peakStore) PutStream(d digest.Digest, r io.Reader) (int64, error) {
	n := int64(runtime.NumGoroutine())
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	return p.Store.PutStream(d, r)
}

// TestTransferPoolGoroutines: a run's goroutines are its image workers and
// its transfer workers, however many blobs an image has, and all of them
// have exited when RunContext returns.
func TestTransferPoolGoroutines(t *testing.T) {
	const layers = 80
	reg := registry.New(blobstore.NewMemory())
	descs := make([]manifest.Descriptor, layers)
	for i := range descs {
		b := []byte(fmt.Sprintf("layer %d of the goroutine-count image", i))
		dg, err := reg.PushBlob(b)
		if err != nil {
			t.Fatal(err)
		}
		descs[i] = manifest.Descriptor{MediaType: manifest.MediaTypeLayer, Size: int64(len(b)), Digest: dg}
	}
	cfg := []byte(`{"architecture":"amd64","os":"linux"}`)
	cfgDg, err := reg.PushBlob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.New(manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(cfg)), Digest: cfgDg}, descs)
	if err != nil {
		t.Fatal(err)
	}
	reg.CreateRepo("many/layers", false)
	if _, err := reg.PushManifest("many/layers", "latest", m); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ workers, layerWorkers int }{{1, 2}, {2, 4}} {
		store := &peakStore{Store: blobstore.NewMemory()}
		dl := &Downloader{
			Client:       &registry.Client{Base: "http://registry.invalid", HTTP: &http.Client{Transport: handlerTransport{reg}}},
			Workers:      c.workers,
			LayerWorkers: c.layerWorkers,
			Store:        store,
		}
		base := runtime.NumGoroutine()
		res, err := dl.RunContext(context.Background(), []string{"many/layers"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.UniqueLayers != layers || res.Stats.OtherFailures != 0 {
			t.Fatalf("workers %d/%d: stats %+v", c.workers, c.layerWorkers, res.Stats)
		}
		t.Logf("workers %d/%d: peak %d goroutines over the baseline", c.workers, c.layerWorkers, store.peak.Load()-int64(base))
		const slack = 2
		if extra := int(store.peak.Load()) - base; extra > c.workers+c.layerWorkers+slack {
			t.Fatalf("workers %d/%d: %d goroutines over the baseline during the run, want at most %d",
				c.workers, c.layerWorkers, extra, c.workers+c.layerWorkers+slack)
		}
		// A goroutine that has signalled its WaitGroup may take a moment
		// to be gone from the count.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("workers %d/%d: %d goroutines left running after RunContext returned", c.workers, c.layerWorkers, n-base)
		}
	}
}

// TestCancelStopsHandingOutRepos: a run cancelled while its one image
// worker waits on the second manifest returns at once, requests no
// repository after the cancel, counts no repository twice and leaves no
// goroutine behind.
func TestCancelStopsHandingOutRepos(t *testing.T) {
	reg := registry.New(blobstore.NewMemory())
	repos := make([]string, 5)
	for i := range repos {
		b := []byte(fmt.Sprintf("layer of repository %d", i))
		dg, err := reg.PushBlob(b)
		if err != nil {
			t.Fatal(err)
		}
		cfg := []byte(fmt.Sprintf(`{"architecture":"amd64","os":"linux","n":%d}`, i))
		cfgDg, err := reg.PushBlob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := manifest.New(manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(cfg)), Digest: cfgDg},
			[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(len(b)), Digest: dg}})
		if err != nil {
			t.Fatal(err)
		}
		repos[i] = fmt.Sprintf("cancel/repo%d", i)
		reg.CreateRepo(repos[i], false)
		if _, err := reg.PushManifest(repos[i], "latest", m); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu        sync.Mutex
		requested []string
	)
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !strings.Contains(req.URL.Path, "/manifests/") {
			reg.ServeHTTP(w, req)
			return
		}
		if ctx.Err() != nil {
			t.Errorf("manifest %s requested after the cancel", req.URL.Path)
		}
		mu.Lock()
		requested = append(requested, req.URL.Path)
		second := len(requested) == 2
		mu.Unlock()
		if second {
			cancel()
			<-req.Context().Done()
			return
		}
		reg.ServeHTTP(w, req)
	})
	dl := &Downloader{
		Client:       &registry.Client{Base: "http://registry.invalid", HTTP: &http.Client{Transport: handlerTransport{h}}},
		Workers:      1,
		LayerWorkers: 2,
		Store:        blobstore.NewMemory(),
	}
	base := runtime.NumGoroutine()
	start := time.Now()
	res, err := dl.RunContext(ctx, repos)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("RunContext took %v after the cancel", took)
	}
	want := []string{"/v2/cancel/repo0/manifests/latest", "/v2/cancel/repo1/manifests/latest"}
	if !slices.Equal(requested, want) {
		t.Fatalf("manifests requested %v, want %v", requested, want)
	}
	s := res.Stats
	if s.Downloaded != 1 || s.Downloaded+s.AuthFailures+s.NoLatest+s.OtherFailures > s.Attempted {
		t.Fatalf("stats %+v: want 1 downloaded and no more outcomes than the %d attempted", s, s.Attempted)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines left running after RunContext returned", n-base)
	}
}
