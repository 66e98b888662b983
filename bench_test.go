// Benchmarks the Makefile names: the streaming download path, the fused
// crawl-download-walk pipeline and the wire-path analysis across worker
// counts (`make bench`, `make bench-smoke`, `make bench-scaling`). The
// gated end-to-end benchmark is bench/; these measure one component each.
//
// Run with: go test -run '^$' -bench=. -benchmem .
package repro_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/downloader"
	"repro/internal/manifest"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/synth"
)

// --- shared fixtures -----------------------------------------------------

var (
	wireOnce sync.Once
	wireData *synth.Dataset
	wireReg  *registry.Registry
	wireImgs []downloader.Image
	wireErr  error
)

// wireFixture builds one materialized registry shared by wire benches.
func wireFixture(b *testing.B) (*synth.Dataset, *registry.Registry, []downloader.Image) {
	b.Helper()
	wireOnce.Do(func() {
		wireData, wireErr = synth.Generate(synth.MaterializeSpec(0.0001))
		if wireErr != nil {
			return
		}
		wireReg = registry.New(blobstore.NewMemory())
		mat, err := synth.Materialize(wireData, wireReg)
		if err != nil {
			wireErr = err
			return
		}
		for i := range wireData.Repos {
			r := &wireData.Repos[i]
			if !r.Downloadable() {
				continue
			}
			rc, _, err := wireReg.Blobs().Get(mat.ManifestDigests[r.Image])
			if err != nil {
				wireErr = err
				return
			}
			raw, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				wireErr = err
				return
			}
			m, err := manifest.Unmarshal(raw)
			if err != nil {
				wireErr = err
				return
			}
			wireImgs = append(wireImgs, downloader.Image{
				Repo: r.Name, Digest: mat.ManifestDigests[r.Image], Manifest: m,
			})
		}
	})
	if wireErr != nil {
		b.Fatal(wireErr)
	}
	return wireData, wireReg, wireImgs
}

// --- component benchmarks ------------------------------------------------

// BenchmarkAnalyzeStoreWorkers measures the wire-path analysis (parallel
// walk + classify + digest, then the serial census fold in layer order)
// across worker counts over the shared materialized fixture. Run with
// -benchmem to see the per-file allocation budget; the walks scale with
// cores, and the fold after them is a small serial share of the call.
func BenchmarkAnalyzeStoreWorkers(b *testing.B) {
	_, reg, imgs := wireFixture(b)
	var blobBytes int64
	for _, d := range reg.Blobs().Digests() {
		if sz, err := reg.Blobs().Stat(d); err == nil {
			blobBytes += sz
		}
	}
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			b.SetBytes(blobBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := analyzer.AnalyzeStore(reg.Blobs(), imgs, workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.Index.Instances() == 0 {
					b.Fatal("empty analysis")
				}
			}
		})
	}
}

// loopback serves an http.Handler for download benchmarks.
type loopback struct {
	url   string
	close func()
}

func newLoopback(b *testing.B, h http.Handler) *loopback {
	b.Helper()
	srv := httptest.NewServer(h)
	return &loopback{url: srv.URL, close: srv.Close}
}

// BenchmarkDownloadStreaming measures the streaming blob path
// (BlobStreamVerifiedContext hashes in flight, PutStream commits through a
// temp file). The payload is deliberately large: B/op stays at
// ~copy-buffer size regardless of layer size.
func BenchmarkDownloadStreaming(b *testing.B) {
	const layerSize = 8 << 20
	payload := make([]byte, layerSize)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	reg := registry.New(blobstore.NewMemory())
	reg.CreateRepo("bench/stream", false)
	dg, err := reg.PushBlob(payload)
	if err != nil {
		b.Fatal(err)
	}
	srv := newLoopback(b, reg)
	defer srv.close()
	c := &registry.Client{Base: srv.url}

	b.Run("streaming", func(b *testing.B) {
		store, err := blobstore.NewDisk(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(layerSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rc, _, err := c.BlobStreamVerifiedContext(context.Background(), "bench/stream", dg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := store.PutStream(dg, rc); err != nil {
				rc.Close()
				b.Fatal(err)
			}
			rc.Close()
			b.StopTimer()
			if err := store.Delete(dg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkFusedPipeline contrasts the two-phase download-then-analyze run
// with the fused pipeline that walks each layer on the transfer worker
// right after it is stored (wall clock approaches max(download, analyze)
// instead of their sum).
func BenchmarkFusedPipeline(b *testing.B) {
	d, reg, _ := wireFixture(b)
	repos := make([]string, 0, len(d.Repos))
	for i := range d.Repos {
		repos = append(repos, d.Repos[i].Name)
	}
	srv := newLoopback(b, reg)
	defer srv.close()

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := blobstore.NewMemory()
			dl := &downloader.Downloader{Client: &registry.Client{Base: srv.url}, Workers: 8, Store: sink}
			res, err := dl.RunContext(context.Background(), repos)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := analyzer.AnalyzeStore(sink, res.Images, 8); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(res.Stats.Bytes)
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := blobstore.NewMemory()
			dl := &downloader.Downloader{Client: &registry.Client{Base: srv.url}, Workers: 8, Store: sink}
			res, err := pipeline.Run(context.Background(), dl, repos)
			if err != nil {
				b.Fatal(err)
			}
			if res.ReWalked != 0 {
				b.Fatalf("%d layers re-walked", res.ReWalked)
			}
			b.SetBytes(res.Download.Stats.Bytes)
		}
	})
}
