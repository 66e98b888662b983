// Benchmarks regenerating every table and figure of the paper plus the
// ablations called out in DESIGN.md §6. Figure benchmarks measure the
// figure computation over a cached analysis (the expensive generation and
// profiling are shared fixtures); pipeline benchmarks measure the end-to-
// end paths; ablation benchmarks quantify the design choices.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"archive/tar"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro"
	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/dedup"
	"repro/internal/dedupstore"
	"repro/internal/downloader"
	"repro/internal/manifest"
	"repro/internal/pipeline"
	"repro/internal/pullsim"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/synth"
)

// --- shared fixtures -----------------------------------------------------

var (
	modelOnce sync.Once
	modelRes  *repro.Result
	modelErr  error

	wireOnce sync.Once
	wireData *synth.Dataset
	wireReg  *registry.Registry
	wireImgs []downloader.Image
	wireErr  error
)

// modelFixture builds one model-mode study shared by all figure benches.
func modelFixture(b *testing.B) *repro.Result {
	b.Helper()
	modelOnce.Do(func() {
		modelRes, modelErr = repro.Run(repro.Options{Scale: 0.0005})
	})
	if modelErr != nil {
		b.Fatal(modelErr)
	}
	return modelRes
}

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

// benchFigure runs one figure builder against the shared model source.
func benchFigure(b *testing.B, build func(*report.Source) (report.Figure, bool)) {
	res := modelFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, ok := build(res.Source)
		if !ok || len(fig.Metrics) == 0 {
			b.Fatal("figure did not build")
		}
	}
}

// --- one benchmark per table and figure ----------------------------------

func BenchmarkFig3_LayerSizes(b *testing.B)          { benchFigure(b, report.Fig3) }
func BenchmarkFig4_CompressionRatio(b *testing.B)    { benchFigure(b, report.Fig4) }
func BenchmarkFig5_FilesPerLayer(b *testing.B)       { benchFigure(b, report.Fig5) }
func BenchmarkFig6_DirsPerLayer(b *testing.B)        { benchFigure(b, report.Fig6) }
func BenchmarkFig7_DirDepth(b *testing.B)            { benchFigure(b, report.Fig7) }
func BenchmarkFig8_Popularity(b *testing.B)          { benchFigure(b, report.Fig8) }
func BenchmarkFig9_ImageSizes(b *testing.B)          { benchFigure(b, report.Fig9) }
func BenchmarkFig10_LayerCount(b *testing.B)         { benchFigure(b, report.Fig10) }
func BenchmarkFig11_DirsPerImage(b *testing.B)       { benchFigure(b, report.Fig11) }
func BenchmarkFig12_FilesPerImage(b *testing.B)      { benchFigure(b, report.Fig12) }
func BenchmarkFig13_Taxonomy(b *testing.B)           { benchFigure(b, report.Fig13) }
func BenchmarkFig14_TypeGroupShares(b *testing.B)    { benchFigure(b, report.Fig14) }
func BenchmarkFig15_MeanSizeByGroup(b *testing.B)    { benchFigure(b, report.Fig15) }
func BenchmarkFig16_EOLBreakdown(b *testing.B)       { benchFigure(b, report.Fig16) }
func BenchmarkFig17_SourceBreakdown(b *testing.B)    { benchFigure(b, report.Fig17) }
func BenchmarkFig18_ScriptBreakdown(b *testing.B)    { benchFigure(b, report.Fig18) }
func BenchmarkFig19_DocBreakdown(b *testing.B)       { benchFigure(b, report.Fig19) }
func BenchmarkFig20_ArchiveBreakdown(b *testing.B)   { benchFigure(b, report.Fig20) }
func BenchmarkFig21_DatabaseBreakdown(b *testing.B)  { benchFigure(b, report.Fig21) }
func BenchmarkFig22_ImageDataBreakdown(b *testing.B) { benchFigure(b, report.Fig22) }
func BenchmarkFig23_LayerSharing(b *testing.B)       { benchFigure(b, report.Fig23) }
func BenchmarkFig24_FileRepeats(b *testing.B)        { benchFigure(b, report.Fig24) }
func BenchmarkFig25_DedupGrowth(b *testing.B)        { benchFigure(b, report.Fig25) }
func BenchmarkFig26_CrossDuplicates(b *testing.B)    { benchFigure(b, report.Fig26) }
func BenchmarkFig27_DedupByGroup(b *testing.B)       { benchFigure(b, report.Fig27) }
func BenchmarkFig28_DedupEOL(b *testing.B)           { benchFigure(b, report.Fig28) }
func BenchmarkFig29_DedupSource(b *testing.B)        { benchFigure(b, report.Fig29) }

// BenchmarkTabM_Methodology measures the §III crawl+download accounting
// over the full wire pipeline (crawl, download, classify failures).
func BenchmarkTabM_Methodology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := repro.Run(repro.Options{Scale: 0.00005, Workers: 8, Topology: &repro.Topology{}})
		if err != nil {
			b.Fatal(err)
		}
		if res.Crawl == nil {
			b.Fatal("no crawl result")
		}
	}
}

// --- end-to-end pipelines -------------------------------------------------

func BenchmarkPipelineModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Run(repro.Options{Scale: 0.0002}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineWire(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Run(repro.Options{Scale: 0.0001, Workers: 8, Topology: &repro.Topology{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeStoreWorkers measures the streaming wire-path analysis
// (walk + classify + digest + sharded dedup census) across worker counts
// over the shared materialized fixture. Run with -benchmem to see the
// per-file allocation budget; throughput scales with cores because the
// census is lock-striped and there is no post-walk serial feed.
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

// --- ablations (DESIGN.md §6) ----------------------------------------------

// Ablation 1: model-mode analysis versus walking real tarball bytes.
func BenchmarkAblation_ModelVsTarball(b *testing.B) {
	d, reg, imgs := wireFixture(b)
	b.Run("model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analyzer.AnalyzeModel(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tarball", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analyzer.AnalyzeStore(reg.Blobs(), imgs, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 2: streaming tar walk versus extract-to-disk-then-walk (the
// docker-pull overhead the paper's downloader avoids, §III-B).
func BenchmarkAblation_StreamVsExtract(b *testing.B) {
	d, reg, _ := wireFixture(b)
	// Pick the largest layer blob for a meaningful comparison.
	var blob []byte
	for i := range d.Layers {
		raw, err := synth.RenderLayer(d, synth.LayerID(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(raw) > len(blob) {
			blob = raw
		}
	}
	_ = reg
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			n, err := streamWalk(blob)
			if err != nil || n == 0 {
				b.Fatalf("stream walk: n=%d err=%v", n, err)
			}
		}
	})
	b.Run("extract", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			n, err := extractWalk(b, blob)
			if err != nil || n == 0 {
				b.Fatalf("extract walk: n=%d err=%v", n, err)
			}
		}
	})
}

func streamWalk(blob []byte) (int, error) {
	zr, err := gzip.NewReader(readerOf(blob))
	if err != nil {
		return 0, err
	}
	defer zr.Close()
	tr := tar.NewReader(zr)
	n := 0
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if hdr.Typeflag == tar.TypeReg {
			if _, err := io.Copy(io.Discard, tr); err != nil {
				return n, err
			}
			n++
		}
	}
}

func extractWalk(b *testing.B, blob []byte) (int, error) {
	dir := b.TempDir()
	zr, err := gzip.NewReader(readerOf(blob))
	if err != nil {
		return 0, err
	}
	defer zr.Close()
	tr := tar.NewReader(zr)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		path := filepath.Join(dir, filepath.FromSlash(hdr.Name))
		switch hdr.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return 0, err
			}
		case tar.TypeReg:
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return 0, err
			}
			f, err := os.Create(path)
			if err != nil {
				return 0, err
			}
			if _, err := io.Copy(f, tr); err != nil {
				f.Close()
				return 0, err
			}
			f.Close()
		}
	}
	// Now traverse the extracted tree, as docker-pull-based analysis must.
	n := 0
	err = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n++
		}
		return nil
	})
	return n, err
}

type sliceReader struct {
	data []byte
	off  int
}

func readerOf(b []byte) *sliceReader { return &sliceReader{data: b} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// Ablation 3: pre-sized versus incrementally grown dedup index.
func BenchmarkAblation_IndexPresize(b *testing.B) {
	res := modelFixture(b)
	d := res.Dataset
	feed := func(idx *dedup.Index) error {
		for i := range d.Layers {
			if err := idx.BeginLayer(d.Layers[i].Refs); err != nil {
				return err
			}
			for _, f := range d.LayerFiles(synth.LayerID(i)) {
				if err := idx.Observe(uint64(f), d.Files[f].Size, d.Files[f].Type); err != nil {
					return err
				}
			}
			if err := idx.EndLayer(); err != nil {
				return err
			}
		}
		return idx.Seal()
	}
	b.Run("grow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := feed(dedup.NewIndex()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("presized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := feed(dedup.NewIndexSized(len(d.Files))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 4: the unique-layer download optimization versus naive
// per-image fetching (quantifies "we only download unique layers").
func BenchmarkAblation_LayerDedup(b *testing.B) {
	d, reg, _ := wireFixture(b)
	repos := make([]string, 0, len(d.Repos))
	for i := range d.Repos {
		repos = append(repos, d.Repos[i].Name)
	}
	run := func(b *testing.B, naive bool) {
		srv := newLoopback(b, reg)
		defer srv.close()
		for i := 0; i < b.N; i++ {
			dl := &downloader.Downloader{
				Client:       &registry.Client{Base: srv.url},
				Workers:      8,
				NoLayerDedup: naive,
			}
			res, err := dl.Run(repos)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(res.Stats.Bytes)
		}
	}
	b.Run("unique-layers", func(b *testing.B) { run(b, false) })
	b.Run("naive", func(b *testing.B) { run(b, true) })
}

// --- extensions -------------------------------------------------------------

// BenchmarkExtension_DedupStoreIngest measures file-level deduplicating
// ingestion of a whole materialized hub (the §VI storage backend).
func BenchmarkExtension_DedupStoreIngest(b *testing.B) {
	d, _, _ := wireFixture(b)
	blobs := make([][]byte, len(d.Layers))
	var total int64
	for i := range d.Layers {
		blob, err := synth.RenderLayer(d, synth.LayerID(i))
		if err != nil {
			b.Fatal(err)
		}
		blobs[i] = blob
		total += int64(len(blob))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dedupstore.New(dedupstore.NewMemoryPool(0))
		for _, blob := range blobs {
			if _, err := s.Put(blob); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtension_PullSim measures a full policy sweep over the model
// fixture's layer population.
func BenchmarkExtension_PullSim(b *testing.B) {
	res := modelFixture(b)
	layers := make([]pullsim.LayerInfo, len(res.Analysis.Layers))
	for i := range res.Analysis.Layers {
		layers[i] = pullsim.LayerInfo{CLS: res.Analysis.Layers[i].CLS, FLS: res.Analysis.Layers[i].FLS}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pullsim.BestThreshold(layers, []int64{64 << 10, 1 << 20, 4 << 20}, pullsim.DefaultLink()); err != nil {
			b.Fatal(err)
		}
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

// Ablation 5: the paper's small-layer uncompressed storage policy — time
// to pull-and-walk the whole dataset when small layers skip gzip.
func BenchmarkAblation_CompressionThreshold(b *testing.B) {
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, threshold int64) {
		reg := registry.New(blobstore.NewMemory())
		mat, err := synth.MaterializeWithPolicy(d, reg, threshold)
		if err != nil {
			b.Fatal(err)
		}
		var imgs []downloader.Image
		for i := range d.Repos {
			r := &d.Repos[i]
			if !r.Downloadable() {
				continue
			}
			rc, _, err := reg.Blobs().Get(mat.ManifestDigests[r.Image])
			if err != nil {
				b.Fatal(err)
			}
			raw, _ := io.ReadAll(rc)
			rc.Close()
			m, err := manifest.Unmarshal(raw)
			if err != nil {
				b.Fatal(err)
			}
			imgs = append(imgs, downloader.Image{Repo: r.Name, Digest: mat.ManifestDigests[r.Image], Manifest: m})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := analyzer.AnalyzeStore(reg.Blobs(), imgs, 8); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("all-gzip", func(b *testing.B) { run(b, 0) })
	b.Run("small-uncompressed", func(b *testing.B) { run(b, 64<<10) })
}

// --- streaming download path (ISSUE 3) --------------------------------------

// BenchmarkDownloadStreaming contrasts the buffered blob path (BlobVerified
// materializes the whole layer, PutVerified copies it) with the streaming
// path (BlobStreamVerified hashes in flight, PutStream commits through a
// temp file). The payload is deliberately large: streaming B/op stays at
// ~copy-buffer size regardless of layer size, buffered B/op tracks the
// layer.
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

	b.Run("buffered", func(b *testing.B) {
		store, err := blobstore.NewDisk(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(layerSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			content, err := c.BlobVerified("bench/stream", dg)
			if err != nil {
				b.Fatal(err)
			}
			if err := store.PutVerified(dg, content); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := store.Delete(dg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("streaming", func(b *testing.B) {
		store, err := blobstore.NewDisk(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(layerSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rc, _, err := c.BlobStreamVerified("bench/stream", dg)
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
// with the fused pipeline that walks each layer while it streams off the
// wire (wall clock approaches max(download, analyze) instead of their sum).
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
			res, err := dl.Run(repos)
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
