package analyzer

import (
	"archive/tar"
	"bytes"
	"context"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/downloader"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/tarutil"
)

func modelResult(t *testing.T) (*synth.Dataset, *Result) {
	t.Helper()
	d, err := synth.Generate(synth.DefaultSpec(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeModel(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

func TestModelProfilesMatchDataset(t *testing.T) {
	d, res := modelResult(t)
	if len(res.Layers) != len(d.Layers) || len(res.Images) != len(d.Images) {
		t.Fatalf("profile counts %d/%d, want %d/%d",
			len(res.Layers), len(res.Images), len(d.Layers), len(d.Images))
	}
	var fls, cls int64
	for i := range res.Layers {
		lp := &res.Layers[i]
		if lp.FLS != d.Layers[i].FLS || lp.CLS != d.Layers[i].CLS {
			t.Fatalf("layer %d size mismatch", i)
		}
		if lp.Refs != d.Layers[i].Refs {
			t.Fatalf("layer %d refs mismatch", i)
		}
		fls += lp.FLS
		cls += lp.CLS
	}
	if fls != d.TotalFLS() || cls != d.TotalCLS() {
		t.Fatal("totals mismatch")
	}
	if got := res.Index.Instances(); got != d.FileInstances() {
		t.Fatalf("index instances = %d, want %d", got, d.FileInstances())
	}
	if got := res.Index.Unique(); got != len(d.Files) {
		t.Fatalf("index unique = %d, want %d", got, len(d.Files))
	}
}

func TestModelImageAggregates(t *testing.T) {
	d, res := modelResult(t)
	for i := range res.Images {
		im := &res.Images[i]
		var cis, fis int64
		for _, l := range d.ImageLayers(synth.ImageID(i)) {
			cis += d.Layers[l].CLS
			fis += d.Layers[l].FLS
		}
		if im.CIS != cis || im.FIS != fis {
			t.Fatalf("image %d CIS/FIS mismatch", i)
		}
		if im.LayerCount() != len(d.ImageLayers(synth.ImageID(i))) {
			t.Fatalf("image %d layer count mismatch", i)
		}
	}
}

func TestModelCompressionRatio(t *testing.T) {
	_, res := modelResult(t)
	sawPositive := false
	for i := range res.Layers {
		r := res.Layers[i].Ratio()
		if res.Layers[i].FLS == 0 {
			if r != 0 {
				t.Fatalf("empty layer ratio = %v", r)
			}
			continue
		}
		// Tiny layers can expand under gzip (CLS has a 32-byte floor);
		// substantial layers must compress.
		if res.Layers[i].FLS > 1024 && r < 1 {
			t.Fatalf("layer %d ratio %v < 1 at FLS %d", i, r, res.Layers[i].FLS)
		}
		sawPositive = true
	}
	if !sawPositive {
		t.Fatal("no layers with positive ratio")
	}
}

func TestModelCrossDupFractions(t *testing.T) {
	_, res := modelResult(t)
	for i := range res.Layers {
		f := res.Layers[i].CrossLayerDupFrac
		if f < 0 || f > 1 {
			t.Fatalf("layer %d cross-layer frac %v", i, f)
		}
	}
	var sum float64
	var n int
	for i := range res.Images {
		f := res.Images[i].CrossImageDupFrac
		if f < 0 || f > 1 {
			t.Fatalf("image %d cross-image frac %v", i, f)
		}
		if res.Images[i].FileCount > 0 {
			sum += f
			n++
		}
	}
	// The paper finds 90% of images have > 99.4% duplicated files; at any
	// scale the mean should be high.
	if n > 0 && sum/float64(n) < 0.5 {
		t.Fatalf("mean cross-image dup frac %v, expected high duplication", sum/float64(n))
	}
}

// TestWireMatchesModel is the repository's strongest integration invariant:
// materializing the dataset to real tar.gz blobs and analyzing the bytes
// must reproduce the model-mode profiles.
func TestWireMatchesModel(t *testing.T) {
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	model, err := AnalyzeModel(d)
	if err != nil {
		t.Fatal(err)
	}

	reg := registry.New(blobstore.NewMemory())
	mat, err := synth.Materialize(d, reg)
	if err != nil {
		t.Fatal(err)
	}

	// Build the downloaded-image list straight from the registry blobs.
	var images []downloader.Image
	for i := range d.Repos {
		r := &d.Repos[i]
		if !r.Downloadable() {
			continue
		}
		md := mat.ManifestDigests[r.Image]
		rc, _, err := reg.Blobs().Get(md)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(rc)
		rc.Close()
		m, err := manifest.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, downloader.Image{Repo: r.Name, Digest: md, Manifest: m})
	}

	wire, err := AnalyzeStore(reg.Blobs(), images, 4)
	if err != nil {
		t.Fatal(err)
	}

	if len(wire.Layers) != len(model.Layers) {
		t.Fatalf("wire layers = %d, model = %d", len(wire.Layers), len(model.Layers))
	}
	if len(wire.Images) != len(model.Images) {
		t.Fatalf("wire images = %d, model = %d", len(wire.Images), len(model.Images))
	}

	// Per-layer structure must match exactly; map via materialized digest.
	wireByDigest := map[string]*LayerProfile{}
	for i := range wire.Layers {
		wireByDigest[wire.Layers[i].Digest.String()] = &wire.Layers[i]
	}
	for i := range d.Layers {
		wp, ok := wireByDigest[mat.LayerDigests[i].String()]
		if !ok {
			t.Fatalf("layer %d missing from wire analysis", i)
		}
		mp := &model.Layers[i]
		if wp.FileCount != mp.FileCount {
			t.Errorf("layer %d file count: wire %d model %d", i, wp.FileCount, mp.FileCount)
		}
		if wp.DirCount != mp.DirCount {
			t.Errorf("layer %d dir count: wire %d model %d", i, wp.DirCount, mp.DirCount)
		}
		if wp.MaxDepth != mp.MaxDepth {
			t.Errorf("layer %d max depth: wire %d model %d", i, wp.MaxDepth, mp.MaxDepth)
		}
		if wp.Refs != mp.Refs {
			t.Errorf("layer %d refs: wire %d model %d", i, wp.Refs, mp.Refs)
		}
		if wp.FLS != mp.FLS {
			t.Errorf("layer %d FLS: wire %d model %d", i, wp.FLS, mp.FLS)
		}
	}

	// Dedup structure: identical instance and unique counts, identical
	// count ratio; capacity ratio identical because wire sizes equal model
	// sizes (generation is size-exact above the magic minimum).
	mr, wr := model.Index.Ratios(), wire.Index.Ratios()
	if wr.TotalFiles != mr.TotalFiles || wr.UniqueFiles != mr.UniqueFiles {
		t.Fatalf("dedup counts: wire %d/%d, model %d/%d",
			wr.TotalFiles, wr.UniqueFiles, mr.TotalFiles, mr.UniqueFiles)
	}
	if wr.TotalBytes != mr.TotalBytes || wr.UniqueBytes != mr.UniqueBytes {
		t.Fatalf("dedup bytes: wire %d/%d, model %d/%d",
			wr.TotalBytes, wr.UniqueBytes, mr.TotalBytes, mr.UniqueBytes)
	}
}

// wireImages materializes a synthetic registry and returns its blob store
// plus the downloaded-image list, as a two-phase download would produce
// them.
func wireImages(t *testing.T, scale float64) (blobstore.Store, []downloader.Image) {
	t.Helper()
	d, err := synth.Generate(synth.MaterializeSpec(scale))
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(blobstore.NewMemory())
	mat, err := synth.Materialize(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	var images []downloader.Image
	for i := range d.Repos {
		r := &d.Repos[i]
		if !r.Downloadable() {
			continue
		}
		md := mat.ManifestDigests[r.Image]
		rc, _, err := reg.Blobs().Get(md)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(rc)
		rc.Close()
		m, err := manifest.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, downloader.Image{Repo: r.Name, Digest: md, Manifest: m})
	}
	return reg.Blobs(), images
}

// TestAnalyzeStoreWorkerInvariance asserts the streaming pipeline produces
// bit-identical Results at every worker count: same layer order and
// profiles, same census, same file-size quantiles.
func TestAnalyzeStoreWorkerInvariance(t *testing.T) {
	store, images := wireImages(t, 0.0001)
	base, err := AnalyzeStore(store, images, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Layers) == 0 || base.Index.Instances() == 0 {
		t.Fatal("fixture produced an empty analysis; test is vacuous")
	}
	for _, workers := range []int{2, 8} {
		res, err := AnalyzeStore(store, images, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Layers, base.Layers) {
			t.Fatalf("workers=%d: layer profiles diverged", workers)
		}
		if !reflect.DeepEqual(res.Images, base.Images) {
			t.Fatalf("workers=%d: image profiles diverged", workers)
		}
		if got, want := res.Index.Ratios(), base.Index.Ratios(); got != want {
			t.Fatalf("workers=%d: dedup ratios %+v, want %+v", workers, got, want)
		}
		if got, want := res.Index.MultiCopyFrac(), base.Index.MultiCopyFrac(); got != want {
			t.Fatalf("workers=%d: multi-copy frac %v, want %v", workers, got, want)
		}
		_, gotMax, gotEmpty := res.Index.RepeatCDF()
		_, wantMax, wantEmpty := base.Index.RepeatCDF()
		if gotMax != wantMax || gotEmpty != wantEmpty {
			t.Fatalf("workers=%d: repeat max %d/%v, want %d/%v", workers, gotMax, gotEmpty, wantMax, wantEmpty)
		}
		if got, want := res.Index.SizeQuantiles(0.5, 0.9), base.Index.SizeQuantiles(0.5, 0.9); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: file-size p50/p90 = %v, want %v", workers, got, want)
		}
	}
}

// TestAnalyzeWalkedSharesWalks runs two analyses at once whose walks are
// looked up in one map, as two live snapshots do: both must equal AnalyzeStore, and the
// walks must come out byte-for-byte as they went in (the race detector
// catches a write; the comparison catches an in-place sort).
func TestAnalyzeWalkedSharesWalks(t *testing.T) {
	store, images := wireImages(t, 0.0001)
	want, err := AnalyzeStore(store, images, 2)
	if err != nil {
		t.Fatal(err)
	}
	walked := make(map[digest.Digest]*WalkedLayer)
	before := make(map[digest.Digest]WalkedLayer)
	for _, img := range images {
		for _, ld := range img.Manifest.LayerDigests() {
			if walked[ld] != nil {
				continue
			}
			wl, err := WalkStored(store, ld)
			if err != nil {
				t.Fatal(err)
			}
			walked[ld] = wl
			before[ld] = WalkedLayer{profile: wl.profile, files: slices.Clone(wl.files)}
		}
	}

	results := make([]*Result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := AnalyzeWalks(context.Background(), images, func(ld digest.Digest) (*WalkedLayer, error) {
				return walked[ld], nil
			}, 4)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, res := range results {
		if !reflect.DeepEqual(res.Layers, want.Layers) || !reflect.DeepEqual(res.Images, want.Images) ||
			!slices.Equal(res.Index.SizeQuantiles(0.5, 0.9), want.Index.SizeQuantiles(0.5, 0.9)) ||
			res.Index.Ratios() != want.Index.Ratios() {
			t.Fatalf("analysis %d over shared walks differs from AnalyzeStore", i)
		}
	}
	for ld, wl := range walked {
		if !reflect.DeepEqual(*wl, before[ld]) {
			t.Fatalf("walk of %s was written by an analysis", ld.Short())
		}
	}
}

// countingStore wraps a Store and counts Get calls per digest.
type countingStore struct {
	blobstore.Store
	mu    sync.Mutex
	gets  map[digest.Digest]int
	total atomic.Int64
}

func newCountingStore(s blobstore.Store) *countingStore {
	return &countingStore{Store: s, gets: map[digest.Digest]int{}}
}

func (c *countingStore) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	c.mu.Lock()
	c.gets[d]++
	c.mu.Unlock()
	c.total.Add(1)
	return c.Store.Get(d)
}

// TestAnalyzeStorePlainTarFetchOnce builds an image whose layers are plain
// (uncompressed) tarballs and asserts the fallback path fetches every blob
// exactly once — the format is sniffed, not discovered by a failed
// decompress-and-refetch.
func TestAnalyzeStorePlainTarFetchOnce(t *testing.T) {
	mem := blobstore.NewMemory()
	var layers []manifest.Descriptor
	for l := 0; l < 3; l++ {
		var buf bytes.Buffer
		b := tarutil.NewBuilder(&buf)
		if err := b.Dir("usr"); err != nil {
			t.Fatal(err)
		}
		if err := b.File("usr/app.bin", bytes.Repeat([]byte{byte(l + 1)}, 100*(l+1))); err != nil {
			t.Fatal(err)
		}
		if err := b.File("readme.txt", []byte("plain tar layer")); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		ld, err := mem.Put(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, manifest.Descriptor{
			MediaType: manifest.MediaTypeLayer, Size: int64(buf.Len()), Digest: ld,
		})
	}
	cfg, err := mem.Put([]byte(`{"architecture":"amd64","os":"linux"}`))
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.New(manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: 1, Digest: cfg}, layers)
	if err != nil {
		t.Fatal(err)
	}
	store := newCountingStore(mem)
	res, err := AnalyzeStore(store, []downloader.Image{{Repo: "t/plain", Manifest: m}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(res.Layers))
	}
	for i := range res.Layers {
		if res.Layers[i].FileCount != 2 || res.Layers[i].DirCount != 1 {
			t.Fatalf("layer %d profile: %+v", i, res.Layers[i])
		}
		// Plain tar: blob size (CLS) is at least the contained bytes.
		if res.Layers[i].CLS < res.Layers[i].FLS {
			t.Fatalf("layer %d CLS %d < FLS %d", i, res.Layers[i].CLS, res.Layers[i].FLS)
		}
	}
	for _, l := range layers {
		if n := store.gets[l.Digest]; n != 1 {
			t.Fatalf("layer %s fetched %d times, want exactly 1", l.Digest.Short(), n)
		}
	}
}

// TestAnalyzeStoreSkipsGlobalHeader: a layer written by `git archive`
// opens with a PAX global header. It is not a file, so it counts in
// neither the layer's nor the image's file count nor the census.
func TestAnalyzeStoreSkipsGlobalHeader(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	hdrs := []*tar.Header{
		{Typeflag: tar.TypeXGlobalHeader, Name: "pax_global_header", PAXRecords: map[string]string{"comment": "4b825dc642cb6eb9a060e54bf8d69288fbee4904"}},
		{Typeflag: tar.TypeDir, Name: "src/", Mode: 0o755},
		{Typeflag: tar.TypeReg, Name: "src/main.go", Mode: 0o644, Size: 12},
		{Typeflag: tar.TypeReg, Name: "README", Mode: 0o644, Size: 12},
	}
	for _, h := range hdrs {
		if err := tw.WriteHeader(h); err != nil {
			t.Fatal(err)
		}
		tw.Write(make([]byte, h.Size))
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var names []string
	l := tarutil.OpenLayer(bytes.NewReader(buf.Bytes()))
	err := l.Walk(func(e tarutil.Entry, _ io.Reader) error {
		names = append(names, e.Name)
		return nil
	})
	l.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"src/", "src/main.go", "README"}; !slices.Equal(names, want) {
		t.Fatalf("walked %q, want %q", names, want)
	}

	mem := blobstore.NewMemory()
	ld, err := mem.Put(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := mem.Put([]byte(`{"architecture":"amd64","os":"linux"}`))
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.New(manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: 1, Digest: cfg},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(buf.Len()), Digest: ld}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeStore(mem, []downloader.Image{{Repo: "t/git-archive", Manifest: m}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l := res.Layers[0]; l.FileCount != 2 || l.DirCount != 1 {
		t.Fatalf("layer profile %+v, want 2 files and 1 directory", l)
	}
	if n := res.Images[0].FileCount; n != 2 {
		t.Fatalf("image file count %d, want 2", n)
	}
	if n := res.Index.Ratios().TotalFiles; n != 2 {
		t.Fatalf("census holds %d file instances, want 2", n)
	}
}

// TestAnalyzeStoreCancelsOnError asserts the first walk error cancels the
// remaining work instead of draining the whole layer queue.
func TestAnalyzeStoreCancelsOnError(t *testing.T) {
	// A manifest of many layers, none of which exist in the store.
	var layers []manifest.Descriptor
	for l := 0; l < 64; l++ {
		layers = append(layers, manifest.Descriptor{
			MediaType: manifest.MediaTypeLayer, Size: 1,
			Digest: digest.FromUint64(uint64(l)),
		})
	}
	m, err := manifest.New(manifest.Descriptor{
		MediaType: manifest.MediaTypeConfig, Size: 1, Digest: digest.FromUint64(999),
	}, layers)
	if err != nil {
		t.Fatal(err)
	}
	store := newCountingStore(blobstore.NewMemory())
	if _, err := AnalyzeStore(store, []downloader.Image{{Repo: "t/missing", Manifest: m}}, 1); err == nil {
		t.Fatal("missing blobs not reported")
	}
	// workers=1: the single worker must stop at the first failure; the
	// producer may have one more item in flight.
	if n := store.total.Load(); n > 2 {
		t.Fatalf("store fetched %d blobs after first error, want ≤ 2", n)
	}
}

func TestAnalyzeStoreEmptyImages(t *testing.T) {
	res, err := AnalyzeStore(blobstore.NewMemory(), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != 0 || len(res.Images) != 0 {
		t.Fatal("empty analysis nonempty")
	}
}

func TestAnalyzeStoreMissingBlob(t *testing.T) {
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(blobstore.NewMemory())
	mat, err := synth.Materialize(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Reference a manifest whose layer blob lives in a DIFFERENT store.
	var img downloader.Image
	for i := range d.Repos {
		if d.Repos[i].Downloadable() {
			md := mat.ManifestDigests[d.Repos[i].Image]
			rc, _, _ := reg.Blobs().Get(md)
			raw, _ := io.ReadAll(rc)
			rc.Close()
			m, _ := manifest.Unmarshal(raw)
			img = downloader.Image{Repo: d.Repos[i].Name, Digest: md, Manifest: m}
			break
		}
	}
	if _, err := AnalyzeStore(blobstore.NewMemory(), []downloader.Image{img}, 2); err == nil {
		t.Fatal("missing blobs not reported")
	}
}

// TestAnalyzeStoreAllocs bounds the heap one AnalyzeStore call allocates
// over the scale-0.0001 fixture at one worker. A census pre-sized at 96
// unique files per layer before any walk finished, split over 64 shard
// maps, cost 1.93 MB per call; one map sized from the walked instance
// count brought it to 0.59 MB, and one that grows from empty, with no
// file-size digest beside it, to 0.53 MB.
func TestAnalyzeStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	store, images := wireImages(t, 0.0001)
	if _, err := AnalyzeStore(store, images, 1); err != nil { // warm the walk pools
		t.Fatal(err)
	}
	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if _, err := AnalyzeStore(store, images, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const limit = 1_000_000
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= limit {
		t.Fatalf("AnalyzeStore allocates %d B per call, want < %d", perCall, limit)
	}
}
