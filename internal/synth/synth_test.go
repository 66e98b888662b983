package synth

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/filetype"
	"repro/internal/stats"
	"repro/internal/tarutil"
)

// testScale generates ~460 repos, ~1,800 layers, ~5M file instances: big
// enough for distribution shapes, small enough for the test cadence.
const testScale = 0.001

// tinyScale is for structural tests that don't need statistics.
const tinyScale = 0.0002

var datasetCache = map[float64]*Dataset{}

func testDataset(t testing.TB, scale float64) *Dataset {
	t.Helper()
	if d, ok := datasetCache[scale]; ok {
		return d
	}
	d, err := Generate(DefaultSpec(scale))
	if err != nil {
		t.Fatalf("Generate(scale=%v): %v", scale, err)
	}
	datasetCache[scale] = d
	return d
}

func TestCounts(t *testing.T) {
	spec := DefaultSpec(1.0)
	c := spec.Counts()
	if c.Repos != PaperRepos {
		t.Errorf("Repos = %d, want %d", c.Repos, PaperRepos)
	}
	if raw := int(float64(c.Repos)*spec.CrawlDupFactor + 0.5); math.Abs(float64(raw-PaperCrawlRawEntries)) > 2 {
		t.Errorf("raw crawl entries = %d, want %d", raw, PaperCrawlRawEntries)
	}
	// The paper's downloaded+failed total (466,703) exceeds its distinct
	// repository count (457,627) — an internal inconsistency of the paper
	// (likely multi-attempt accounting). We keep the repo count exact and
	// reproduce the failure *fraction*, so absolute counts land ~2% low.
	downloaded := c.Repos - c.ImagesFailed // one latest-tag attempt per repository
	failFrac := float64(c.ImagesFailed) / float64(c.Repos)
	wantFrac := float64(PaperImagesFailed) / float64(PaperImagesFailed+PaperImagesDownloaded)
	if math.Abs(failFrac-wantFrac) > 0.005 {
		t.Errorf("failure fraction = %v, want %v", failFrac, wantFrac)
	}
	if rel := math.Abs(float64(downloaded-PaperImagesDownloaded)) / PaperImagesDownloaded; rel > 0.03 {
		t.Errorf("images downloaded = %d, want within 3%% of %d", downloaded, PaperImagesDownloaded)
	}
	authFrac := float64(c.AuthFailures) / float64(c.ImagesFailed)
	if math.Abs(authFrac-PaperAuthFailFrac) > 0.01 {
		t.Errorf("auth failure fraction = %v, want %v", authFrac, PaperAuthFailFrac)
	}
}

func TestCountsMinimumFloor(t *testing.T) {
	c := DefaultSpec(1e-9).Counts()
	if c.Repos < 10 {
		t.Fatalf("tiny scale produced %d repos, want >= 10", c.Repos)
	}
	if c.Repos-c.ImagesFailed < 1 {
		t.Fatal("tiny scale produced no downloadable images")
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	if _, err := Generate(Spec{Scale: 0}); err == nil {
		t.Error("zero scale accepted")
	}
	bad := DefaultSpec(tinyScale)
	bad.TypeMix = nil
	if _, err := Generate(bad); err == nil {
		t.Error("empty TypeMix accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultSpec(tinyScale))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultSpec(tinyScale))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Layers) != len(b.Layers) || len(a.Files) != len(b.Files) ||
		a.TotalFLS() != b.TotalFLS() || a.TotalCLS() != b.TotalCLS() {
		t.Fatal("same seed produced different datasets")
	}
	for i := range a.Repos {
		if a.Repos[i] != b.Repos[i] {
			t.Fatalf("repo %d differs", i)
		}
	}
}

func TestGenerateSeedChangesDataset(t *testing.T) {
	spec := DefaultSpec(tinyScale)
	a, _ := Generate(spec)
	spec.Seed++
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalFLS() == b.TotalFLS() && a.TotalCLS() == b.TotalCLS() {
		t.Fatal("different seeds produced identical totals (suspicious)")
	}
}

func TestStructuralInvariants(t *testing.T) {
	d := testDataset(t, testScale)
	// Validate ran inside Generate; re-run to catch accidental mutation.
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Layers[d.EmptyLayer].FileCount() != 0 {
		t.Error("global empty layer has files")
	}
	if d.Layers[d.EmptyLayer].FLS != 0 {
		t.Error("global empty layer has FLS > 0")
	}
	if d.Files[d.EmptyFile].Size != 0 || d.Files[d.EmptyFile].Type != filetype.EmptyFile {
		t.Error("canonical empty file wrong")
	}
}

func TestEmptyFileHasMaxRepeat(t *testing.T) {
	d := testDataset(t, testScale)
	max := d.Files[d.EmptyFile].Repeat
	for i, f := range d.Files {
		if f.Repeat > max {
			t.Fatalf("file %d repeat %d exceeds empty file's %d", i, f.Repeat, max)
		}
	}
	// Only one zero-size unique file may exist (all empties share content).
	zeros := 0
	for _, f := range d.Files {
		if f.Size == 0 {
			zeros++
		}
	}
	if zeros != 1 {
		t.Fatalf("%d zero-size unique files, want exactly 1", zeros)
	}
}

// --- Calibration: layer sharing (Fig. 23, §V-A) ---

func TestCalibrationLayerSharing(t *testing.T) {
	d := testDataset(t, testScale)
	refs := &stats.CDF{}
	for i := range d.Layers {
		refs.AddInt(int64(d.Layers[i].Refs))
	}
	single := refs.FractionEqual(1)
	if single < 0.82 || single > 0.95 {
		t.Errorf("layers referenced once = %.3f, want ~0.90", single)
	}
	duo := refs.FractionEqual(2)
	if duo < 0.02 || duo > 0.10 {
		t.Errorf("layers referenced twice = %.3f, want ~0.05", duo)
	}
	emptyRefs := float64(d.Layers[d.EmptyLayer].Refs) / float64(len(d.Images))
	if emptyRefs < 0.40 || emptyRefs > 0.62 {
		t.Errorf("empty layer referenced by %.2f of images, want ~0.52", emptyRefs)
	}
	// Unique layers per image ratio (1,792,609/355,319 ≈ 5.04).
	perImage := float64(len(d.Layers)) / float64(len(d.Images))
	if perImage < 3.8 || perImage > 6.5 {
		t.Errorf("layers/image = %.2f, want ~5.04", perImage)
	}
}

// --- Calibration: files, dirs, depth per layer (Figs. 5–7) ---

func TestCalibrationFilesPerLayer(t *testing.T) {
	d := testDataset(t, testScale)
	c := &stats.CDF{}
	var files int
	for i := range d.Layers {
		c.AddInt(int64(d.Layers[i].FileCount()))
		files += d.Layers[i].FileCount()
	}
	if zero := c.FractionEqual(0); zero < 0.04 || zero > 0.11 {
		t.Errorf("empty layers = %.3f, want ~0.07", zero)
	}
	if one := c.FractionEqual(1); one < 0.20 || one > 0.34 {
		t.Errorf("single-file layers = %.3f, want ~0.27", one)
	}
	if med := c.Median(); med < 5 || med > 90 {
		t.Errorf("median files/layer = %v, want ~30", med)
	}
	// The joint size-class structure (needed for the Fig. 9/11/12 image
	// medians) trades the layer p90 down from the paper's 7,410; it must
	// stay within the same order of magnitude.
	if p90 := c.P(90); p90 < 1200 || p90 > 15000 {
		t.Errorf("p90 files/layer = %v, want same order as 7410", p90)
	}
	// Mean files/layer drives the global instance total (5.28 B / 1.79 M ≈
	// 2,945 at full scale).
	if mean := float64(files) / float64(len(d.Layers)); mean < 1200 || mean > 6000 {
		t.Errorf("mean files/layer = %v, want ~2945", mean)
	}
}

func TestCalibrationDirsAndDepth(t *testing.T) {
	d := testDataset(t, testScale)
	dirs := &stats.CDF{}
	depth := &stats.CDF{}
	depthHist := map[int32]int{}
	for i := range d.Layers {
		l := &d.Layers[i]
		dirs.AddInt(int64(l.DirCount))
		if l.FileCount() > 0 {
			depth.AddInt(int64(l.MaxDepth))
			depthHist[l.MaxDepth]++
		}
	}
	if med := dirs.Median(); med < 2 || med > 40 {
		t.Errorf("median dirs/layer = %v, want ~11", med)
	}
	if p90 := dirs.P(90); p90 < 200 || p90 > 3500 {
		t.Errorf("p90 dirs/layer = %v, want ~826", p90)
	}
	if med := depth.Median(); med < 2 || med > 5 {
		t.Errorf("median depth = %v, want <4", med)
	}
	if p90 := depth.P(90); p90 < 6 || p90 > 12 {
		t.Errorf("p90 depth = %v, want <10", p90)
	}
	// Mode must be 3 (Fig. 7(b)).
	best, bestN := int32(0), 0
	for dep, n := range depthHist {
		if n > bestN {
			best, bestN = dep, n
		}
	}
	if best != 3 {
		t.Errorf("modal depth = %d, want 3", best)
	}
}

// --- Calibration: compression (Fig. 4) ---

func TestCalibrationCompression(t *testing.T) {
	d := testDataset(t, testScale)
	r := &stats.CDF{}
	for i := range d.Layers {
		l := &d.Layers[i]
		if l.FLS > 0 {
			r.Add(float64(l.FLS) / float64(l.CLS))
		}
	}
	if med := r.Median(); med < 2.1 || med > 3.1 {
		t.Errorf("median compression ratio = %v, want 2.6", med)
	}
	if p90 := r.P(90); p90 < 3.2 || p90 > 5.0 {
		t.Errorf("p90 compression ratio = %v, want ~4", p90)
	}
	if max := r.Max(); max > DefaultSpec(1).CompressionMax+1 {
		t.Errorf("max compression ratio = %v, above spec cap", max)
	}
}

// --- Calibration: layer count per image (Fig. 10) ---

func TestCalibrationLayerCounts(t *testing.T) {
	d := testDataset(t, testScale)
	c := &stats.CDF{}
	hist := map[int]int{}
	for i := range d.Images {
		k := d.Images[i].LayerCount()
		c.AddInt(int64(k))
		hist[k]++
	}
	if med := c.Median(); med < 6 || med > 11 {
		t.Errorf("median layers/image = %v, want ~8", med)
	}
	if p90 := c.P(90); p90 < 13 || p90 > 24 {
		t.Errorf("p90 layers/image = %v, want ~18", p90)
	}
	if max := c.Max(); max > 121 {
		t.Errorf("max layers/image = %v, want <= 120", max)
	}
}

// --- Calibration: popularity (Fig. 8) ---

func TestCalibrationPulls(t *testing.T) {
	d := testDataset(t, testScale)
	p := &stats.CDF{}
	for i := range d.Repos {
		p.AddInt(d.Repos[i].Pulls)
	}
	if med := p.Median(); med < 25 || med > 60 {
		t.Errorf("median pulls = %v, want ~40", med)
	}
	if p90 := p.P(90); p90 < 180 || p90 > 600 {
		t.Errorf("p90 pulls = %v, want ~333", p90)
	}
	if max := p.Max(); max != 650_000_000 {
		t.Errorf("max pulls = %v, want 650M (nginx)", max)
	}
	// The named top repositories must exist with pinned pull counts.
	found := 0
	for i := range d.Repos {
		if d.Repos[i].Name == "nginx" && d.Repos[i].Pulls == 650_000_000 {
			found++
		}
		if d.Repos[i].Name == "redis" && d.Repos[i].Pulls == 264_000_000 {
			found++
		}
	}
	if found != 2 {
		t.Errorf("pinned top repos missing (found %d of 2)", found)
	}
}

// --- Calibration: file repeat structure (Fig. 24, §V-B) ---

func TestCalibrationRepeats(t *testing.T) {
	d := testDataset(t, testScale)
	rep := &stats.CDF{}
	for _, f := range d.Files {
		rep.AddInt(int64(f.Repeat))
	}
	if four := rep.FractionEqual(4); four < 0.35 || four > 0.60 {
		t.Errorf("files with exactly 4 copies = %.3f, want ~0.50", four)
	}
	if single := rep.FractionEqual(1); single > 0.03 {
		t.Errorf("singleton files = %.3f, want ~0.006", single)
	}
	if p90 := rep.P(90); p90 > 40 {
		t.Errorf("p90 repeat = %v, want ~10", p90)
	}
	// Unique fraction grows toward 3.2% only at full scale (Fig. 25); at
	// test scale it must be below ~20% and above the full-scale target.
	uniqueFrac := float64(len(d.Files)) / float64(d.FileInstances())
	if uniqueFrac < 0.02 || uniqueFrac > 0.20 {
		t.Errorf("unique file fraction = %.4f at scale %v", uniqueFrac, testScale)
	}
}

// TestCalibrationDedupGrowth checks the Fig. 25 mechanism: a larger dataset
// dedups better because the repeat cap grows with it.
func TestCalibrationDedupGrowth(t *testing.T) {
	small := testDataset(t, tinyScale)
	big := testDataset(t, testScale)
	ratio := func(d *Dataset) float64 {
		return float64(d.FileInstances()) / float64(len(d.Files))
	}
	if ratio(big) <= ratio(small) {
		t.Errorf("count dedup ratio did not grow: small=%.2f big=%.2f", ratio(small), ratio(big))
	}
}

// TestCalibrationGroupDedupOrdering checks Fig. 27's "who wins": capacity
// dedup per type group ordered scripts > source > docs > EOL > databases.
func TestCalibrationGroupDedupOrdering(t *testing.T) {
	d := testDataset(t, testScale)
	instCap := map[filetype.Group]float64{}
	uniqCap := map[filetype.Group]float64{}
	for _, f := range d.Files {
		g := f.Type.Group()
		uniqCap[g] += float64(f.Size)
		instCap[g] += float64(f.Size) * float64(f.Repeat)
	}
	dedup := func(g filetype.Group) float64 {
		if instCap[g] == 0 {
			return 0
		}
		return 1 - uniqCap[g]/instCap[g]
	}
	order := []filetype.Group{
		filetype.GroupScripts, filetype.GroupSourceCode, filetype.GroupDocuments,
		filetype.GroupEOL, filetype.GroupDatabases,
	}
	for i := 1; i < len(order); i++ {
		hi, lo := dedup(order[i-1]), dedup(order[i])
		if hi <= lo {
			t.Errorf("dedup(%s)=%.3f not above dedup(%s)=%.3f", order[i-1], hi, order[i], lo)
		}
	}
	if db := dedup(filetype.GroupDatabases); db < 0.5 || db > 0.9 {
		t.Errorf("database dedup = %.3f, want ~0.76", db)
	}
	if scr := dedup(filetype.GroupScripts); scr < 0.85 {
		t.Errorf("script dedup = %.3f, want ~0.98", scr)
	}
}

// --- Calibration: type mix (Fig. 14) ---

func TestCalibrationTypeMix(t *testing.T) {
	d := testDataset(t, testScale)
	tab := stats.NewShareTable()
	for _, f := range d.Files {
		tab.Add(f.Type.Group().String(), int64(f.Repeat), float64(f.Size)*float64(f.Repeat))
	}
	docs := tab.Get(filetype.GroupDocuments.String())
	if docs.CountShare < 0.32 || docs.CountShare > 0.55 {
		t.Errorf("documents count share = %.3f, want ~0.44", docs.CountShare)
	}
	eol := tab.Get(filetype.GroupEOL.String())
	if eol.CapacityShare < 0.22 || eol.CapacityShare > 0.52 {
		t.Errorf("EOL capacity share = %.3f, want ~0.37", eol.CapacityShare)
	}
	arch := tab.Get(filetype.GroupArchival.String())
	if arch.CapacityShare < 0.10 || arch.CapacityShare > 0.36 {
		t.Errorf("archival capacity share = %.3f, want ~0.23", arch.CapacityShare)
	}
}

func TestFailureAccounting(t *testing.T) {
	d := testDataset(t, testScale)
	var auth, noLatest, ok int
	for i := range d.Repos {
		r := &d.Repos[i]
		switch {
		case r.Private:
			auth++
		case !r.HasLatest:
			noLatest++
		default:
			ok++
		}
	}
	if ok != len(d.Images) {
		t.Errorf("downloadable repos %d != images %d", ok, len(d.Images))
	}
	failed := auth + noLatest
	if failed == 0 {
		t.Fatal("no failures generated")
	}
	authFrac := float64(auth) / float64(failed)
	if authFrac < 0.08 || authFrac > 0.18 {
		t.Errorf("auth failure fraction = %.3f, want ~0.13", authFrac)
	}
}

func TestLayerDigestsUnique(t *testing.T) {
	d := testDataset(t, tinyScale)
	seen := map[string]bool{}
	for i := range d.Layers {
		dg := d.LayerDigest(LayerID(i)).String()
		if seen[dg] {
			t.Fatalf("duplicate layer digest at %d", i)
		}
		seen[dg] = true
	}
}

// TestGenerateManySeeds checks that generation and validation succeed for
// arbitrary seeds and small scales — no seed-dependent panics, orphaned
// layers, or accounting drift.
func TestGenerateManySeeds(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		spec := DefaultSpec(0.00012)
		spec.Seed = seed
		d, err := Generate(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(d.Images) == 0 || len(d.Layers) == 0 || len(d.Files) == 0 {
			t.Fatalf("seed %d: empty dataset", seed)
		}
		if d.Layers[d.EmptyLayer].Refs < 1 {
			t.Fatalf("seed %d: empty layer unreferenced", seed)
		}
		if d.TotalCLS() > d.TotalFLS() && d.TotalFLS() > 0 {
			// Compression can only expand tiny layers; in aggregate the
			// dataset must compress.
			t.Fatalf("seed %d: compressed %d > uncompressed %d", seed, d.TotalCLS(), d.TotalFLS())
		}
	}
}

// TestMaterializeSpecGenerates ensures the materialize preset stays
// generable and much smaller than the default at equal scale.
func TestMaterializeSpecGenerates(t *testing.T) {
	mat, err := Generate(MaterializeSpec(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	def := testDataset(t, tinyScale)
	if mat.TotalFLS() >= def.TotalFLS()/10 {
		t.Fatalf("materialize preset FLS %d not well below default %d", mat.TotalFLS(), def.TotalFLS())
	}
}

// TestRenderLayerMatchesModel walks rendered tarballs of random layers and
// checks entry counts, directory counts, depths and file sizes against the
// model — the materializer's contract, property-style over many layers.
func TestRenderLayerMatchesModel(t *testing.T) {
	d, err := Generate(MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		li := LayerID(rng.Intn(len(d.Layers)))
		blob, err := RenderLayer(d, li, new(tarutil.Builder))
		if err != nil {
			t.Fatal(err)
		}
		var files, dirs, maxDepth int
		var fls int64
		tl := tarutil.OpenLayer(bytes.NewReader(blob))
		err = tl.Walk(func(e tarutil.Entry, r io.Reader) error {
			if e.Depth > maxDepth {
				maxDepth = e.Depth
			}
			if e.IsDir {
				dirs++
				return nil
			}
			files++
			fls += e.Size
			return nil
		})
		tl.Close()
		if err != nil {
			t.Fatal(err)
		}
		l := &d.Layers[li]
		if files != l.FileCount() {
			t.Fatalf("layer %d: %d files rendered, model %d", li, files, l.FileCount())
		}
		if dirs != int(l.DirCount) {
			t.Fatalf("layer %d: %d dirs rendered, model %d", li, dirs, l.DirCount)
		}
		if maxDepth != int(l.MaxDepth) {
			t.Fatalf("layer %d: depth %d rendered, model %d", li, maxDepth, l.MaxDepth)
		}
		if fls != l.FLS {
			t.Fatalf("layer %d: FLS %d rendered, model %d", li, fls, l.FLS)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	spec := DefaultSpec(tinyScale)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// LayerCount returns the number of layers in the image's manifest.
func (im *Image) LayerCount() int { return int(im.layerN) }
