package dedup

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/filetype"
	"repro/internal/stats"
)

// feed populates an index from a layer plan: each layer is a list of
// (key, size, type) triples plus a reference count.
type obs struct {
	key  uint64
	size int64
	t    filetype.Type
}

func feed(t *testing.T, layers [][]obs, refs []int32) *Index {
	t.Helper()
	x := NewIndexSized(0)
	for i, layer := range layers {
		r := int32(1)
		if i < len(refs) {
			r = refs[i]
		}
		fo := make([]FileObs, len(layer))
		for j, o := range layer {
			fo[j] = FileObs{Key: o.key, Size: o.size, Type: o.t}
		}
		x.AddLayer(r, fo)
	}
	return x
}

func TestRatios(t *testing.T) {
	// File 1 (100 B) appears 3×, file 2 (50 B) once → 4 instances, 2
	// unique; 350 total bytes, 150 unique.
	x := feed(t, [][]obs{
		{{1, 100, filetype.ElfExecutable}, {2, 50, filetype.ASCIIText}},
		{{1, 100, filetype.ElfExecutable}},
		{{1, 100, filetype.ElfExecutable}},
	}, nil)
	r := x.Ratios()
	if r.TotalFiles != 4 || r.UniqueFiles != 2 {
		t.Fatalf("counts: %+v", r)
	}
	if r.TotalBytes != 350 || r.UniqueBytes != 150 {
		t.Fatalf("bytes: %+v", r)
	}
	if math.Abs(r.CountRatio-2) > 1e-12 {
		t.Errorf("CountRatio = %v", r.CountRatio)
	}
	if math.Abs(r.CapacityRatio-350.0/150.0) > 1e-12 {
		t.Errorf("CapacityRatio = %v", r.CapacityRatio)
	}
	if math.Abs(r.UniqueFrac-0.5) > 1e-12 {
		t.Errorf("UniqueFrac = %v", r.UniqueFrac)
	}
	if math.Abs(r.DedupSavings-(1-150.0/350.0)) > 1e-12 {
		t.Errorf("DedupSavings = %v", r.DedupSavings)
	}
}

func TestRatiosEmpty(t *testing.T) {
	r := NewIndexSized(0).Ratios()
	if r.CountRatio != 0 || r.CapacityRatio != 0 || r.UniqueFrac != 0 {
		t.Fatalf("empty ratios nonzero: %+v", r)
	}
}

func TestRepeatCDF(t *testing.T) {
	x := feed(t, [][]obs{
		{{1, 0, filetype.EmptyFile}, {2, 10, filetype.ASCIIText}},
		{{1, 0, filetype.EmptyFile}},
		{{1, 0, filetype.EmptyFile}},
	}, nil)
	cdf, maxRepeat, maxIsEmpty := x.RepeatCDF()
	if cdf.N() != 2 {
		t.Fatalf("N = %d", cdf.N())
	}
	if maxRepeat != 3 || !maxIsEmpty {
		t.Fatalf("max repeat %d empty=%v, want 3 true", maxRepeat, maxIsEmpty)
	}
	if got := x.MultiCopyFrac(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MultiCopyFrac = %v", got)
	}
}

func TestByGroup(t *testing.T) {
	x := feed(t, [][]obs{
		{{1, 1000, filetype.ElfExecutable}, {2, 10, filetype.PythonScript}},
		{{1, 1000, filetype.ElfExecutable}, {2, 10, filetype.PythonScript}, {2, 10, filetype.PythonScript}},
	}, nil)
	groups := x.ByGroup()
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	// Sorted by capacity: EOL (2000) first.
	if groups[0].Group != filetype.GroupEOL {
		t.Fatalf("first group = %v", groups[0].Group)
	}
	if groups[0].TotalBytes != 2000 || groups[0].UniqueBytes != 1000 {
		t.Fatalf("EOL bytes: %+v", groups[0])
	}
	if math.Abs(groups[0].DedupSavings-0.5) > 1e-12 {
		t.Fatalf("EOL savings = %v", groups[0].DedupSavings)
	}
	scr := groups[1]
	if scr.TotalBytes != 30 || scr.UniqueBytes != 10 {
		t.Fatalf("script bytes: %+v", scr)
	}
	if math.Abs(scr.DedupSavings-(1-10.0/30.0)) > 1e-12 {
		t.Fatalf("script savings = %v", scr.DedupSavings)
	}
}

func TestByTypeInGroup(t *testing.T) {
	x := feed(t, [][]obs{
		{{1, 100, filetype.CSource}, {2, 10, filetype.RubyModule}},
		{{1, 100, filetype.CSource}},
	}, nil)
	types := x.ByTypeInGroup(filetype.GroupSourceCode)
	if len(types) != 2 {
		t.Fatalf("types = %d", len(types))
	}
	if types[0].Type != filetype.CSource || types[0].TotalBytes != 200 || types[0].UniqueBytes != 100 {
		t.Fatalf("first type: %+v", types[0])
	}
	if got := x.ByTypeInGroup(filetype.GroupMedia); len(got) != 0 {
		t.Fatalf("media types = %d, want 0", len(got))
	}
}

func TestTypeUsage(t *testing.T) {
	x := feed(t, [][]obs{
		{{1, 100, filetype.PNGImage}},
		{{1, 100, filetype.PNGImage}, {2, 5, filetype.ASCIIText}},
	}, nil)
	usage := x.TypeUsage()
	if len(usage) != 2 {
		t.Fatalf("usage rows = %d", len(usage))
	}
	if usage[0].Type != filetype.PNGImage || usage[0].Count != 2 || usage[0].Capacity != 200 {
		t.Fatalf("png usage: %+v", usage[0])
	}
}

func TestCrossDup(t *testing.T) {
	x := feed(t, [][]obs{
		{{1, 10, filetype.ASCIIText}, {2, 10, filetype.ASCIIText}, {3, 10, filetype.ASCIIText}, {3, 10, filetype.ASCIIText}},
		{{1, 10, filetype.ASCIIText}},
	}, []int32{1, 1})
	// File 1: two layers → cross-layer and cross-image.
	cl, ci, err := x.CrossDup(1)
	if err != nil || !cl || !ci {
		t.Fatalf("file 1: cl=%v ci=%v err=%v", cl, ci, err)
	}
	// File 2: one layer, refs 1 → neither.
	cl, ci, _ = x.CrossDup(2)
	if cl || ci {
		t.Fatalf("file 2: cl=%v ci=%v", cl, ci)
	}
	// File 3: twice in the SAME layer with refs 1 → not cross-layer, not
	// cross-image.
	cl, ci, _ = x.CrossDup(3)
	if cl || ci {
		t.Fatalf("file 3: cl=%v ci=%v", cl, ci)
	}
	if _, _, err := x.CrossDup(99); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestCrossDupSharedLayer(t *testing.T) {
	// File in a single layer that two images share → cross-image but not
	// cross-layer.
	x := feed(t, [][]obs{{{7, 10, filetype.ASCIIText}}}, []int32{2})
	cl, ci, _ := x.CrossDup(7)
	if cl {
		t.Error("single-layer file marked cross-layer")
	}
	if !ci {
		t.Error("file in doubly-referenced layer not cross-image")
	}
}

// Property: for any feeding pattern, accounting invariants hold: unique ≤
// instances, unique bytes ≤ total bytes, count ratio ≥ 1, and the savings
// fraction is in [0, 1).
func TestQuickAccountingInvariants(t *testing.T) {
	f := func(keys []uint8, sizes []uint16) bool {
		if len(keys) == 0 {
			return true
		}
		layer := make([]FileObs, len(keys))
		for i, k := range keys {
			size := int64(0)
			if len(sizes) > 0 {
				size = int64(sizes[i%len(sizes)])
			}
			// Same key must always carry the same size for the invariant
			// to be meaningful (content-addressed).
			layer[i] = FileObs{Key: uint64(k), Size: int64(k)*7 + size%1, Type: filetype.ASCIIText}
		}
		x := NewIndexSized(0)
		x.AddLayer(1, layer)
		r := x.Ratios()
		if r.UniqueFiles > r.TotalFiles || r.UniqueBytes > r.TotalBytes {
			return false
		}
		if r.UniqueFiles > 0 && r.CountRatio < 1 {
			return false
		}
		return r.DedupSavings >= 0 && r.DedupSavings < 1 || r.TotalBytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkObserve measures census ingestion per file instance, fed in
// layers of 1024 over a key space of 100,000 files.
func BenchmarkObserve(b *testing.B) {
	x := NewIndexSized(0)
	layer := make([]FileObs, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(layer) {
		for j := range layer {
			layer[j] = FileObs{Key: uint64((i + j) % 100_000), Size: 1024, Type: filetype.ElfExecutable}
		}
		x.AddLayer(1, layer)
	}
}

// planLayers builds a deterministic multi-layer observation plan with
// heavy cross-layer key overlap. Sizes and types are functions of the key,
// as content addressing guarantees.
func planLayers(layers, filesPerLayer int) ([][]FileObs, []int32) {
	types := []filetype.Type{filetype.ElfExecutable, filetype.ASCIIText, filetype.PythonScript, filetype.PNGImage}
	plan := make([][]FileObs, layers)
	refs := make([]int32, layers)
	rng := uint64(0x9e3779b97f4a7c15)
	for l := range plan {
		refs[l] = int32(l%3 + 1)
		obs := make([]FileObs, filesPerLayer)
		for f := range obs {
			rng = rng*6364136223846793005 + 1442695040888963407
			// Small key space forces duplicates within and across layers;
			// spread across the full 64-bit key range.
			key := (rng % 512) * 0x0040_0000_0000_0000
			obs[f] = FileObs{Key: key, Size: int64(key>>54) * 7, Type: types[key>>54%4]}
		}
		plan[l] = obs
	}
	return plan, refs
}

// recSnapshot is the comparable view of one census record.
type recSnapshot struct {
	instances  int64
	size       int64
	layerCount int32
	maxRefs    int32
	ftype      filetype.Type
}

func snapshot(x *Index) map[uint64]recSnapshot {
	out := make(map[uint64]recSnapshot)
	x.forEach(func(k uint64, rec *fileRec) {
		out[k] = recSnapshot{rec.instances, rec.size, rec.layerCount, rec.maxRefs, rec.ftype}
	})
	return out
}

// TestAddLayerOrderWithinLayer feeds the same layer plan three times: as
// generated, with every layer sorted by key, and with the layers in
// reverse order. All three censuses must read the same: AddLayer depends
// neither on the order of one layer's instances nor on the layer order.
func TestAddLayerOrderWithinLayer(t *testing.T) {
	plan, refs := planLayers(40, 200)
	asIs, sorted, reversed := NewIndexSized(0), NewIndexSized(512), NewIndexSized(0)
	for l, layer := range plan {
		asIs.AddLayer(refs[l], layer)
		layer = slices.Clone(layer)
		slices.SortFunc(layer, func(a, b FileObs) int { return cmp.Compare(a.Key, b.Key) })
		sorted.AddLayer(refs[l], layer)
	}
	for l := len(plan) - 1; l >= 0; l-- {
		reversed.AddLayer(refs[l], plan[l])
	}
	for _, c := range []struct {
		name string
		x    *Index
	}{{"sorted", sorted}, {"reversed", reversed}} {
		if got, want := c.x.Ratios(), asIs.Ratios(); got != want {
			t.Fatalf("%s: ratios = %+v, want %+v", c.name, got, want)
		}
		if got, want := snapshot(c.x), snapshot(asIs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: census records diverged: %d records, as generated %d", c.name, len(got), len(want))
		}
		if !reflect.DeepEqual(c.x.ByGroup(), asIs.ByGroup()) {
			t.Fatalf("%s: ByGroup diverged", c.name)
		}
		if !reflect.DeepEqual(c.x.TypeUsage(), asIs.TypeUsage()) {
			t.Fatalf("%s: TypeUsage diverged", c.name)
		}
		_, gotMax, gotEmpty := c.x.RepeatCDF()
		_, wantMax, wantEmpty := asIs.RepeatCDF()
		if gotMax != wantMax || gotEmpty != wantEmpty {
			t.Fatalf("%s: repeat max %d/%v, want %d/%v", c.name, gotMax, gotEmpty, wantMax, wantEmpty)
		}
		qs := []float64{0, 0.5, 0.9, 1}
		if got, want := c.x.SizeQuantiles(qs...), asIs.SizeQuantiles(qs...); !slices.Equal(got, want) {
			t.Fatalf("%s: SizeQuantiles = %v, want %v", c.name, got, want)
		}
	}
}

// TestSizeQuantiles checks the census quantiles against a stats.CDF fed
// every instance size, on random censuses and on the edge cases.
func TestSizeQuantiles(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	rng := rand.New(rand.NewSource(11))
	for trial := range 50 {
		x := NewIndexSized(0)
		exact := &stats.CDF{}
		keys := 1 + rng.Intn(300)
		for range 1 + rng.Intn(20) {
			layer := make([]FileObs, rng.Intn(100))
			for j := range layer {
				// Skewed keys, so some files repeat far more than others;
				// the size is a function of the key, and a few files share
				// a size.
				k := uint64(rng.ExpFloat64()*float64(keys)) % uint64(keys)
				layer[j] = FileObs{Key: k, Size: int64(k*k%997) * 13, Type: filetype.ASCIIText}
				exact.AddInt(layer[j].Size)
			}
			x.AddLayer(1, layer)
		}
		got := x.SizeQuantiles(qs...)
		for i, q := range qs {
			if want := int64(exact.Quantile(q)); got[i] != want {
				t.Fatalf("trial %d (%d instances): q=%v got %d, want %d", trial, exact.N(), q, got[i], want)
			}
		}
	}

	if got := NewIndexSized(0).SizeQuantiles(0.5, 0.9); !slices.Equal(got, []int64{0, 0}) {
		t.Errorf("empty census: %v, want zeros", got)
	}
	one := feed(t, [][]obs{{{5, 42, filetype.ASCIIText}, {5, 42, filetype.ASCIIText}}, {{5, 42, filetype.ASCIIText}}}, nil)
	if got := one.SizeQuantiles(qs...); slices.ContainsFunc(got, func(v int64) bool { return v != 42 }) {
		t.Errorf("single record: %v, want 42 throughout", got)
	}
	// One instance of a large file among many small ones: only q = 1
	// reaches it.
	maxed := feed(t, [][]obs{
		{{1, 10, filetype.ASCIIText}, {1, 10, filetype.ASCIIText}, {1, 10, filetype.ASCIIText}},
		{{2, 1 << 30, filetype.ElfExecutable}},
	}, nil)
	if got := maxed.SizeQuantiles(0.5, 0.75, 1); !slices.Equal(got, []int64{10, 10, 1 << 30}) {
		t.Errorf("q=1: %v, want [10 10 %d]", got, 1<<30)
	}
	empty := feed(t, [][]obs{{{1, 0, filetype.EmptyFile}, {1, 0, filetype.EmptyFile}}, {{1, 0, filetype.EmptyFile}}}, nil)
	if got := empty.SizeQuantiles(qs...); slices.ContainsFunc(got, func(v int64) bool { return v != 0 }) {
		t.Errorf("all files empty: %v, want zeros", got)
	}
}

// TestAggregatesTotalOrder builds a census whose groups and types tie on
// bytes and requires every aggregate to list them in one order on every
// call: the aggregation runs over a map, so a tie broken by iteration
// order would reorder fig13/fig27 rows from run to run.
func TestAggregatesTotalOrder(t *testing.T) {
	// EOL and script groups hold 100 bytes each; within EOL, two types
	// hold 50 each.
	x := feed(t, [][]obs{{
		{1, 50, filetype.ElfExecutable}, {2, 50, filetype.ElfSharedObject},
		{3, 100, filetype.PythonScript},
	}}, nil)
	groups, types, usage := x.ByGroup(), x.ByTypeInGroup(filetype.GroupEOL), x.TypeUsage()
	if groups[0].Group > groups[1].Group || types[0].Type > types[1].Type {
		t.Fatalf("ties not broken by group/type: %+v, %+v", groups, types)
	}
	for range 20 {
		if got := x.ByGroup(); !reflect.DeepEqual(got, groups) {
			t.Fatalf("ByGroup order changed: %+v, then %+v", groups, got)
		}
		if got := x.ByTypeInGroup(filetype.GroupEOL); !reflect.DeepEqual(got, types) {
			t.Fatalf("ByTypeInGroup order changed: %+v, then %+v", types, got)
		}
		if got := x.TypeUsage(); !reflect.DeepEqual(got, usage) {
			t.Fatalf("TypeUsage order changed: %+v, then %+v", usage, got)
		}
	}
}

// BenchmarkSizeQuantiles reads p50 and p90 off a census of 100,000 unique
// files and 3,000,000 instances, fed in layers of 1,024.
func BenchmarkSizeQuantiles(b *testing.B) {
	const unique, instances = 100_000, 3_000_000
	x := NewIndexSized(unique)
	layer := make([]FileObs, 1024)
	for i := 0; i < instances; i += len(layer) {
		layer = layer[:min(len(layer), instances-i)]
		for j := range layer {
			k := uint64((i + j) * 7919 % unique)
			layer[j] = FileObs{Key: k, Size: int64(k * 37 % 65_536), Type: filetype.ASCIIText}
		}
		x.AddLayer(1, layer)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		quantileSink = x.SizeQuantiles(0.5, 0.9)
	}
}

// quantileSink keeps BenchmarkSizeQuantiles' call from being optimized away.
var quantileSink []int64

// TestObserveLayerDuplicatesWithinLayer checks the in-layer duplicate
// collapse on unsorted input: two instances in one layer count one
// distinct layer.
func TestObserveLayerDuplicatesWithinLayer(t *testing.T) {
	x := NewIndexSized(0)
	x.AddLayer(1, []FileObs{
		{Key: 7, Size: 10, Type: filetype.ASCIIText},
		{Key: 9, Size: 20, Type: filetype.ASCIIText},
		{Key: 7, Size: 10, Type: filetype.ASCIIText},
	})
	x.AddLayer(2, []FileObs{{Key: 7, Size: 10, Type: filetype.ASCIIText}})
	if got := x.Instances(); got != 4 {
		t.Fatalf("instances = %d, want 4", got)
	}
	if got := x.files[7].layerCount; got != 2 {
		t.Fatalf("key 7 in %d distinct layers, want 2", got)
	}
	cl, ci, err := x.CrossDup(7)
	if err != nil || !cl || !ci {
		t.Fatalf("key 7: cl=%v ci=%v err=%v, want both duplicated", cl, ci, err)
	}
	cl, ci, err = x.CrossDup(9)
	if err != nil || cl || ci {
		t.Fatalf("key 9: cl=%v ci=%v err=%v, want neither", cl, ci, err)
	}
}
