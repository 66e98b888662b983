package dedup

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/filetype"
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
	x := NewIndex()
	for i, layer := range layers {
		r := int32(1)
		if i < len(refs) {
			r = refs[i]
		}
		if err := x.BeginLayer(r); err != nil {
			t.Fatal(err)
		}
		for _, o := range layer {
			if err := x.Observe(o.key, o.size, o.t); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.EndLayer(); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Seal(); err != nil {
		t.Fatal(err)
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
	x := NewIndex()
	x.Seal()
	r := x.Ratios()
	if r.CountRatio != 0 || r.CapacityRatio != 0 || r.UniqueFrac != 0 {
		t.Fatalf("empty ratios nonzero: %+v", r)
	}
}

func TestProtocolErrors(t *testing.T) {
	x := NewIndex()
	if err := x.Observe(1, 1, filetype.ASCIIText); err == nil {
		t.Error("Observe before BeginLayer accepted")
	}
	if err := x.EndLayer(); err == nil {
		t.Error("EndLayer before BeginLayer accepted")
	}
	x.BeginLayer(1)
	if err := x.BeginLayer(1); err == nil {
		t.Error("nested BeginLayer accepted")
	}
	if err := x.Seal(); err == nil {
		t.Error("Seal with open layer accepted")
	}
	x.EndLayer()
	x.Seal()
	if err := x.BeginLayer(1); err == nil {
		t.Error("BeginLayer after Seal accepted")
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
	if scr.TotalFiles != 3 || scr.UniqueFiles != 1 {
		t.Fatalf("script counts: %+v", scr)
	}
	if math.Abs(scr.DedupSavings-(1-10.0/30.0)) > 1e-12 {
		t.Fatalf("script savings = %v", scr.DedupSavings)
	}
	wantShare := 2000.0 / 2030.0
	if math.Abs(groups[0].CapacityShare-wantShare) > 1e-12 {
		t.Fatalf("EOL share = %v", groups[0].CapacityShare)
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
	if types[0].Type != filetype.CSource || types[0].TotalBytes != 200 {
		t.Fatalf("first type: %+v", types[0])
	}
	if math.Abs(types[0].DedupSavings-0.5) > 1e-12 {
		t.Fatalf("C dedup = %v", types[0].DedupSavings)
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
		x := NewIndex()
		x.BeginLayer(1)
		for i, k := range keys {
			size := int64(0)
			if len(sizes) > 0 {
				size = int64(sizes[i%len(sizes)])
			}
			// Same key must always carry the same size for the invariant
			// to be meaningful (content-addressed).
			x.Observe(uint64(k), int64(k)*7+size%1, filetype.ASCIIText)
		}
		x.EndLayer()
		x.Seal()
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

func BenchmarkObserve(b *testing.B) {
	x := NewIndex()
	x.BeginLayer(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Observe(uint64(i%100_000), 1024, filetype.ElfExecutable)
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
			// spread across the full 64-bit range so every shard is hit.
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

// TestObserveLayerMatchesSequential feeds the same layer plan through the
// sequential protocol and through concurrent ObserveLayer calls in random
// completion order, and requires identical frozen censuses.
func TestObserveLayerMatchesSequential(t *testing.T) {
	plan, refs := planLayers(40, 200)

	seq := NewIndex()
	for l, obs := range plan {
		if err := seq.BeginLayer(refs[l]); err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			if err := seq.Observe(o.Key, o.Size, o.Type); err != nil {
				t.Fatal(err)
			}
		}
		if err := seq.EndLayer(); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Seal(); err != nil {
		t.Fatal(err)
	}

	conc := NewIndexSized(512)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range work {
				obs := append([]FileObs(nil), plan[l]...)
				if err := conc.ObserveLayer(int32(l), refs[l], obs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for l := len(plan) - 1; l >= 0; l-- { // reversed feed order on purpose
		work <- l
	}
	close(work)
	wg.Wait()
	if err := conc.Seal(); err != nil {
		t.Fatal(err)
	}

	if got, want := conc.Instances(), seq.Instances(); got != want {
		t.Fatalf("instances = %d, want %d", got, want)
	}
	if got, want := conc.Unique(), seq.Unique(); got != want {
		t.Fatalf("unique = %d, want %d", got, want)
	}
	if got, want := conc.Ratios(), seq.Ratios(); got != want {
		t.Fatalf("ratios = %+v, want %+v", got, want)
	}
	if got, want := conc.MultiCopyFrac(), seq.MultiCopyFrac(); got != want {
		t.Fatalf("multi-copy frac = %v, want %v", got, want)
	}
	sSnap, cSnap := snapshot(seq), snapshot(conc)
	if !reflect.DeepEqual(sSnap, cSnap) {
		t.Fatalf("census records diverged: sequential %d records, concurrent %d", len(sSnap), len(cSnap))
	}
	for key := range sSnap {
		scl, sci, err1 := seq.CrossDup(key)
		ccl, cci, err2 := conc.CrossDup(key)
		if err1 != nil || err2 != nil || scl != ccl || sci != cci {
			t.Fatalf("cross-dup for %#x: seq (%v,%v,%v) conc (%v,%v,%v)", key, scl, sci, err1, ccl, cci, err2)
		}
	}
	if !reflect.DeepEqual(seq.ByGroup(), conc.ByGroup()) {
		t.Fatal("ByGroup diverged")
	}
}

func TestObserveLayerErrors(t *testing.T) {
	x := NewIndex()
	if err := x.ObserveLayer(-1, 1, nil); err == nil {
		t.Error("negative layer accepted")
	}
	x.Seal()
	if err := x.ObserveLayer(0, 1, []FileObs{{Key: 1, Size: 1}}); err != ErrSealed {
		t.Errorf("ObserveLayer after Seal = %v, want ErrSealed", err)
	}
}

// TestObserveLayerDuplicatesWithinLayer checks the in-layer duplicate
// collapse: two instances in one layer count one distinct layer, matching
// the sequential lastLayer accounting.
func TestObserveLayerDuplicatesWithinLayer(t *testing.T) {
	x := NewIndex()
	obs := []FileObs{
		{Key: 7, Size: 10, Type: filetype.ASCIIText},
		{Key: 9, Size: 20, Type: filetype.ASCIIText},
		{Key: 7, Size: 10, Type: filetype.ASCIIText},
	}
	if err := x.ObserveLayer(0, 1, obs); err != nil {
		t.Fatal(err)
	}
	if err := x.ObserveLayer(1, 2, []FileObs{{Key: 7, Size: 10, Type: filetype.ASCIIText}}); err != nil {
		t.Fatal(err)
	}
	x.Seal()
	if got := x.Instances(); got != 4 {
		t.Fatalf("instances = %d, want 4", got)
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

// BenchmarkIndexObserveParallel measures concurrent whole-layer ingestion
// into the sharded census — the wire pipeline's hot write path.
func BenchmarkIndexObserveParallel(b *testing.B) {
	const filesPerLayer = 512
	plan, refs := planLayers(64, filesPerLayer)
	b.ReportAllocs()
	b.SetBytes(filesPerLayer * 24) // one FileObs per instance
	var layerNo atomic.Int32
	x := NewIndexSized(1024)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]FileObs, filesPerLayer)
		for pb.Next() {
			l := layerNo.Add(1) - 1
			src := int(l) % len(plan)
			copy(buf, plan[src])
			if err := x.ObserveLayer(l, refs[src], buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
