package dedup

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/filetype"
)

// liveSnapshot is the comparable record view for live censuses: the
// invertible fields only (lastLayer/maxRefs are high-water marks that
// RemoveLayer deliberately leaves stale).
type liveSnapshot struct {
	instances  int64
	size       int64
	layerCount int32
	ftype      filetype.Type
}

func liveRecords(x *Index) map[uint64]liveSnapshot {
	out := make(map[uint64]liveSnapshot)
	x.forEach(func(k uint64, rec *fileRec) {
		out[k] = liveSnapshot{rec.instances, rec.size, rec.layerCount, rec.ftype}
	})
	return out
}

// TestRemoveLayerInverse: adding layers then removing a subset must yield
// a census identical (records and totals) to one fed only the survivors.
func TestRemoveLayerInverse(t *testing.T) {
	plan, refs := planLayers(24, 150)

	full := NewIndex()
	for l, obs := range plan {
		if err := full.ObserveLayer(int32(l), refs[l], append([]FileObs(nil), obs...)); err != nil {
			t.Fatal(err)
		}
	}
	// Remove every third layer.
	removed := map[int]bool{}
	for l := 0; l < len(plan); l += 3 {
		removed[l] = true
		if err := full.RemoveLayer(append([]FileObs(nil), plan[l]...)); err != nil {
			t.Fatal(err)
		}
	}

	want := NewIndex()
	for l, obs := range plan {
		if removed[l] {
			continue
		}
		if err := want.ObserveLayer(int32(l), refs[l], append([]FileObs(nil), obs...)); err != nil {
			t.Fatal(err)
		}
	}

	if got, w := full.Instances(), want.Instances(); got != w {
		t.Fatalf("instances = %d, want %d", got, w)
	}
	if got, w := full.Ratios(), want.Ratios(); got != w {
		t.Fatalf("ratios = %+v, want %+v", got, w)
	}
	if !reflect.DeepEqual(liveRecords(full), liveRecords(want)) {
		t.Fatalf("records diverged: %d vs %d", full.Unique(), want.Unique())
	}
	if !reflect.DeepEqual(full.ByGroup(), want.ByGroup()) {
		t.Fatal("ByGroup diverged")
	}
	cdfA, maxA, emptyA := full.RepeatCDF()
	cdfB, maxB, emptyB := want.RepeatCDF()
	if cdfA.N() != cdfB.N() || maxA != maxB || emptyA != emptyB {
		t.Fatalf("RepeatCDF diverged: (%d,%d,%v) vs (%d,%d,%v)",
			cdfA.N(), maxA, emptyA, cdfB.N(), maxB, emptyB)
	}
}

// TestRemoveLayerToEmpty: removing everything returns the census to zero,
// with records deleted rather than zombie zero entries.
func TestRemoveLayerToEmpty(t *testing.T) {
	plan, refs := planLayers(8, 64)
	x := NewIndex()
	for l, obs := range plan {
		if err := x.ObserveLayer(int32(l), refs[l], append([]FileObs(nil), obs...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, obs := range plan {
		if err := x.RemoveLayer(append([]FileObs(nil), obs...)); err != nil {
			t.Fatal(err)
		}
	}
	if x.Unique() != 0 || x.Instances() != 0 {
		t.Fatalf("unique=%d instances=%d after full rollback", x.Unique(), x.Instances())
	}
	if r := x.Ratios(); r.TotalBytes != 0 || r.UniqueBytes != 0 {
		t.Fatalf("bytes remain: %+v", r)
	}
}

// TestRemoveLayerConcurrent: concurrent adds and removes of disjoint
// layers commute — the survivor census matches a sequential build.
func TestRemoveLayerConcurrent(t *testing.T) {
	plan, refs := planLayers(48, 100)
	x := NewIndex()
	// Pre-ingest the layers that will be removed so removal is always of
	// an observed layer, then concurrently add the keepers and remove the
	// pre-ingested ones.
	for l := 0; l < len(plan); l += 2 {
		if err := x.ObserveLayer(int32(l), refs[l], append([]FileObs(nil), plan[l]...)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(plan))
	for l := range plan {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			obs := append([]FileObs(nil), plan[l]...)
			if l%2 == 0 {
				errs <- x.RemoveLayer(obs)
			} else {
				errs <- x.ObserveLayer(int32(l), refs[l], obs)
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := NewIndex()
	for l := 1; l < len(plan); l += 2 {
		if err := want.ObserveLayer(int32(l), refs[l], append([]FileObs(nil), plan[l]...)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(liveRecords(x), liveRecords(want)) {
		t.Fatalf("records diverged: %d vs %d", x.Unique(), want.Unique())
	}
	if x.Instances() != want.Instances() {
		t.Fatalf("instances = %d, want %d", x.Instances(), want.Instances())
	}
}

func TestRemoveLayerErrors(t *testing.T) {
	x := NewIndex()
	if err := x.RemoveLayer([]FileObs{{Key: 1, Size: 1}}); err == nil {
		t.Error("removal of never-observed key accepted")
	}
	x = NewIndex()
	x.Seal()
	if err := x.RemoveLayer([]FileObs{{Key: 1, Size: 1}}); !errors.Is(err, ErrSealed) {
		t.Errorf("RemoveLayer after Seal = %v, want ErrSealed", err)
	}
	// Double removal underflows and reports, leaving totals clamped.
	x = NewIndex()
	obs := []FileObs{{Key: 5, Size: 10, Type: filetype.ASCIIText}}
	if err := x.ObserveLayer(0, 1, append([]FileObs(nil), obs...)); err != nil {
		t.Fatal(err)
	}
	if err := x.RemoveLayer(append([]FileObs(nil), obs...)); err != nil {
		t.Fatal(err)
	}
	if err := x.RemoveLayer(append([]FileObs(nil), obs...)); err == nil {
		t.Error("double removal accepted")
	}
	if x.Unique() != 0 {
		t.Fatalf("unique = %d after double removal", x.Unique())
	}
}

// TestSealedLifecycle: the lifecycle error is descriptive and Seal
// refuses an open layer.
func TestSealedLifecycle(t *testing.T) {
	x := NewIndex()
	if err := x.Seal(); err != nil {
		t.Fatal(err)
	}
	err := x.BeginLayer(1)
	if !errors.Is(err, ErrSealed) {
		t.Fatalf("BeginLayer after Seal = %v", err)
	}
	if !strings.Contains(err.Error(), "sealed") || !strings.Contains(err.Error(), "unsealed index") {
		t.Fatalf("lifecycle error not descriptive: %q", err)
	}
	y := NewIndex()
	y.BeginLayer(1)
	if err := y.Seal(); err == nil || !strings.Contains(err.Error(), "layer open") {
		t.Fatalf("Seal with open layer = %v", err)
	}
	y.EndLayer()
	if err := y.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := y.ObserveLayer(0, 1, []FileObs{{Key: 1, Size: 1}}); !errors.Is(err, ErrSealed) {
		t.Fatalf("ObserveLayer after Seal = %v, want ErrSealed", err)
	}
}

// TestCloneIsolation: a clone equals the source at clone time and is
// unaffected by later mutation of either side.
func TestCloneIsolation(t *testing.T) {
	plan, refs := planLayers(10, 80)
	x := NewIndex()
	for l := 0; l < 6; l++ {
		if err := x.ObserveLayer(int32(l), refs[l], append([]FileObs(nil), plan[l]...)); err != nil {
			t.Fatal(err)
		}
	}
	snapRecs := liveRecords(x)
	snapRatios := x.Ratios()

	c := x.Clone()
	// Mutate the original both ways.
	for l := 6; l < 10; l++ {
		if err := x.ObserveLayer(int32(l), refs[l], append([]FileObs(nil), plan[l]...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.RemoveLayer(append([]FileObs(nil), plan[0]...)); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(liveRecords(c), snapRecs) {
		t.Fatal("clone drifted after source mutation")
	}
	if c.Ratios() != snapRatios {
		t.Fatalf("clone ratios = %+v, want %+v", c.Ratios(), snapRatios)
	}
	// And mutating the clone leaves the source alone.
	before := liveRecords(x)
	if err := c.RemoveLayer(append([]FileObs(nil), plan[1]...)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveRecords(x), before) {
		t.Fatal("source drifted after clone mutation")
	}
	// Sealing carries over on clone.
	x.Seal()
	if err := x.Clone().ObserveLayer(99, 1, []FileObs{{Key: 1, Size: 1}}); !errors.Is(err, ErrSealed) {
		t.Fatalf("clone of sealed index accepts feeding: %v", err)
	}
}

// TestCrossDupLiveMatchesBatch: on a batch-style census (fed once, true
// refs), CrossDupLive with the layer's refs gives CrossDup's answers for
// the keys of that layer.
func TestCrossDupLiveMatchesBatch(t *testing.T) {
	plan, refs := planLayers(16, 120)
	x := NewIndex()
	for l, obs := range plan {
		if err := x.ObserveLayer(int32(l), refs[l], append([]FileObs(nil), obs...)); err != nil {
			t.Fatal(err)
		}
	}
	x.Seal()
	// For every key, find the max refs over the layers containing it — the
	// value CrossDup's maxRefs holds — and check CrossDupLive agreement
	// when queried per-layer the way snapshot renders do: any layer's
	// query may legitimately differ on crossImage only when layerCount is
	// 1 and a different layer held the max refs, which cannot happen since
	// layerCount==1 means one layer holds the key.
	rng := rand.New(rand.NewSource(1))
	for l, obs := range plan {
		for _, o := range obs {
			if rng.Intn(4) != 0 {
				continue
			}
			cl, ci, err := x.CrossDup(o.Key)
			if err != nil {
				t.Fatal(err)
			}
			lcl, lci, err := x.CrossDupLive(o.Key, refs[l])
			if err != nil {
				t.Fatal(err)
			}
			if cl != lcl {
				t.Fatalf("key %#x: crossLayer %v vs live %v", o.Key, cl, lcl)
			}
			// crossImage must agree whenever the answer is determined by
			// this layer (layerCount==1 ⇒ this layer is the only holder).
			if !cl && ci != lci {
				t.Fatalf("key %#x in single layer %d: crossImage %v vs live %v", o.Key, l, ci, lci)
			}
		}
	}
	if _, _, err := x.CrossDupLive(0xdeadbeef, 1); err == nil {
		t.Fatal("unknown key accepted")
	}
}
