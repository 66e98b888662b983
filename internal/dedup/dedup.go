// Package dedup implements the paper's §V analyses: file-level
// deduplication ratios (count and capacity), repeat-count distributions,
// cross-layer and cross-image duplicate fractions, per-type-group dedup,
// and layer-sharing effectiveness.
//
// The core structure is Index, a content-keyed census of file instances.
// It is fed one whole layer at a time by AddLayer, then read; all metrics
// derive from the finished census. Keys are 64-bit: model-mode callers
// pass unique-file ids, wire-mode callers pass truncated content digests —
// both preserve the equality structure deduplication needs.
//
// The census is one map of inline (non-pointer) records, so a unique file
// costs one map slot and no separate heap object. It is fed on one
// goroutine. Layers are numbered in call order, but no read depends on
// that numbering: feeding the same layers in any order reads the same,
// file-size quantiles included, so the census is the only file-size
// distribution a study keeps. Once feeding is done, every read method is
// safe for concurrent use.
package dedup

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/filetype"
	"repro/internal/stats"
)

// fileRec is the census entry for one unique file content. Records are
// stored inline in the census map (no per-record heap allocation).
type fileRec struct {
	size       int64
	instances  int64
	layerCount int32
	lastLayer  int32
	maxRefs    int32 // largest image-reference count among its layers
	ftype      filetype.Type
}

// FileObs is one file instance handed to AddLayer: the content key, the
// file size, and the classified type. Size and Type must be functions of
// Key (content-addressed), as they are for both key schemes.
type FileObs struct {
	Key  uint64
	Size int64
	Type filetype.Type
}

// Index is the global file census.
type Index struct {
	files     map[uint64]fileRec
	layers    int32 // layers fed so far: the next layer's number
	instances int64
	instBytes int64
}

// NewIndexSized returns an empty census pre-sized for an expected number
// of unique files, avoiding incremental map growth on large runs (the
// unique count is predictable: ~3% of the instance count at paper scale).
func NewIndexSized(uniqueHint int) *Index {
	return &Index{files: make(map[uint64]fileRec, uniqueHint)}
}

// AddLayer records every file instance of the next layer; layers are
// numbered in call order. refs is the number of images referencing the
// layer (used for cross-image duplicate detection). obs need not be
// sorted: a key seen twice in one layer counts two instances but one
// distinct layer.
func (x *Index) AddLayer(refs int32, obs []FileObs) {
	layer := x.layers
	x.layers++
	for _, o := range obs {
		rec, ok := x.files[o.Key]
		if !ok {
			rec = fileRec{size: o.Size, ftype: o.Type, lastLayer: -1}
		}
		rec.instances++
		x.instances++
		x.instBytes += rec.size
		if rec.lastLayer != layer {
			rec.lastLayer = layer
			rec.layerCount++
		}
		if refs > rec.maxRefs {
			rec.maxRefs = refs
		}
		x.files[o.Key] = rec
	}
}

// forEach visits every census record.
func (x *Index) forEach(fn func(key uint64, rec *fileRec)) {
	for k, rec := range x.files {
		fn(k, &rec)
	}
}

// Unique returns the number of distinct file contents observed.
func (x *Index) Unique() int { return len(x.files) }

// Instances returns the total number of file instances observed.
func (x *Index) Instances() int64 { return x.instances }

// Ratios summarizes §V-B: "After removing redundant files, there are only
// 3.2% of files left … deduplication ratios of 31.5× and 6.9× in terms of
// file count and capacity".
type Ratios struct {
	UniqueFiles   int64
	TotalFiles    int64
	UniqueBytes   int64
	TotalBytes    int64
	CountRatio    float64 // TotalFiles / UniqueFiles
	CapacityRatio float64 // TotalBytes / UniqueBytes
	UniqueFrac    float64 // UniqueFiles / TotalFiles
	// DedupSavings is the fraction of capacity removed by dedup (the
	// paper's "overall deduplication ratio … 85.69%").
	DedupSavings float64
}

// Ratios computes the global dedup ratios.
func (x *Index) Ratios() Ratios {
	var r Ratios
	r.TotalFiles = x.instances
	r.TotalBytes = x.instBytes
	r.UniqueFiles = int64(x.Unique())
	x.forEach(func(_ uint64, rec *fileRec) {
		r.UniqueBytes += rec.size
	})
	if r.UniqueFiles > 0 {
		r.CountRatio = float64(r.TotalFiles) / float64(r.UniqueFiles)
	}
	if r.UniqueBytes > 0 {
		r.CapacityRatio = float64(r.TotalBytes) / float64(r.UniqueBytes)
	}
	if r.TotalFiles > 0 {
		r.UniqueFrac = float64(r.UniqueFiles) / float64(r.TotalFiles)
	}
	if r.TotalBytes > 0 {
		r.DedupSavings = 1 - float64(r.UniqueBytes)/float64(r.TotalBytes)
	}
	return r
}

// RepeatCDF returns the repeat-count distribution over unique files
// (Fig. 24) along with the maximum repeat count and whether the maximally
// repeated file is empty (the paper's famous finding).
func (x *Index) RepeatCDF() (cdf *stats.CDF, maxRepeat int64, maxIsEmpty bool) {
	cdf = &stats.CDF{}
	var maxRec fileRec
	var maxKey uint64
	found := false
	x.forEach(func(k uint64, rec *fileRec) {
		cdf.AddInt(rec.instances)
		// Ties broken by smallest key so the answer is independent of map
		// iteration order — equal censuses must render equal figures.
		if !found || rec.instances > maxRec.instances ||
			(rec.instances == maxRec.instances && k < maxKey) {
			maxRec = *rec
			maxKey = k
			found = true
		}
	})
	if found {
		maxRepeat = maxRec.instances
		maxIsEmpty = maxRec.size == 0
	}
	return cdf, maxRepeat, maxIsEmpty
}

// SizeQuantiles returns the instance-weighted q-quantile of file size for
// each q (0 ≤ q ≤ 1), nearest-rank as stats.CDF.Quantile reads it: every
// file instance counts once. It sorts one (size, instances) pair per
// unique file, so its memory is O(unique) and its answer does not depend
// on the order the census was fed in. An empty census answers 0.
func (x *Index) SizeQuantiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if x.instances == 0 {
		return out
	}
	type weighted struct{ size, n int64 }
	sizes := make([]weighted, 0, len(x.files))
	x.forEach(func(_ uint64, rec *fileRec) {
		sizes = append(sizes, weighted{rec.size, rec.instances})
	})
	slices.SortFunc(sizes, func(a, b weighted) int { return cmp.Compare(a.size, b.size) })
	for i, q := range qs {
		// The nearest rank, 1-based: the smallest r ≥ q·N, within [1, N].
		rank := min(max(int64(math.Ceil(q*float64(x.instances))), 1), x.instances)
		var seen int64
		for _, w := range sizes {
			if seen += w.n; seen >= rank {
				out[i] = w.size
				break
			}
		}
	}
	return out
}

// MultiCopyFrac returns the fraction of unique files with more than one
// copy ("over 99.4% of files have more than one copy").
func (x *Index) MultiCopyFrac() float64 {
	unique := x.Unique()
	if unique == 0 {
		return 0
	}
	multi := 0
	x.forEach(func(_ uint64, rec *fileRec) {
		if rec.instances > 1 {
			multi++
		}
	})
	return float64(multi) / float64(unique)
}

// GroupDedup is the per-type-group view of Fig. 27.
type GroupDedup struct {
	Group        filetype.Group
	TotalBytes   int64
	UniqueBytes  int64
	DedupSavings float64 // fraction of the group's capacity removed
}

// ByGroup computes dedup per level-2 type group, sorted by descending total
// capacity.
func (x *Index) ByGroup() []GroupDedup {
	agg := make(map[filetype.Group]*GroupDedup)
	x.forEach(func(_ uint64, rec *fileRec) {
		g := rec.ftype.Group()
		gd, ok := agg[g]
		if !ok {
			gd = &GroupDedup{Group: g}
			agg[g] = gd
		}
		gd.UniqueBytes += rec.size
		gd.TotalBytes += rec.size * rec.instances
	})
	out := make([]GroupDedup, 0, len(agg))
	for _, gd := range agg {
		if gd.TotalBytes > 0 {
			gd.DedupSavings = 1 - float64(gd.UniqueBytes)/float64(gd.TotalBytes)
		}
		out = append(out, *gd)
	}
	slices.SortFunc(out, func(a, b GroupDedup) int {
		return cmp.Or(cmp.Compare(b.TotalBytes, a.TotalBytes), cmp.Compare(a.Group, b.Group))
	})
	return out
}

// TypeDedup is the per-concrete-type view used by Figs. 28–29.
type TypeDedup struct {
	Type        filetype.Type
	TotalBytes  int64
	UniqueBytes int64
}

// ByTypeInGroup computes dedup per concrete type within one group, sorted
// by descending capacity.
func (x *Index) ByTypeInGroup(g filetype.Group) []TypeDedup {
	agg := make(map[filetype.Type]*TypeDedup)
	x.forEach(func(_ uint64, rec *fileRec) {
		if rec.ftype.Group() != g {
			return
		}
		td, ok := agg[rec.ftype]
		if !ok {
			td = &TypeDedup{Type: rec.ftype}
			agg[rec.ftype] = td
		}
		td.UniqueBytes += rec.size
		td.TotalBytes += rec.size * rec.instances
	})
	out := make([]TypeDedup, 0, len(agg))
	for _, td := range agg {
		out = append(out, *td)
	}
	slices.SortFunc(out, func(a, b TypeDedup) int {
		return cmp.Or(cmp.Compare(b.TotalBytes, a.TotalBytes), cmp.Compare(a.Type, b.Type))
	})
	return out
}

// TypeUsage returns instance-weighted per-type usage for the taxonomy
// (Fig. 13) and the type-share figures (14–22).
func (x *Index) TypeUsage() []filetype.TypeUsage {
	agg := make(map[filetype.Type]*filetype.TypeUsage)
	x.forEach(func(_ uint64, rec *fileRec) {
		tu, ok := agg[rec.ftype]
		if !ok {
			tu = &filetype.TypeUsage{Type: rec.ftype}
			agg[rec.ftype] = tu
		}
		tu.Count += rec.instances
		tu.Capacity += float64(rec.size * rec.instances)
	})
	out := make([]filetype.TypeUsage, 0, len(agg))
	for _, tu := range agg {
		out = append(out, *tu)
	}
	slices.SortFunc(out, func(a, b filetype.TypeUsage) int {
		return cmp.Or(cmp.Compare(b.Capacity, a.Capacity), cmp.Compare(a.Type, b.Type))
	})
	return out
}

// CrossDup reports, for one file key, whether the content is duplicated
// across layers (present in ≥ 2 layers) and across images (present in ≥ 2
// images). Cross-image is approximated as "in ≥ 2 layers, or in a layer
// shared by ≥ 2 images": two layers almost always belong to different
// images since 90% of layers are image-exclusive, so the overcount from
// one image holding both layers is marginal.
func (x *Index) CrossDup(key uint64) (crossLayer, crossImage bool, err error) {
	rec, ok := x.files[key]
	if !ok {
		return false, false, fmt.Errorf("dedup: unknown file key %#x", key)
	}
	crossLayer = rec.layerCount >= 2
	crossImage = crossLayer || rec.maxRefs >= 2
	return crossLayer, crossImage, nil
}
