// Package dedup implements the paper's §V analyses: file-level
// deduplication ratios (count and capacity), repeat-count distributions,
// cross-layer and cross-image duplicate fractions, per-type-group dedup,
// and layer-sharing effectiveness.
//
// The core structure is Index, a content-keyed census of file instances.
// It is fed in one pass, then frozen; all metrics derive from the frozen
// census. Keys are 64-bit: model-mode callers pass unique-file ids,
// wire-mode callers pass truncated content digests — both preserve the
// equality structure deduplication needs.
//
// # Sharded storage
//
// The census is split into 64 lock-striped shards selected by the top six
// key bits; each shard owns a map of inline (non-pointer) records, so a
// unique file costs one map slot and no separate heap object. Two feeding
// protocols share the shards:
//
//   - Sequential: BeginLayer / Observe / EndLayer, one layer at a time on
//     one goroutine. This is the model-mode path; it takes no locks.
//   - Concurrent: ObserveLayer(layer, refs, obs) ingests one whole layer
//     under pre-assigned layer numbers. Calls for different layers may run
//     on any number of goroutines simultaneously; every per-record update
//     is commutative (instance counts, distinct-layer counts, max refs),
//     so the frozen census is identical regardless of ingestion order.
//
// The two protocols must not be mixed on one Index. After Seal (or once
// feeding has quiesced) all read methods are safe for concurrent use.
package dedup

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/filetype"
	"repro/internal/stats"
)

// shardCount is the number of lock stripes. 64 keeps worst-case lock
// contention at workers/64 per stripe while the padded shard array still
// fits comfortably in L2.
const (
	shardCount = 64
	shardShift = 64 - 6 // top six key bits select the shard
)

// fileRec is the census entry for one unique file content. Records are
// stored inline in the shard maps (no per-record heap allocation).
type fileRec struct {
	size       int64
	instances  int64
	layerCount int32
	lastLayer  int32
	maxRefs    int32 // largest image-reference count among its layers
	ftype      filetype.Type
}

// shard is one lock stripe of the census. The padding keeps neighbouring
// shards' mutexes off one cache line under concurrent ingestion.
type shard struct {
	mu    sync.Mutex
	files map[uint64]fileRec
	_     [40]byte
}

// FileObs is one file instance handed to ObserveLayer: the content key,
// the file size, and the classified type. Size and Type must be functions
// of Key (content-addressed), as they are for both key schemes.
type FileObs struct {
	Key  uint64
	Size int64
	Type filetype.Type
}

// sortObsByKey orders one layer's observations by key: the shared
// pre-pass of ObserveLayer and RemoveLayer, so each lock stripe is
// visited once and duplicate keys within the layer collapse into a
// single record update.
func sortObsByKey(obs []FileObs) {
	slices.SortFunc(obs, func(a, b FileObs) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
}

// Index is the global file census.
type Index struct {
	shards [shardCount]shard

	// Sequential-protocol state; owned by the feeding goroutine.
	curLayer int32
	curRefs  int32
	inLayer  bool

	sealed     atomic.Bool
	layerCount atomic.Int32 // next sequential layer / high-water mark + 1
	instances  atomic.Int64
	instBytes  atomic.Int64
}

// NewIndex returns an empty census.
func NewIndex() *Index { return NewIndexSized(0) }

// NewIndexSized returns an empty census pre-sized for an expected number
// of unique files, avoiding incremental map growth on large runs (the
// unique count is predictable: ~3% of the instance count at paper scale).
func NewIndexSized(uniqueHint int) *Index {
	x := &Index{curLayer: -1}
	perShard := (uniqueHint + shardCount - 1) / shardCount
	for i := range x.shards {
		x.shards[i].files = make(map[uint64]fileRec, perShard)
	}
	return x
}

// Errors for misuse of the feeding protocols.
var (
	ErrNotInLayer = errors.New("dedup: Observe outside BeginLayer/EndLayer")
	// ErrSealed reports feeding into a census whose lifecycle has ended:
	// Seal declared the census complete, so
	// further Observe/ObserveLayer/RemoveLayer calls are a protocol bug in
	// the caller. Incremental maintenance belongs on an unsealed index —
	// the live-analytics path never seals; the batch path seals exactly
	// once after its single feeding pass.
	ErrSealed = errors.New("dedup: census is sealed (Seal already declared feeding complete; use an unsealed index for incremental updates)")
)

// BeginLayer starts feeding one layer's instances. refs is the number of
// images referencing the layer (used for cross-image duplicate detection).
func (x *Index) BeginLayer(refs int32) error {
	if x.sealed.Load() {
		return ErrSealed
	}
	if x.inLayer {
		return errors.New("dedup: BeginLayer while a layer is open")
	}
	x.inLayer = true
	x.curLayer = x.layerCount.Add(1) - 1
	x.curRefs = refs
	return nil
}

// Observe records one file instance of the currently open layer.
func (x *Index) Observe(key uint64, size int64, t filetype.Type) error {
	if !x.inLayer {
		return ErrNotInLayer
	}
	s := &x.shards[key>>shardShift]
	rec, ok := s.files[key]
	if !ok {
		rec = fileRec{size: size, ftype: t, lastLayer: -1}
	}
	rec.instances++
	x.instances.Add(1)
	x.instBytes.Add(rec.size)
	if rec.lastLayer != x.curLayer {
		rec.lastLayer = x.curLayer
		rec.layerCount++
	}
	if x.curRefs > rec.maxRefs {
		rec.maxRefs = x.curRefs
	}
	s.files[key] = rec
	return nil
}

// EndLayer closes the current layer.
func (x *Index) EndLayer() error {
	if !x.inLayer {
		return errors.New("dedup: EndLayer without BeginLayer")
	}
	x.inLayer = false
	return nil
}

// ObserveLayer ingests every file instance of one layer under a
// pre-assigned layer number (0-based; the caller fixes the numbering up
// front, e.g. from manifest order). refs is the layer's image-reference
// count. Calls for distinct layers are safe to run concurrently; the same
// layer must not be fed twice. obs is re-ordered in place (sorted by key)
// so that each lock stripe is visited once and duplicate keys within the
// layer collapse into a single record update, exactly matching the
// sequential protocol's distinct-layer accounting.
func (x *Index) ObserveLayer(layer, refs int32, obs []FileObs) error {
	if x.sealed.Load() {
		return ErrSealed
	}
	if layer < 0 {
		return fmt.Errorf("dedup: ObserveLayer with negative layer %d", layer)
	}
	// Track the layer-number high-water mark so sequential feeding cannot
	// be safely resumed with a clashing number afterwards.
	for {
		cur := x.layerCount.Load()
		if layer+1 <= cur || x.layerCount.CompareAndSwap(cur, layer+1) {
			break
		}
	}
	if len(obs) == 0 {
		return nil
	}
	sortObsByKey(obs)
	var inst, bytes int64
	i := 0
	for i < len(obs) {
		si := obs[i].Key >> shardShift
		s := &x.shards[si]
		s.mu.Lock()
		for i < len(obs) && obs[i].Key>>shardShift == si {
			key := obs[i].Key
			j := i + 1
			for j < len(obs) && obs[j].Key == key {
				j++
			}
			n := int64(j - i)
			rec, ok := s.files[key]
			if !ok {
				rec = fileRec{size: obs[i].Size, ftype: obs[i].Type}
			}
			rec.instances += n
			rec.layerCount++
			rec.lastLayer = layer
			if refs > rec.maxRefs {
				rec.maxRefs = refs
			}
			s.files[key] = rec
			inst += n
			bytes += rec.size * n
			i = j
		}
		s.mu.Unlock()
	}
	x.instances.Add(inst)
	x.instBytes.Add(bytes)
	return nil
}

// Seal declares feeding complete; no further layers may be added or
// removed. Sealing is optional: reads only require that feeding has
// quiesced, and the live-analytics path keeps its index unsealed forever,
// relying on Clone for consistent read snapshots. The batch path seals to
// turn any late feeding bug into an explicit ErrSealed.
func (x *Index) Seal() error {
	if x.inLayer {
		return errors.New("dedup: Seal with a layer open")
	}
	x.sealed.Store(true)
	return nil
}

// forEach visits every census record. It takes no locks: callers must be
// past Seal or otherwise quiescent.
func (x *Index) forEach(fn func(key uint64, rec *fileRec)) {
	for i := range x.shards {
		for k, rec := range x.shards[i].files {
			fn(k, &rec)
		}
	}
}

// Unique returns the number of distinct file contents observed.
func (x *Index) Unique() int {
	n := 0
	for i := range x.shards {
		n += len(x.shards[i].files)
	}
	return n
}

// Instances returns the total number of file instances observed.
func (x *Index) Instances() int64 { return x.instances.Load() }

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
	r.TotalFiles = x.instances.Load()
	r.TotalBytes = x.instBytes.Load()
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
	Group         filetype.Group
	TotalBytes    int64
	UniqueBytes   int64
	DedupSavings  float64 // fraction of the group's capacity removed
	TotalFiles    int64
	UniqueFiles   int64
	CapacityShare float64 // of the whole dataset's instance capacity
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
		gd.UniqueFiles++
		gd.UniqueBytes += rec.size
		gd.TotalFiles += rec.instances
		gd.TotalBytes += rec.size * rec.instances
	})
	instBytes := x.instBytes.Load()
	out := make([]GroupDedup, 0, len(agg))
	for _, gd := range agg {
		if gd.TotalBytes > 0 {
			gd.DedupSavings = 1 - float64(gd.UniqueBytes)/float64(gd.TotalBytes)
		}
		if instBytes > 0 {
			gd.CapacityShare = float64(gd.TotalBytes) / float64(instBytes)
		}
		out = append(out, *gd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalBytes > out[j].TotalBytes })
	return out
}

// TypeDedup is the per-concrete-type view used by Figs. 28–29.
type TypeDedup struct {
	Type         filetype.Type
	TotalBytes   int64
	UniqueBytes  int64
	DedupSavings float64
	TotalFiles   int64
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
		td.TotalFiles += rec.instances
		td.TotalBytes += rec.size * rec.instances
	})
	out := make([]TypeDedup, 0, len(agg))
	for _, td := range agg {
		if td.TotalBytes > 0 {
			td.DedupSavings = 1 - float64(td.UniqueBytes)/float64(td.TotalBytes)
		}
		out = append(out, *td)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalBytes > out[j].TotalBytes })
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
	sort.Slice(out, func(i, j int) bool { return out[i].Capacity > out[j].Capacity })
	return out
}

// CrossDup reports, for one file key, whether the content is duplicated
// across layers (present in ≥ 2 layers) and across images (present in ≥ 2
// images). Cross-image is approximated as "in ≥ 2 layers, or in a layer
// shared by ≥ 2 images": two layers almost always belong to different
// images since 90% of layers are image-exclusive, so the overcount from
// one image holding both layers is marginal.
func (x *Index) CrossDup(key uint64) (crossLayer, crossImage bool, err error) {
	rec, ok := x.shards[key>>shardShift].files[key]
	if !ok {
		return false, false, fmt.Errorf("dedup: unknown file key %#x", key)
	}
	crossLayer = rec.layerCount >= 2
	crossImage = crossLayer || rec.maxRefs >= 2
	return crossLayer, crossImage, nil
}
