// Package analyzer builds the paper's layer and image profiles (§III-C).
//
// Two input paths share all downstream analysis code:
//
//   - AnalyzeModel profiles a synthetic dataset directly from its model —
//     the fast path used for statistics at large scale.
//   - AnalyzeStore decompresses and walks real layer tarballs from a blob
//     store, classifying every file by magic number and digesting its
//     content — the full wire path ("the analyzer extracts the downloaded
//     layers and analyzes them along with the image manifests").
//
// Both produce a Result: per-layer profiles (digest, FLS, CLS, file and
// directory counts, maximum depth, image references), per-image profiles
// (CIS, FIS, aggregate counts), and a dedup.Index over all file instances.
//
// The wire path (AnalyzeWalks) walks first and folds after: it takes each
// unique layer's walk from one function, in parallel — a store walk, or
// one made earlier by the fused pipeline or the live service — then one
// goroutine folds the walks into the census and the profiles in layer
// order. That order fixes the Result.Layers indices; the census reads the
// same in any order. The Result is therefore the same at every worker
// count.
package analyzer

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/blobstore"
	"repro/internal/dedup"
	"repro/internal/digest"
	"repro/internal/downloader"
	"repro/internal/engine"
	"repro/internal/filetype"
	"repro/internal/synth"
	"repro/internal/tarutil"
)

// LayerProfile is the per-layer record of §III-C ("layer digest; layer
// size (FLS); compressed layer size (CLS); directory count; file count;
// max. directory depth"), extended with the image reference count used by
// the §V-A sharing analysis.
type LayerProfile struct {
	Digest    digest.Digest
	FLS       int64
	CLS       int64
	FileCount int32
	DirCount  int32
	MaxDepth  int32
	Refs      int32
	// CrossLayerDupFrac is the fraction of this layer's file instances
	// whose content also appears in another layer (Fig. 26(a)).
	CrossLayerDupFrac float64
}

// Ratio returns the FLS-to-CLS compression ratio, or 0 for empty layers.
func (l *LayerProfile) Ratio() float64 {
	if l.CLS == 0 || l.FLS == 0 {
		return 0
	}
	return float64(l.FLS) / float64(l.CLS)
}

// ImageProfile is the per-image record of §III-C: compressed image size
// (CIS) is the sum of compressed layer sizes, FIS the sum of contained
// file sizes.
type ImageProfile struct {
	Layers    []int32 // indexes into Result.Layers
	CIS       int64
	FIS       int64
	FileCount int64
	DirCount  int64
	// CrossImageDupFrac is the fraction of the image's file instances
	// duplicated across images (Fig. 26(b)).
	CrossImageDupFrac float64
}

// LayerCount returns the number of layers in the image.
func (im *ImageProfile) LayerCount() int { return len(im.Layers) }

// Result bundles the complete analysis.
type Result struct {
	Layers []LayerProfile
	Images []ImageProfile
	Index  *dedup.Index
}

// AnalyzeModel profiles a synthetic dataset in model mode. The model
// knows its unique files, so the census is sized exactly.
func AnalyzeModel(d *synth.Dataset) (*Result, error) {
	res := &Result{
		Layers: make([]LayerProfile, len(d.Layers)),
		Images: make([]ImageProfile, len(d.Images)),
		Index:  dedup.NewIndexSized(len(d.Files)),
	}
	var obs []dedup.FileObs // one layer's instances, reused across layers
	for i := range d.Layers {
		l := &d.Layers[i]
		res.Layers[i] = LayerProfile{
			Digest:    d.LayerDigest(synth.LayerID(i)),
			FLS:       l.FLS,
			CLS:       l.CLS,
			FileCount: int32(l.FileCount()),
			DirCount:  l.DirCount,
			MaxDepth:  l.MaxDepth,
			Refs:      l.Refs,
		}
		obs = obs[:0]
		for _, f := range d.LayerFiles(synth.LayerID(i)) {
			uf := &d.Files[f]
			obs = append(obs, dedup.FileObs{Key: uint64(f), Size: uf.Size, Type: uf.Type})
		}
		res.Index.AddLayer(l.Refs, obs)
	}

	for i := range d.Images {
		im := &res.Images[i]
		for _, l := range d.ImageLayers(synth.ImageID(i)) {
			im.Layers = append(im.Layers, int32(l))
			im.CIS += res.Layers[l].CLS
			im.FIS += res.Layers[l].FLS
			im.FileCount += int64(res.Layers[l].FileCount)
			im.DirCount += int64(res.Layers[l].DirCount)
		}
	}

	if err := fillCrossDup(res, func(layerIdx int32) []uint64 {
		files := d.LayerFiles(synth.LayerID(layerIdx))
		keys := make([]uint64, len(files))
		for j, f := range files {
			keys[j] = uint64(f)
		}
		return keys
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// fillCrossDup computes per-layer and per-image duplicate fractions from
// the finished census, given a function returning each layer's file keys.
func fillCrossDup(res *Result, layerKeys func(int32) []uint64) error {
	layerDup := make([]int64, len(res.Layers))    // cross-layer dup instances
	imageDupCnt := make([]int64, len(res.Layers)) // cross-image dup instances
	for i := range res.Layers {
		keys := layerKeys(int32(i))
		for _, k := range keys {
			cl, ci, err := res.Index.CrossDup(k)
			if err != nil {
				return fmt.Errorf("analyzer: cross-dup: %w", err)
			}
			if cl {
				layerDup[i]++
			}
			if ci {
				imageDupCnt[i]++
			}
		}
		if n := int64(res.Layers[i].FileCount); n > 0 {
			res.Layers[i].CrossLayerDupFrac = float64(layerDup[i]) / float64(n)
		}
	}
	for i := range res.Images {
		im := &res.Images[i]
		var dup int64
		for _, l := range im.Layers {
			dup += imageDupCnt[l]
		}
		if im.FileCount > 0 {
			im.CrossImageDupFrac = float64(dup) / float64(im.FileCount)
		}
	}
	return nil
}

// WalkedLayer is the analysis of one real layer blob, produced by
// LayerAccumulator and consumed by AnalyzeWalks.
// files is in tar member order; nothing downstream depends on that order.
// A finished walk is never written again, so any number of analyses may
// share it concurrently.
type WalkedLayer struct {
	profile LayerProfile
	files   []dedup.FileObs
}

// Profile returns the walked layer's profile. Refs is zero: reference
// counts are a property of the image set, not of the layer bytes, and
// are assigned by whichever analysis consumes the walk.
func (wl *WalkedLayer) Profile() LayerProfile { return wl.profile }

// AnalyzeStore profiles downloaded images whose layer blobs live in store.
// workers bounds concurrent layer walks (engine.Workers resolves ≤ 0).
// Layer blobs may be gzip-compressed tarballs (the registry wire format)
// or plain tarballs (the uncompressed storage policy the paper proposes
// for small layers) — both are handled in a single fetch per blob.
//
// It is AnalyzeWalks with every layer walked from store, so the Result is
// identical for every worker count.
func AnalyzeStore(store blobstore.Store, images []downloader.Image, workers int) (*Result, error) {
	return AnalyzeWalks(context.Background(), images, func(ld digest.Digest) (*WalkedLayer, error) {
		return WalkStored(store, ld)
	}, workers)
}

// AnalyzeWalks is the wire-path assembly. It numbers the unique layers of
// images in first-seen order, calls walk once per unique layer, workers
// at a time (engine.ForEach), then folds the walks into the census and
// the profiles in layer order on one goroutine. That order is fixed up
// front from manifest order, so the Result does not depend on which walk
// finished first.
//
// walk may read a layer from a store (AnalyzeStore), hand back a walk
// made earlier (the fused pipeline, a live snapshot), or both; it must be
// safe for concurrent use. A walk is only read, so one walk may serve any
// number of analyses, concurrent ones included. The first walk error ends
// the analysis. When ctx is done, in-flight walks wind down and the
// analysis returns ctx's error.
func AnalyzeWalks(ctx context.Context, images []downloader.Image, walk func(digest.Digest) (*WalkedLayer, error), workers int) (*Result, error) {
	// Deterministic image order regardless of download completion order;
	// stable, so the order of a repo's several tags is the caller's.
	sorted := append([]downloader.Image(nil), images...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Repo < sorted[j].Repo })

	// Unique layers, first-seen order; count image references. This
	// numbering is the deterministic layer order of the Result.
	layerIdx := make(map[digest.Digest]int32)
	var layerDigests []digest.Digest
	refs := []int32{}
	for _, img := range sorted {
		for _, ld := range img.Manifest.LayerDigests() {
			if _, ok := layerIdx[ld]; !ok {
				layerIdx[ld] = int32(len(layerDigests))
				layerDigests = append(layerDigests, ld)
				refs = append(refs, 0)
			}
			refs[layerIdx[ld]]++
		}
	}

	// walked[i] is written by the one call that walks layer i.
	walked := make([]*WalkedLayer, len(layerDigests))
	err := engine.ForEach(ctx, workers, len(layerDigests), func(_ context.Context, i int) error {
		wl, err := walk(layerDigests[i])
		if err != nil {
			return fmt.Errorf("analyzer: layer %s: %w", layerDigests[i].Short(), err)
		}
		walked[i] = wl
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The unique-file count is unknown until the fold, so the census
	// grows from empty.
	res := &Result{
		Layers: make([]LayerProfile, len(layerDigests)),
		Images: make([]ImageProfile, 0, len(sorted)),
		Index:  dedup.NewIndexSized(0),
	}

	// Fold in layer order: the census numbers layers in call order, and
	// res.Layers follows the same numbering.
	for i, wl := range walked {
		res.Index.AddLayer(refs[i], wl.files)
		res.Layers[i] = wl.profile
		res.Layers[i].Refs = refs[i]
	}

	for _, img := range sorted {
		var im ImageProfile
		for _, ld := range img.Manifest.LayerDigests() {
			idx := layerIdx[ld]
			im.Layers = append(im.Layers, idx)
			lp := &res.Layers[idx]
			im.CIS += lp.CLS
			im.FIS += lp.FLS
			im.FileCount += int64(lp.FileCount)
			im.DirCount += int64(lp.DirCount)
		}
		res.Images = append(res.Images, im)
	}

	if err := fillCrossDup(res, func(layerIdx int32) []uint64 {
		keys := make([]uint64, len(walked[layerIdx].files))
		for j, f := range walked[layerIdx].files {
			keys[j] = f.Key
		}
		return keys
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// walkScratch is the per-walk working memory of a byte walk: the
// classification prefix, the hashing copy buffer and a SHA-256 state.
// Pooled as one unit — as locals the two arrays escape to the heap through
// the walk callback, 36 KiB per layer walked.
type walkScratch struct {
	prefix  [classifyPrefix]byte
	copyBuf [32 << 10]byte
	h       *digest.Hasher
}

var scratchPool = sync.Pool{New: func() any { return &walkScratch{h: digest.NewHasher()} }}

// classifyPrefix is how much of a file filetype.Classify gets to see:
// every magic offset is below 4 KiB.
const classifyPrefix = 4096

// WalkStored decompresses and walks one layer blob from the store. The
// blob is fetched exactly once: tarutil.OpenLayer sniffs its framing
// through a buffered reader, so plain-tar blobs need no re-fetch.
func WalkStored(store blobstore.Store, ld digest.Digest) (*WalkedLayer, error) {
	rc, _, err := store.Get(ld)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return WalkLayerReader(ld, rc)
}

// WalkLayerReader decompresses and walks one layer tarball as it streams
// past, producing its profile and file observations. Like the paper's
// analyzer it traverses every entry; unlike docker pull it never extracts
// to disk. The stream is always consumed to its end, even on a walk error
// — so a verifying stream's terminal verdict (its error in place of
// io.EOF) surfaces here — and the layer's wire size is its CLS. It is the
// byte-walking front end of LayerAccumulator: each member is hashed, and
// the accumulator gets what a decomposing store would have reported.
func WalkLayerReader(ld digest.Digest, r io.Reader) (*WalkedLayer, error) {
	l := tarutil.OpenLayer(r)
	defer l.Close()
	acc := NewLayerAccumulator(ld)
	sc := scratchPool.Get().(*walkScratch)
	defer scratchPool.Put(sc)

	walkFn := func(e tarutil.Entry, content io.Reader) error {
		if e.IsDir {
			acc.Dir(e)
			return nil
		}
		// Per-file memory is bounded: classification needs only a prefix
		// and the content digest streams through the pooled hasher.
		head := sc.prefix[:0]
		sc.h.Reset()
		if content != nil {
			n, err := io.ReadFull(content, sc.prefix[:])
			if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
				return fmt.Errorf("reading %s: %w", e.Name, err)
			}
			head = sc.prefix[:n]
			sc.h.Write(head)
			if _, err := io.CopyBuffer(sc.h, content, sc.copyBuf[:]); err != nil {
				return fmt.Errorf("hashing %s: %w", e.Name, err)
			}
		}
		acc.File(e, sc.h.Key64(), head)
		return nil
	}

	if err := l.Walk(walkFn); err != nil {
		return nil, err
	}
	return acc.Finish(l.WireBytes()), nil
}

// LayerAccumulator folds the members of one layer into its WalkedLayer:
// directory census (explicit entries and implied parents), maximum depth,
// FLS, and one classified dedup.FileObs per file. It is the only place
// that turns members into a profile; it does not care who walked the
// bytes — WalkLayerReader, or a store that decomposes the layer
// anyway and reports each member as it goes (blobstore.MemberObserver).
type LayerAccumulator struct {
	wl       *WalkedLayer
	dirs     map[string]bool
	maxDepth int
}

// NewLayerAccumulator starts the accumulation for layer ld.
func NewLayerAccumulator(ld digest.Digest) *LayerAccumulator {
	return &LayerAccumulator{
		wl:   &WalkedLayer{profile: LayerProfile{Digest: ld}},
		dirs: make(map[string]bool),
	}
}

// Dir records a directory entry.
func (a *LayerAccumulator) Dir(e tarutil.Entry) { a.place(e) }

// File records any other entry. key is the 64-bit prefix of the content's
// SHA-256 (digest.Hasher.Key64 and digest.Digest.Key64 agree); head is the
// content's leading bytes, of which at most the classification prefix is
// looked at, and is not retained.
func (a *LayerAccumulator) File(e tarutil.Entry, key uint64, head []byte) {
	a.place(e)
	if len(head) > classifyPrefix {
		head = head[:classifyPrefix]
	}
	a.wl.profile.FileCount++
	a.wl.profile.FLS += e.Size
	a.wl.files = append(a.wl.files, dedup.FileObs{
		Key:  key,
		Size: e.Size,
		Type: filetype.Classify(e.Name, head),
	})
}

// place censuses the entry's directories and depth.
func (a *LayerAccumulator) place(e tarutil.Entry) {
	addParents(a.dirs, e)
	if e.Depth > a.maxDepth {
		a.maxDepth = e.Depth
	}
}

// Finish seals the layer with its compressed size (the wire bytes of the
// whole blob) and returns it. The accumulator must not be used afterwards.
func (a *LayerAccumulator) Finish(cls int64) *WalkedLayer {
	a.wl.profile.CLS = cls
	a.wl.profile.DirCount = int32(len(a.dirs))
	a.wl.profile.MaxDepth = int32(a.maxDepth)
	return a.wl
}

// addParents records the directory (for dir entries) and every ancestor
// directory of the entry path.
func addParents(dirs map[string]bool, e tarutil.Entry) {
	p := strings.Trim(e.Name, "/")
	if e.IsDir && p != "" {
		dirs[p] = true
	}
	for {
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			return
		}
		p = p[:i]
		dirs[p] = true
	}
}
