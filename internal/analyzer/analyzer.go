// Package analyzer builds the paper's layer and image profiles (§III-C).
//
// Two sources feed one fold:
//
//   - AnalyzeModel reads layer profiles, image layer lists and file
//     instances straight from a synthetic dataset's model — the fast path
//     used for statistics at large scale.
//   - AnalyzeWalks takes each unique layer's walk from one function, in
//     parallel: a store walk (AnalyzeStore decompresses and walks real
//     layer tarballs, classifying every file by magic number and
//     digesting its content — "the analyzer extracts the downloaded
//     layers and analyzes them along with the image manifests"), or one
//     made earlier by the fused pipeline or the live service.
//
// fold turns either into a Result: per-layer profiles (digest, FLS, CLS,
// file and directory counts, maximum depth, image references), per-image
// profiles (CIS, FIS, aggregate counts), and a dedup.Index over all file
// instances. It runs on one goroutine and feeds the census in layer
// order, which fixes the Result.Layers indices; the census reads the same
// in any order. The Result is therefore the same at every worker count.
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

// AnalyzeModel profiles a synthetic dataset in model mode: the model is a
// source of layer profiles, image layer lists and file instances for fold.
// The model knows its unique files, so the census is sized exactly.
func AnalyzeModel(d *synth.Dataset) (*Result, error) {
	layers := make([]LayerProfile, len(d.Layers))
	widest := 0 // the most file instances in one layer
	for i := range d.Layers {
		l := &d.Layers[i]
		widest = max(widest, l.FileCount())
		layers[i] = LayerProfile{
			Digest:    d.LayerDigest(synth.LayerID(i)),
			FLS:       l.FLS,
			CLS:       l.CLS,
			FileCount: int32(l.FileCount()),
			DirCount:  l.DirCount,
			MaxDepth:  l.MaxDepth,
			Refs:      l.Refs,
		}
	}
	images := make([][]int32, len(d.Images))
	for i := range d.Images {
		for _, l := range d.ImageLayers(synth.ImageID(i)) {
			images[i] = append(images[i], int32(l))
		}
	}
	obs := make([]dedup.FileObs, 0, widest) // one layer's instances, reused across layers
	return fold(layers, images, len(d.Files), func(i int) []dedup.FileObs {
		obs = obs[:0]
		for _, f := range d.LayerFiles(synth.LayerID(i)) {
			uf := &d.Files[f]
			obs = append(obs, dedup.FileObs{Key: uint64(f), Size: uf.Size, Type: uf.Type})
		}
		return obs
	})
}

// fold assembles a Result. layers carry their Refs; images holds each
// image's layer indexes in manifest order; files(i) returns layer i's
// file instances and may reuse one buffer across calls. The census is fed
// in layer order, so its layer numbering is Result.Layers'. Each layer's
// instances are then read once more against the finished census for the
// duplicate fractions of Fig. 26. uniqueHint pre-sizes the census.
func fold(layers []LayerProfile, images [][]int32, uniqueHint int, files func(i int) []dedup.FileObs) (*Result, error) {
	res := &Result{
		Layers: layers,
		Images: make([]ImageProfile, len(images)),
		Index:  dedup.NewIndexSized(uniqueHint),
	}
	for i := range layers {
		res.Index.AddLayer(layers[i].Refs, files(i))
	}

	imageDup := make([]int64, len(layers)) // each layer's cross-image dup instances
	for i := range layers {
		var layerDup int64
		for _, o := range files(i) {
			cl, ci, err := res.Index.CrossDup(o.Key)
			if err != nil {
				return nil, fmt.Errorf("analyzer: cross-dup: %w", err)
			}
			if cl {
				layerDup++
			}
			if ci {
				imageDup[i]++
			}
		}
		if n := int64(layers[i].FileCount); n > 0 {
			layers[i].CrossLayerDupFrac = float64(layerDup) / float64(n)
		}
	}

	for i, idxs := range images {
		im := &res.Images[i]
		im.Layers = idxs
		var dup int64
		for _, l := range idxs {
			lp := &layers[l]
			im.CIS += lp.CLS
			im.FIS += lp.FLS
			im.FileCount += int64(lp.FileCount)
			im.DirCount += int64(lp.DirCount)
			dup += imageDup[l]
		}
		if im.FileCount > 0 {
			im.CrossImageDupFrac = float64(dup) / float64(im.FileCount)
		}
	}
	return res, nil
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
// at a time (engine.ForEach), then folds the walks in layer order on one
// goroutine. That order is fixed up front from manifest order, so the
// Result does not depend on which walk finished first.
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

	// Unique layers, first-seen order, with their image reference counts.
	// This numbering is the deterministic layer order of the Result.
	layerIdx := make(map[digest.Digest]int32)
	var layers []LayerProfile
	imageLayers := make([][]int32, len(sorted))
	for i, img := range sorted {
		for _, ld := range img.Manifest.LayerDigests() {
			idx, ok := layerIdx[ld]
			if !ok {
				idx = int32(len(layers))
				layerIdx[ld] = idx
				layers = append(layers, LayerProfile{Digest: ld})
			}
			layers[idx].Refs++
			imageLayers[i] = append(imageLayers[i], idx)
		}
	}

	// walked[i] and layers[i] are written by the one call that walks
	// layer i.
	walked := make([]*WalkedLayer, len(layers))
	err := engine.ForEach(ctx, workers, len(layers), func(_ context.Context, i int) error {
		lp := &layers[i]
		wl, err := walk(lp.Digest)
		if err != nil {
			return fmt.Errorf("analyzer: layer %s: %w", lp.Digest.Short(), err)
		}
		walked[i] = wl
		refs := lp.Refs
		*lp = wl.profile
		lp.Refs = refs
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The unique-file count is unknown until the fold, so the census
	// grows from empty.
	return fold(layers, imageLayers, 0, func(i int) []dedup.FileObs { return walked[i].files })
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
