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
package analyzer

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/blobstore"
	"repro/internal/dedup"
	"repro/internal/digest"
	"repro/internal/downloader"
	"repro/internal/filetype"
	"repro/internal/stats"
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
	Repo      string
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
	// FileSizes streams instance file-size percentiles (p50/p90) in O(1)
	// memory — at the paper's 5.28 B files an exact CDF cannot be stored.
	FileSizes *stats.P2Digest
}

// newResult allocates the shared result skeleton. uniqueHint pre-sizes the
// dedup census (exact in model mode, estimated in wire mode).
func newResult(layers, images, uniqueHint int) *Result {
	return &Result{
		Layers:    make([]LayerProfile, layers),
		Images:    make([]ImageProfile, images),
		Index:     dedup.NewIndexSized(uniqueHint),
		FileSizes: stats.NewP2Digest(0.5, 0.9),
	}
}

// AnalyzeModel profiles a synthetic dataset in model mode.
func AnalyzeModel(d *synth.Dataset) (*Result, error) {
	res := newResult(len(d.Layers), len(d.Images), len(d.Files))
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
		if err := res.Index.BeginLayer(l.Refs); err != nil {
			return nil, err
		}
		for _, f := range d.LayerFiles(synth.LayerID(i)) {
			uf := &d.Files[f]
			if err := res.Index.Observe(uint64(f), uf.Size, uf.Type); err != nil {
				return nil, err
			}
			res.FileSizes.Add(float64(uf.Size))
		}
		if err := res.Index.EndLayer(); err != nil {
			return nil, err
		}
	}
	if err := res.Index.Seal(); err != nil {
		return nil, err
	}

	for i := range d.Images {
		im := &res.Images[i]
		im.Repo = d.Repos[d.Images[i].Repo].Name
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
// the frozen index, given a function returning each layer's file keys.
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
// WalkLayerReader and consumed by AnalyzeWalkedContext/AnalyzeStore. files is
// sorted by key after census ingestion (dedup.Index.ObserveLayer sorts in
// place), which keeps downstream per-file iteration deterministic
// regardless of walk scheduling.
type WalkedLayer struct {
	profile LayerProfile
	files   []dedup.FileObs
}

// Profile returns the walked layer's profile. Refs is zero: reference
// counts are a property of the image set, not of the layer bytes, and
// are assigned by whichever analysis consumes the walk.
func (wl *WalkedLayer) Profile() LayerProfile { return wl.profile }

// Files returns the layer's file observations. The live-analytics
// service retains them verbatim and replays them into its census
// (dedup.Index.ObserveLayer sorts them by key on first ingestion, the
// same canonical order the batch drain sees); callers must treat the
// slice as immutable once ingested.
func (wl *WalkedLayer) Files() []dedup.FileObs { return wl.files }

// uniqueFilesPerLayerHint pre-sizes the wire-mode dedup census: at paper
// scale 5.28 B instances over 1.79 M unique layers is ~2950 files per
// layer, of which ~3.2% survive dedup — roughly 94 unique files per layer.
const uniqueFilesPerLayerHint = 96

// AnalyzeStore profiles downloaded images whose layer blobs live in store.
// workers bounds concurrent layer walks (GOMAXPROCS if ≤ 0). Layer blobs
// may be gzip-compressed tarballs (the registry wire format) or plain
// tarballs (the uncompressed storage policy the paper proposes for small
// layers) — both are handled in a single fetch per blob.
//
// The pipeline is parallel end to end: layer numbers are fixed up front
// from manifest order, workers stream each walked layer straight into the
// sharded dedup census as it finishes (no barrier, no serial re-feed), and
// an ordered drain folds per-layer results into the profile and file-size
// digests in layer order. The census is order-independent and the ordered
// drain is schedule-independent, so the Result is identical for every
// worker count.
func AnalyzeStore(store blobstore.Store, images []downloader.Image, workers int) (*Result, error) {
	return analyze(context.Background(), store, images, nil, workers)
}

// AnalyzeStoreContext is AnalyzeStore with cancellation: when ctx is done,
// in-flight layer walks wind down and the analysis returns ctx's error.
func AnalyzeStoreContext(ctx context.Context, store blobstore.Store, images []downloader.Image, workers int) (*Result, error) {
	return analyze(ctx, store, images, nil, workers)
}

// AnalyzeWalkedContext is AnalyzeStoreContext for layers that were already
// walked while they streamed off the wire (the fused pipeline): a layer
// present in walked skips the store fetch and re-walk entirely; anything
// missing (e.g. a tee attempt that failed and was re-fetched without the
// tee) falls back to walking the store blob. The walked map is consumed —
// file observations are sorted in place and Refs assigned — so it must not
// be reused across calls. The result is bit-identical to AnalyzeStore over
// the same store.
func AnalyzeWalkedContext(ctx context.Context, store blobstore.Store, images []downloader.Image, walked map[digest.Digest]*WalkedLayer, workers int) (*Result, error) {
	return analyze(ctx, store, images, walked, workers)
}

func analyze(ctx context.Context, store blobstore.Store, images []downloader.Image, prewalked map[digest.Digest]*WalkedLayer, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Deterministic image order regardless of download completion order.
	sorted := append([]downloader.Image(nil), images...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Repo < sorted[j].Repo })

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

	res := newResult(len(layerDigests), 0, len(layerDigests)*uniqueFilesPerLayerHint)
	res.Images = make([]ImageProfile, 0, len(sorted))

	// Walk layers in parallel, streaming each straight into the census.
	walked := make([]*WalkedLayer, len(layerDigests))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		quit     = make(chan struct{})
		quitOnce sync.Once
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		quitOnce.Do(func() { close(quit) })
	}
	work := make(chan int32)
	completed := make(chan int32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var i int32
				select {
				case <-quit:
					return
				case <-ctx.Done():
					fail(ctx.Err())
					return
				case idx, ok := <-work:
					if !ok {
						return
					}
					i = idx
				}
				wl := prewalked[layerDigests[i]]
				if wl == nil {
					if store == nil {
						fail(fmt.Errorf("analyzer: layer %s: not pre-walked and no store to fall back to", layerDigests[i].Short()))
						return
					}
					var err error
					wl, err = walkLayer(store, layerDigests[i])
					if err != nil {
						fail(fmt.Errorf("analyzer: layer %s: %w", layerDigests[i].Short(), err))
						return
					}
				}
				wl.profile.Refs = refs[i]
				if err := res.Index.ObserveLayer(i, refs[i], wl.files); err != nil {
					fail(err)
					return
				}
				walked[i] = wl
				select {
				case completed <- i:
				case <-quit:
					return
				}
			}
		}()
	}
	go func() {
		// Feed work until done or the first error cancels the walk.
		defer close(work)
		for i := range layerDigests {
			select {
			case work <- int32(i):
			case <-quit:
				return
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(completed)
	}()

	// Ordered drain: fold completed layers into the profiles and the
	// file-size digest in layer order, while later layers are still being
	// walked. The P² digest is order-sensitive, so this fixed feed order
	// is what keeps quantiles bit-identical across worker counts.
	next := int32(0)
	arrived := make([]bool, len(layerDigests))
	for i := range completed {
		arrived[i] = true
		for int(next) < len(arrived) && arrived[next] {
			wl := walked[next]
			res.Layers[next] = wl.profile
			for _, f := range wl.files {
				res.FileSizes.Add(float64(f.Size))
			}
			next++
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if int(next) != len(layerDigests) {
		return nil, fmt.Errorf("analyzer: internal: %d of %d layers analyzed", next, len(layerDigests))
	}
	if err := res.Index.Seal(); err != nil {
		return nil, err
	}

	for _, img := range sorted {
		im := ImageProfile{Repo: img.Repo}
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

// walkLayer decompresses and walks one layer blob from the store. The blob
// is fetched exactly once: tarutil.WalkAuto sniffs the gzip magic through a
// buffered reader, so plain-tar blobs need no re-fetch.
func walkLayer(store blobstore.Store, ld digest.Digest) (*WalkedLayer, error) {
	rc, _, err := store.Get(ld)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return WalkLayerReader(ld, rc)
}

// countReader tracks the bytes consumed from the underlying stream; after
// the post-walk drain its total is the compressed layer size (CLS).
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// WalkLayerReader decompresses and walks one layer tarball as it streams
// past, producing its profile and file observations. Like the paper's
// analyzer it traverses every entry; unlike docker pull it never extracts
// to disk. The stream is always consumed to its end, even on a walk error
// — so when r is a tee of an in-flight download, the transfer never blocks
// on an abandoned pipe and the stream's terminal verdict (the fetch error
// that replaces io.EOF) surfaces here: a nil error means the walked bytes
// were verified end to end.
func WalkLayerReader(ld digest.Digest, r io.Reader) (*WalkedLayer, error) {
	cr := &countReader{r: r}
	acc, walkErr := walkReader(ld, cr)
	// Drain: trailing bytes (tar padding the walker does not consume)
	// complete the CLS count, and a teed stream reaches its verdict.
	_, drainErr := io.Copy(io.Discard, cr)
	if walkErr != nil {
		return nil, walkErr
	}
	if drainErr != nil {
		return nil, drainErr
	}
	return acc.Finish(cr.n), nil
}

// walkReader is the byte-walking front end of LayerAccumulator: it
// inflates and tar-walks rc, hashes each member and hands the accumulator
// what a decomposing store would have reported.
func walkReader(ld digest.Digest, rc io.Reader) (*LayerAccumulator, error) {
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
			// onlyReader hides tar.Reader's WriterTo, whose internal
			// io.Copy would allocate a fresh buffer per file and defeat
			// copyBuf.
			if _, err := io.CopyBuffer(sc.h, onlyReader{content}, sc.copyBuf[:]); err != nil {
				return fmt.Errorf("hashing %s: %w", e.Name, err)
			}
		}
		acc.File(e, sc.h.Key64(), head)
		return nil
	}

	if err := tarutil.WalkAuto(rc, walkFn); err != nil {
		return nil, err
	}
	return acc, nil
}

// LayerAccumulator folds the members of one layer into its WalkedLayer:
// directory census (explicit entries and implied parents), maximum depth,
// FLS, and one classified dedup.FileObs per file. It is the only place
// that turns members into a profile; it does not care who walked the
// bytes — this package's walkReader, or a store that decomposes the layer
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

// onlyReader strips every optional interface (WriterTo in particular) off
// a reader so io.CopyBuffer actually uses the supplied buffer.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

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
