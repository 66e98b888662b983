// Package analytics is the always-on incremental analysis service: the
// batch study's figures, maintained live by the registry's write path and
// served from a query API.
//
// A Live instance implements registry.Ingest. Blob uploads are analyzed in
// the pass that stores them — over a store that decomposes layers
// (dedupstore) by observing the store's own walk, member by member
// (BlobMembers); over a plain store by teeing the verified bytes through
// the fused-pipeline walker as they cross the wire (BlobStream,
// analyzer.WalkLayerReader). Either way there is no second read of the
// blob, and both feed analyzer.LayerAccumulator. Manifest tags
// and deletes adjust a reference-counted image/layer table; and a sharded
// dedup census (dedup.Index) is maintained incrementally — ObserveLayer
// when a layer's reference count rises from zero, RemoveLayer when it
// falls back — instead of being rebuilt per study.
//
// # Bit-identical figures
//
// The contract, inherited from every prior refactor: figures rendered
// from the live state are sha256-identical to a batch AnalyzeStore pass
// over the same surviving images. Three properties make that hold:
//
//  1. Census record equality. Every aggregate a figure reads from the
//     census (instances, distinct-layer counts, sizes, types) is updated
//     commutatively and invertibly, so the incrementally maintained
//     records equal a fresh batch feed over the survivors. The two
//     non-invertible census fields (lastLayer, maxRefs) are never read on
//     the live path: cross-image duplication uses dedup.CrossDupLive with
//     reference counts the snapshot computes exactly.
//  2. Canonical render order. Order-sensitive state — the P² file-size
//     quantile digest, layer numbering, reference counts — is not
//     maintained incrementally at all: it is recomputed per snapshot from
//     the retained per-layer walk results in the exact order the batch
//     pipeline uses (images sorted by repo, layers numbered first-seen in
//     manifest order, observations already key-sorted per layer).
//  3. Identical walk bytes. The tee hands the walker the same verified
//     bytes the store keeps, and a decomposing store reports the members
//     of the very blob it commits, so per-layer profiles (FLS, CLS,
//     depths, classified types) match a store re-walk byte for byte.
//
// Walked layers are retained even at reference count zero: a delete
// followed by a re-push reuses the cached walk, and the census round-trip
// (remove, re-add) restores identical records.
//
// # Snapshots
//
// Reads never lock out writes for long: Snapshot clones the census
// (copy-on-read of the shard maps) and the image table under the ingest
// mutex, stamps it with an epoch, and memoizes it until the next write.
// Figure rendering then runs entirely on the immutable snapshot — a
// long-running render observes one consistent epoch while pushes land.
package analytics

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/dedup"
	"repro/internal/digest"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tarutil"
)

// layerEntry is the live state of one unique layer digest. profile and
// files are immutable once set (the walk result); refs and seq mutate
// under Live.mu.
type layerEntry struct {
	profile analyzer.LayerProfile // Refs zero; snapshots compute refs
	files   []dedup.FileObs       // key-sorted after census ingestion
	refs    int32                 // current manifest-occurrence references
	seq     int32                 // census layer number while live; -1 when refs==0
}

// imageEntry is one tagged image: the unit the figures call an "image".
type imageEntry struct {
	repo   string
	tag    string
	digest digest.Digest
	layers []digest.Digest // manifest order, duplicates preserved
}

// IngestStats counts write-path activity the service observed.
type IngestStats struct {
	BlobsWalked    int64 `json:"blobs_walked"`    // uploads analyzed in flight (store-reported members or byte tee) that verified clean
	WalkErrors     int64 `json:"walk_errors"`     // uploads that yielded no walk: non-layer blobs (configs, manifests), aborted uploads, re-uploads a decomposing store drained
	FallbackWalks  int64 `json:"fallback_walks"`  // layers walked from the store (not seen on the wire)
	ManifestEvents int64 `json:"manifest_events"` // tag creations/moves applied
	TagDeletes     int64 `json:"tag_deletes"`     // tag removals applied
	SkippedLayers  int64 `json:"skipped_layers"`  // referenced layers with no walk available (degraded)
}

// Live is the resident analytics state. It implements registry.Ingest.
type Live struct {
	store blobstore.Store       // fallback walk source; may be nil
	repos []manifest.Repository // dataset metadata for repo-population figures; may be nil

	mu     sync.Mutex
	census *dedup.Index
	layers map[digest.Digest]*layerEntry
	images map[string]*imageEntry // keyed repo + "\n" + tag
	seq    int32                  // next census layer number
	epoch  uint64
	snap   *Snapshot // memoized snapshot of the current epoch

	walked         atomic.Int64
	walkErrors     atomic.Int64
	fallbackWalks  atomic.Int64
	manifestEvents atomic.Int64
	tagDeletes     atomic.Int64
	skippedLayers  atomic.Int64
}

// New creates a Live service. store, when non-nil, lets the service walk
// layers it never saw on the wire (administrative SetTag restores,
// cluster-seeded state). repos, when non-nil, supplies the repository
// population for the crawl-side figures (fig 3–8).
func New(store blobstore.Store, repos []manifest.Repository) *Live {
	return &Live{
		store:  store,
		repos:  repos,
		census: dedup.NewIndex(),
		layers: make(map[digest.Digest]*layerEntry),
		images: make(map[string]*imageEntry),
	}
}

func imageKey(repo, tag string) string { return repo + "\n" + tag }

// BlobStream implements registry.Ingest for stores that keep blobs whole:
// walk the upload as it streams past. Every blob crosses here — configs
// and manifests fail the tar walk and are counted, not recorded. The
// stream is always drained (WalkLayerReader's contract), so the upload
// never stalls on the tee.
func (l *Live) BlobStream(d digest.Digest, r io.Reader) {
	wl, err := analyzer.WalkLayerReader(d, r)
	if err != nil {
		l.walkErrors.Add(1)
		return
	}
	l.walked.Add(1)
	l.recordWalk(wl)
}

// BlobMembers implements registry.Ingest for stores that decompose the
// layers they ingest: the store's own gunzip, tar walk and per-file
// SHA-256 feed the same accumulator WalkLayerReader drives, so the layer
// is inflated once, not twice.
func (l *Live) BlobMembers(d digest.Digest) registry.UploadObserver {
	return &memberWalk{live: l, acc: analyzer.NewLayerAccumulator(d)}
}

// memberWalk is one upload watched through the store's walk. What it
// accumulates stays provisional until End; an upload that never gets
// there (a config, a rejected body, a blob the store drained because it
// already had it) is dropped and counted like a failed byte walk.
type memberWalk struct {
	live  *Live
	acc   *analyzer.LayerAccumulator
	ended bool
}

func (m *memberWalk) Dir(e tarutil.Entry) { m.acc.Dir(e) }

func (m *memberWalk) File(e tarutil.Entry, sum digest.Digest, head []byte) {
	m.acc.File(e, sum.Key64(), head)
}

func (m *memberWalk) End(wireBytes int64) {
	m.ended = true
	m.live.walked.Add(1)
	m.live.recordWalk(m.acc.Finish(wireBytes))
}

func (m *memberWalk) Close() {
	if !m.ended {
		m.live.walkErrors.Add(1)
	}
}

// recordWalk retains a verified walk result; the first one for a digest
// wins (the bytes, hence the results, are identical).
func (l *Live) recordWalk(wl *analyzer.WalkedLayer) {
	p := wl.Profile()
	l.mu.Lock()
	if _, ok := l.layers[p.Digest]; !ok {
		l.layers[p.Digest] = &layerEntry{profile: p, files: wl.Files(), seq: -1}
	}
	l.mu.Unlock()
}

// ManifestTagged implements registry.Ingest: a tag now points at manifest
// d. Layers gaining their first reference enter the census; a replaced
// image's layers leave it when their count returns to zero. New-image
// references are counted before the old image's are released so a shared
// layer never round-trips through the census on a tag move.
func (l *Live) ManifestTagged(repo, tag string, d digest.Digest, m *manifest.Manifest) {
	if m == nil {
		var err error
		if m, err = l.loadManifest(d); err != nil {
			l.skippedLayers.Add(1)
			return
		}
	}
	lds := m.LayerDigests()
	for _, ld := range lds {
		l.ensureWalked(ld)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	key := imageKey(repo, tag)
	old := l.images[key]
	if old != nil && old.digest == d {
		return // idempotent re-push of the identical manifest
	}
	l.images[key] = &imageEntry{repo: repo, tag: tag, digest: d, layers: lds}
	for _, ld := range lds {
		l.refLocked(ld)
	}
	if old != nil {
		for _, ld := range old.layers {
			l.unrefLocked(ld)
		}
	}
	l.manifestEvents.Add(1)
	l.bumpLocked()
}

// TagDeleted implements registry.Ingest: the tag was removed; release its
// image's layer references. The walk cache is retained so a later
// re-push needs no re-walk.
func (l *Live) TagDeleted(repo, tag string, d digest.Digest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := imageKey(repo, tag)
	im := l.images[key]
	if im == nil || im.digest != d {
		return // stale or duplicate notification
	}
	delete(l.images, key)
	for _, ld := range im.layers {
		l.unrefLocked(ld)
	}
	l.tagDeletes.Add(1)
	l.bumpLocked()
}

// loadManifest reads and parses a manifest blob from the store.
func (l *Live) loadManifest(d digest.Digest) (*manifest.Manifest, error) {
	if l.store == nil {
		return nil, errors.New("analytics: no store to load manifest from")
	}
	rc, _, err := l.store.Get(d)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	return manifest.Unmarshal(raw)
}

// ensureWalked guarantees a walk result exists for ld, falling back to a
// store walk for layers that never crossed the wire tee. Failures leave
// the entry absent; refLocked then counts the degradation.
func (l *Live) ensureWalked(ld digest.Digest) {
	l.mu.Lock()
	_, ok := l.layers[ld]
	l.mu.Unlock()
	if ok || l.store == nil {
		return
	}
	rc, _, err := l.store.Get(ld)
	if err != nil {
		return
	}
	wl, err := analyzer.WalkLayerReader(ld, rc)
	rc.Close()
	if err != nil {
		l.walkErrors.Add(1)
		return
	}
	l.fallbackWalks.Add(1)
	l.recordWalk(wl)
}

// refLocked adds one image reference to a layer, rolling it into the
// census on the 0→1 transition. Callers hold l.mu.
func (l *Live) refLocked(ld digest.Digest) {
	e := l.layers[ld]
	if e == nil {
		l.skippedLayers.Add(1)
		return
	}
	e.refs++
	if e.refs == 1 {
		e.seq = l.seq
		l.seq++
		// Live census layer numbers are an internal sequence and refs is
		// fed as 1: neither lastLayer nor maxRefs is read on the live path
		// (snapshots recompute numbering and refs canonically).
		if err := l.census.ObserveLayer(e.seq, 1, e.files); err != nil {
			l.skippedLayers.Add(1)
		}
	}
}

// unrefLocked drops one image reference, rolling the layer back out of
// the census on the 1→0 transition. Callers hold l.mu.
func (l *Live) unrefLocked(ld digest.Digest) {
	e := l.layers[ld]
	if e == nil || e.refs == 0 {
		return
	}
	e.refs--
	if e.refs == 0 {
		e.seq = -1
		if err := l.census.RemoveLayer(e.files); err != nil {
			l.skippedLayers.Add(1)
		}
	}
}

// bumpLocked advances the epoch and invalidates the memoized snapshot.
func (l *Live) bumpLocked() {
	l.epoch++
	l.snap = nil
}

// Epoch returns the current mutation epoch.
func (l *Live) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Stats returns the ingest counters.
func (l *Live) Stats() IngestStats {
	return IngestStats{
		BlobsWalked:    l.walked.Load(),
		WalkErrors:     l.walkErrors.Load(),
		FallbackWalks:  l.fallbackWalks.Load(),
		ManifestEvents: l.manifestEvents.Load(),
		TagDeletes:     l.tagDeletes.Load(),
		SkippedLayers:  l.skippedLayers.Load(),
	}
}

// Snapshot returns a consistent, immutable view of the current epoch.
// Snapshots are memoized: repeated calls between writes share one clone,
// and the expensive figure render inside it is computed at most once.
func (l *Live) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap != nil {
		return l.snap
	}
	s := &Snapshot{
		Epoch:  l.epoch,
		repos:  l.repos,
		census: l.census.Clone(),
		layers: make(map[digest.Digest]*layerEntry, len(l.layers)),
		stats:  l.Stats(),
	}
	for _, im := range l.images {
		s.images = append(s.images, *im)
	}
	// Canonical image order: the batch pipeline sorts by repo (stable
	// input order breaks ties); live images get the deterministic
	// (repo, tag) order, identical when each repo holds one tag.
	sort.Slice(s.images, func(i, j int) bool {
		if s.images[i].repo != s.images[j].repo {
			return s.images[i].repo < s.images[j].repo
		}
		return s.images[i].tag < s.images[j].tag
	})
	// Layer entries are shared by pointer: profile and files are
	// immutable once walked, and snapshot reads never touch the mutable
	// refs/seq fields.
	for ld, e := range l.layers {
		s.layers[ld] = e
	}
	l.snap = s
	return s
}

// Snapshot is an immutable view of one epoch. All methods are safe for
// concurrent use; renders are memoized.
type Snapshot struct {
	Epoch  uint64
	repos  []manifest.Repository
	census *dedup.Index
	images []imageEntry
	layers map[digest.Digest]*layerEntry
	stats  IngestStats

	renderOnce sync.Once
	result     *analyzer.Result
	renderErr  error

	figOnce sync.Once
	figures []report.Figure
}

// Result renders the batch-equivalent analyzer.Result for this epoch:
// bit-identical to AnalyzeStore over the snapshot's images. Layer
// numbering, reference counts, the P² file-size digest, and cross-dup
// fractions are all recomputed here in batch-canonical order from the
// retained walk results; only the order-free census is reused.
func (s *Snapshot) Result() (*analyzer.Result, error) {
	s.renderOnce.Do(func() { s.result, s.renderErr = s.render() })
	return s.result, s.renderErr
}

func (s *Snapshot) render() (*analyzer.Result, error) {
	// First-seen layer numbering over canonically ordered images, refs per
	// manifest occurrence — exactly analyze()'s preamble.
	layerIdx := make(map[digest.Digest]int32)
	var layerDigests []digest.Digest
	var refs []int32
	for i := range s.images {
		for _, ld := range s.images[i].layers {
			if _, ok := layerIdx[ld]; !ok {
				layerIdx[ld] = int32(len(layerDigests))
				layerDigests = append(layerDigests, ld)
				refs = append(refs, 0)
			}
			refs[layerIdx[ld]]++
		}
	}

	res := &analyzer.Result{
		Layers:    make([]analyzer.LayerProfile, len(layerDigests)),
		Images:    make([]analyzer.ImageProfile, 0, len(s.images)),
		Index:     s.census,
		FileSizes: stats.NewP2Digest(0.5, 0.9),
	}
	entries := make([]*layerEntry, len(layerDigests))
	for i, ld := range layerDigests {
		e := s.layers[ld]
		if e == nil {
			return nil, fmt.Errorf("analytics: layer %s referenced but never walked", ld.Short())
		}
		entries[i] = e
		res.Layers[i] = e.profile
		res.Layers[i].Refs = refs[i]
		// The P² digest is order-sensitive: feed observations in layer
		// order, each layer's already key-sorted — the batch drain's feed
		// order exactly.
		for _, f := range e.files {
			res.FileSizes.Add(float64(f.Size))
		}
	}

	for i := range s.images {
		img := &s.images[i]
		im := analyzer.ImageProfile{Repo: img.repo}
		for _, ld := range img.layers {
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

	if err := s.fillCrossDup(res, entries); err != nil {
		return nil, err
	}
	return res, nil
}

// fillCrossDup mirrors the analyzer's pass, substituting CrossDupLive
// (exact refs supplied per layer) for the frozen-index maxRefs read.
func (s *Snapshot) fillCrossDup(res *analyzer.Result, entries []*layerEntry) error {
	imageDupCnt := make([]int64, len(res.Layers))
	for i := range res.Layers {
		var layerDup int64
		for _, f := range entries[i].files {
			cl, ci, err := s.census.CrossDupLive(f.Key, res.Layers[i].Refs)
			if err != nil {
				return fmt.Errorf("analytics: cross-dup: %w", err)
			}
			if cl {
				layerDup++
			}
			if ci {
				imageDupCnt[i]++
			}
		}
		if n := int64(res.Layers[i].FileCount); n > 0 {
			res.Layers[i].CrossLayerDupFrac = float64(layerDup) / float64(n)
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

// Figures renders the full figure set for this epoch (memoized).
func (s *Snapshot) Figures() ([]report.Figure, error) {
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	s.figOnce.Do(func() {
		s.figures = report.All(&report.Source{Analysis: res, Repos: s.repos})
	})
	return s.figures, nil
}

// Summary is the quick operational view: current population and dedup
// state plus ingest accounting.
type Summary struct {
	Epoch        uint64       `json:"epoch"`
	Images       int          `json:"images"`
	Layers       int          `json:"layers"`        // live (referenced) unique layers
	WalkedLayers int          `json:"walked_layers"` // walk-cache size incl. unreferenced
	Dedup        dedup.Ratios `json:"dedup"`
	Ingest       IngestStats  `json:"ingest"`
}

// Summary computes the operational summary for this epoch.
func (s *Snapshot) Summary() Summary {
	live := 0
	seen := make(map[digest.Digest]bool)
	for i := range s.images {
		for _, ld := range s.images[i].layers {
			if !seen[ld] {
				seen[ld] = true
				live++
			}
		}
	}
	return Summary{
		Epoch:        s.Epoch,
		Images:       len(s.images),
		Layers:       live,
		WalkedLayers: len(s.layers),
		Dedup:        s.census.Ratios(),
		Ingest:       s.stats,
	}
}
