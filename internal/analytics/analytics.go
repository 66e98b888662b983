// Package analytics is the always-on analysis service: the batch study's
// figures, computed from what the registry's write path has seen and
// served from a query API.
//
// A Live instance implements registry.Ingest. Blob uploads are analyzed
// before the push is answered — over a store that decomposes layers
// (dedupstore) by observing the store's own walk, member by member
// (BlobMembers), so the layer is inflated once; over a plain store by
// walking the committed blob, read back from the store, with the
// fused-pipeline walker (BlobStream, analyzer.WalkLayerReader) — the
// paper's analyzer, too, walks layers after they are stored. Both feed
// analyzer.LayerAccumulator. Live keeps two things:
// the walk cache (one analyzer.WalkedLayer per layer digest, never
// evicted, so a delete followed by a re-push needs no re-walk) and the tag
// table (one image per repo and tag), which manifest tags and deletes
// edit.
//
// # Bit-identical figures
//
// A snapshot's Result is analyzer.AnalyzeWalks over the snapshot's tagged
// images, in (repo, tag) order, taking each walk from the cache: the batch
// assembly itself, not a copy of it. Figures therefore equal a batch
// AnalyzeStore pass over the same surviving images whenever the walks do,
// and they do: the walker reads the very bytes the store committed, and a
// decomposing store reports the members of the very blob it commits, so
// per-layer profiles (FLS, CLS, depths, classified types) match a store
// re-walk byte for byte.
//
// # Snapshots
//
// Reads never lock out writes for long: Snapshot copies the tag table and
// the walk cache's index under the ingest mutex, stamps the copy with an
// epoch, and memoizes it until the next write. The analysis and the
// figure render then run at most once per snapshot, on the copy — a
// long-running render observes one consistent epoch while pushes land.
// Walks are shared between snapshots and never written after they are
// finished.
package analytics

import (
	"context"
	"errors"
	"io"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/dedup"
	"repro/internal/digest"
	"repro/internal/downloader"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/tarutil"
)

// tagKey names one entry of the tag table: the unit the figures call an
// "image".
type tagKey struct{ repo, tag string }

// IngestStats counts write-path activity the service observed.
type IngestStats struct {
	BlobsWalked    int64 `json:"blobs_walked"`    // committed uploads walked at upload time (store-reported members or the stored blob read back)
	WalkErrors     int64 `json:"walk_errors"`     // uploads that yielded no walk: non-layer blobs (configs, manifests); over a decomposing store also rejected uploads, re-uploads it drained, and uploads it stored verbatim after a failed walk
	FallbackWalks  int64 `json:"fallback_walks"`  // layers walked from the store (not seen on the wire)
	ManifestEvents int64 `json:"manifest_events"` // tag creations/moves applied
	TagDeletes     int64 `json:"tag_deletes"`     // tag removals applied
	SkippedLayers  int64 `json:"skipped_layers"`  // referenced layers with no walk available (degraded)
}

// Live is the resident analytics state. It implements registry.Ingest.
type Live struct {
	store blobstore.Store       // fallback walk source; may be nil
	repos []manifest.Repository // dataset metadata for repo-population figures; may be nil

	mu    sync.Mutex
	walks map[digest.Digest]*analyzer.WalkedLayer // finished walks, never evicted
	tags  map[tagKey]downloader.Image
	epoch uint64
	snap  *Snapshot // memoized snapshot of the current epoch

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
		store: store,
		repos: repos,
		walks: make(map[digest.Digest]*analyzer.WalkedLayer),
		tags:  make(map[tagKey]downloader.Image),
	}
}

// BlobStream implements registry.Ingest for stores that keep blobs whole:
// walk the committed blob the registry read back. Every committed upload
// crosses here — configs and manifests fail the tar walk and are counted,
// not recorded.
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
// there (a rejected body, a blob the store drained because it already had
// it, a blob it stored verbatim after its walk failed) is dropped and
// counted like a failed byte walk.
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
	d := wl.Profile().Digest
	l.mu.Lock()
	if _, ok := l.walks[d]; !ok {
		l.walks[d] = wl
	}
	l.mu.Unlock()
}

// ManifestTagged implements registry.Ingest: a tag now points at manifest
// d. Its layers are walked from the store first if no upload was seen.
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
	key := tagKey{repo, tag}
	if old, ok := l.tags[key]; ok && old.Digest == d {
		return // idempotent re-push of the identical manifest
	}
	for _, ld := range lds {
		if l.walks[ld] == nil {
			l.skippedLayers.Add(1)
		}
	}
	l.tags[key] = downloader.Image{Repo: repo, Digest: d, Manifest: m}
	l.manifestEvents.Add(1)
	l.bumpLocked()
}

// TagDeleted implements registry.Ingest: the tag was removed. The walk
// cache is retained so a later re-push needs no re-walk.
func (l *Live) TagDeleted(repo, tag string, d digest.Digest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := tagKey{repo, tag}
	if im, ok := l.tags[key]; !ok || im.Digest != d {
		return // stale or duplicate notification
	}
	delete(l.tags, key)
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
// store walk for layers no upload walked. Failures leave the entry
// absent; ManifestTagged then counts the degradation.
func (l *Live) ensureWalked(ld digest.Digest) {
	l.mu.Lock()
	_, ok := l.walks[ld]
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
// Snapshots are memoized: repeated calls between writes share one copy,
// and the analysis and figure render inside it run at most once.
func (l *Live) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap != nil {
		return l.snap
	}
	keys := make([]tagKey, 0, len(l.tags))
	for k := range l.tags {
		keys = append(keys, k)
	}
	// The batch pipeline orders images by repo; live images get the
	// deterministic (repo, tag) order, which the analyzer's stable sort
	// keeps and RegistryImages reproduces.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].repo != keys[j].repo {
			return keys[i].repo < keys[j].repo
		}
		return keys[i].tag < keys[j].tag
	})
	s := &Snapshot{
		Epoch:  l.epoch,
		repos:  l.repos,
		images: make([]downloader.Image, len(keys)),
		walks:  maps.Clone(l.walks),
		stats:  l.Stats(),
	}
	for i, k := range keys {
		s.images[i] = l.tags[k]
	}
	l.snap = s
	return s
}

// Snapshot is an immutable view of one epoch. All methods are safe for
// concurrent use; the analysis and renders are memoized.
type Snapshot struct {
	Epoch  uint64
	repos  []manifest.Repository
	images []downloader.Image // (repo, tag) order
	walks  map[digest.Digest]*analyzer.WalkedLayer
	stats  IngestStats

	resultOnce sync.Once
	result     *analyzer.Result
	resultErr  error

	figOnce sync.Once
	figures []report.Figure
}

// Result is the batch analysis of this epoch: AnalyzeWalks over the
// snapshot's images, each walk looked up in the cache, hence
// bit-identical to AnalyzeStore over the same images. It fails when a
// tagged layer was never walked (IngestStats.SkippedLayers counts those).
// The analysis runs without a caller's context: it is memoized for every
// reader of the snapshot, not owned by whichever one asks first.
func (s *Snapshot) Result() (*analyzer.Result, error) {
	s.resultOnce.Do(func() {
		s.result, s.resultErr = analyzer.AnalyzeWalks(context.Background(), s.images, func(d digest.Digest) (*analyzer.WalkedLayer, error) {
			if wl := s.walks[d]; wl != nil {
				return wl, nil
			}
			return nil, errors.New("never walked")
		}, 1)
	})
	return s.result, s.resultErr
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

// Summary computes the operational summary for this epoch. Dedup is zero
// when the epoch cannot be analyzed (see Result).
func (s *Snapshot) Summary() Summary {
	live := 0
	seen := make(map[digest.Digest]bool)
	for i := range s.images {
		for _, ld := range s.images[i].Manifest.LayerDigests() {
			if !seen[ld] {
				seen[ld] = true
				live++
			}
		}
	}
	sum := Summary{
		Epoch:        s.Epoch,
		Images:       len(s.images),
		Layers:       live,
		WalkedLayers: len(s.walks),
		Ingest:       s.stats,
	}
	if res, err := s.Result(); err == nil {
		sum.Dedup = res.Index.Ratios()
	}
	return sum
}
