package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/analytics"
	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/crawler"
	"repro/internal/dedupstore"
	"repro/internal/digest"
	"repro/internal/downloader"
	"repro/internal/httpx"
	"repro/internal/hubapi"
	"repro/internal/manifest"
	"repro/internal/mirror"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
)

// workload is one of the benchmark's fixed workloads. The corpus scale and
// the ops per round are constants: a round is the same seeded op list on
// every commit, sized so that on the sandbox's two processors a round takes
// about 2 s and a set-up (build + warm-up round) at least 2 s when the host
// is quiet. The driver's 92 runs must end in 3420 s, in the host's worst
// hour too, which is what keeps rounds from being longer.
type workload struct {
	name     string
	why      string
	spec     string  // corpus spec: "materialize" or "dedup-sweep"
	scale    float64 // corpus scale
	opKind   string  // op list kind, see opList
	roundOps int     // ops per round; 0 = one op per corpus image
	build    func(*buildEnv) (stack, error)
}

var workloads = []workload{
	{
		name: "pull-hot",
		why:  "skewed pulls through router, warm cache and fan-out over 2 plain nodes: serve/router/cache/HTTP do the work, the store almost none",
		spec: "materialize", scale: 0.0003, opKind: "skewed", roundOps: 4000,
		build: buildPullHot,
	},
	{
		name: "pull-cold-dedup",
		why:  "uniform pulls from one registry on dedupstore with a reconstruction cache of 1/16 the wire bytes: recipe inflate, pool reads and re-gzip dominate",
		spec: "dedup-sweep", scale: 0.00025, opKind: "uniform", roundOps: 0,
		build: buildPullCold,
	},
	{
		name: "push-dedup-live",
		why:  "image pushes into a fresh dedupstore registry with the live analytics tee: the store's write path plus the second gunzip and tar walk",
		spec: "dedup-sweep", scale: 0.0006, opKind: "uniform", roundOps: 0,
		build: buildPush,
	},
	{
		name: "study-fused",
		why:  "the paper's own crawl, fused download+walk, analyze and report pass over a plain registry: bypasses router, cache and dedupstore",
		spec: "materialize", scale: 0.00006, opKind: "passes", roundOps: 56,
		build: buildStudy,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// buildEnv is what a workload builds its topology from.
type buildEnv struct {
	c       *corpus
	clients int     // closed-loop clients the topology will be driven by
	tr      *tracer // nil: no decorator is installed anywhere
}

func (e *buildEnv) handler(name string, h http.Handler) http.Handler {
	if e.tr == nil {
		return h
	}
	return e.tr.handler(name, h)
}

func (e *buildEnv) store(get, put string, s blobstore.Store) blobstore.Store {
	if e.tr == nil {
		return s
	}
	return e.tr.store(get, put, s)
}

// httpClient returns a client on a fresh tuned transport whose idle
// connections are dropped when srvs shut down (dialed-but-unused
// connections otherwise stall a drain).
func (e *buildEnv) httpClient(hop string, srvs ...*serve.Server) *http.Client {
	var rt http.RoundTripper = httpx.NewTransport()
	if e.tr != nil {
		rt = e.tr.transport(hop, rt)
	}
	hc := &http.Client{Transport: rt}
	for _, s := range srvs {
		s.OnShutdown(hc.CloseIdleConnections)
	}
	return hc
}

// opCtx is the client's scratch state for one round.
type opCtx struct {
	buf      []byte
	h        hash.Hash
	sum      []byte
	tr       *tracer
	verifyNs int64 // time spent hashing pulled bytes, traced runs only
}

func newOpCtx(tr *tracer) *opCtx {
	return &opCtx{buf: make([]byte, 32<<10), h: sha256.New(), tr: tr}
}

// stack is a workload's running topology.
type stack interface {
	// prepare runs before every round, outside the timed window.
	prepare() error
	// do runs one op and returns the user bytes it moved. Any error,
	// including a digest mismatch, is a failed op.
	do(ctx context.Context, arg int64, oc *opCtx) (int64, error)
	// opClients is how many goroutines issue ops: the run's clients, or
	// one where the op is itself a worker pool of that many (the study).
	opClients() int
	// check verifies the round just run, outside the timed window.
	check(round int) error
	// storage reports the bytes the topology's backing stores hold and the
	// wire bytes of the distinct blobs that were put into them.
	storage() (held, user int64)
	// roundCounters reports the program's own counters for the round
	// just run (traced runs call it after every round).
	roundCounters() layerCounters
	// sizes describes cache budgets against working sets for the record.
	sizes() map[string]int64
	close() error
}

// --- pulls ------------------------------------------------------------------

// errMismatch marks an op whose bytes did not hash to the expected digest.
var errMismatch = errors.New("digest mismatch")

// verifyBody drains r through sha256 and checks it against want.
func verifyBody(r io.Reader, want digest.Digest, size int64, oc *opCtx) (int64, error) {
	oc.h.Reset()
	var n int64
	for {
		k, err := r.Read(oc.buf)
		if k > 0 {
			n += int64(k)
			if oc.tr != nil {
				t0 := time.Now()
				oc.h.Write(oc.buf[:k])
				oc.verifyNs += int64(time.Since(t0))
			} else {
				oc.h.Write(oc.buf[:k])
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
	}
	oc.sum = oc.h.Sum(oc.sum[:0])
	if hex.EncodeToString(oc.sum) != want.Hex() || (size >= 0 && n != size) {
		return n, fmt.Errorf("%w: blob %s", errMismatch, want.Short())
	}
	return n, nil
}

// pullImage is one image pull: the manifest by tag, then the config and
// every layer by digest, each verified against the corpus.
func pullImage(ctx context.Context, client *registry.Client, img *image, oc *opCtx) (int64, error) {
	raw, _, err := client.ManifestRawContext(ctx, img.repo, "latest")
	if err != nil {
		return 0, err
	}
	total, err := verifyBody(bytes.NewReader(raw), img.digest, -1, oc)
	if err != nil {
		return total, err
	}
	m, err := manifest.Unmarshal(raw)
	if err != nil {
		return total, err
	}
	for _, desc := range append([]manifest.Descriptor{m.Config}, m.Layers...) {
		rc, _, err := client.BlobContext(ctx, img.repo, desc.Digest)
		if err != nil {
			return total, err
		}
		n, err := verifyBody(rc, desc.Digest, desc.Size, oc)
		rc.Close()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

type pullStack struct {
	c      *corpus
	n      int // clients
	group  serve.Group
	client *registry.Client

	nodes  []*registry.Registry
	router *cache.Cache      // pull-hot only
	dedup  *dedupstore.Store // pull-cold-dedup only

	prevCache cache.Stats // the cache's counters at the last roundCounters
}

func (s *pullStack) prepare() error        { return nil }
func (s *pullStack) opClients() int        { return s.n }
func (s *pullStack) check(round int) error { return nil }
func (s *pullStack) close() error          { return s.group.Shutdown(context.Background()) }

func (s *pullStack) do(ctx context.Context, arg int64, oc *opCtx) (int64, error) {
	return pullImage(ctx, s.client, &s.c.images[arg], oc)
}

func (s *pullStack) storage() (int64, int64) {
	if s.dedup != nil {
		st := s.dedup.Stats()
		return st.PhysicalBytes(), st.WireBytes
	}
	var held int64
	for _, n := range s.nodes {
		held += n.Blobs().TotalBytes()
	}
	return held, s.c.wire
}

func (s *pullStack) sizes() map[string]int64 {
	out := map[string]int64{"corpus_wire_bytes": s.c.wire}
	if s.router != nil {
		out["router_cache_budget_bytes"] = s.router.Budget()
	}
	if s.dedup != nil {
		out["recon_cache_budget_bytes"] = s.c.wire / reconCacheShare
	}
	return out
}

func (s *pullStack) roundCounters() layerCounters {
	var lc layerCounters
	if s.router != nil {
		lc.CacheHits, lc.CacheFills, lc.CacheCoalesced, lc.CacheEvictions = cacheDelta(s.router.Stats(), &s.prevCache)
	}
	if s.dedup != nil {
		hits, fills, coalesced, _ := cacheDelta(*s.dedup.CacheStats(), &s.prevCache)
		lc.ReconHits, lc.ReconFills = hits+coalesced, fills
		st := s.dedup.Stats()
		lc.Dedup = &st
	}
	return lc
}

const (
	hotNodes    = 2
	hotReplicas = 2
	// routerCacheFactor sizes the router cache against the corpus: the
	// budget is split over 8 stripes by digest, so 4x keeps every stripe
	// above its share of the working set and nothing is evicted.
	routerCacheFactor = 4
	// reconCacheShare is the dedup reconstruction cache's budget as a
	// share of the corpus wire bytes: working set >> cache.
	reconCacheShare = 16
)

// buildPullHot assembles router -> mirror+cache -> fan-out -> 2 plain
// nodes from the public constructors, the shape cluster.Launch builds,
// with a decorator at every boundary when traced.
func buildPullHot(e *buildEnv) (stack, error) {
	s := &pullStack{c: e.c, n: e.clients}
	ring := cluster.NewRing(0)
	var ids []string
	var srvs []*serve.Server
	for i := 0; i < hotNodes; i++ {
		reg := registry.New(e.store(spanStoreGet, spanStorePut, blobstore.NewMemory()))
		srv := &serve.Server{Name: fmt.Sprintf("node%d", i), Handler: e.handler(spanRegistry, reg)}
		if err := s.group.Start(srv); err != nil {
			return nil, err
		}
		ring.Add(srv.URL())
		ids = append(ids, srv.URL())
		srvs = append(srvs, srv)
		s.nodes = append(s.nodes, reg)
	}
	nodeHTTP := e.httpClient(spanHTTPNode, srvs...)
	clients := make(map[string]*registry.Client, hotNodes)
	for i, id := range ids {
		clients[id] = &registry.Client{Base: id, HTTP: nodeHTTP}
		own := func(key string) bool {
			for _, o := range ring.Owners(key, hotReplicas) {
				if o == id {
					return true
				}
			}
			return false
		}
		if err := e.c.seed(s.nodes[i], own); err != nil {
			return nil, err
		}
	}
	var origin mirror.Origin = cluster.NewFanout(ring, hotReplicas, clients)
	if e.tr != nil {
		origin = e.tr.origin(origin)
	}
	s.router = cache.New(e.store(spanCacheGet, spanCachePut, blobstore.NewMemory()), routerCacheFactor*e.c.wire)
	router := &serve.Server{Name: "router", Handler: e.handler(spanRouter, mirror.New(origin, s.router))}
	if err := s.group.Start(router); err != nil {
		return nil, err
	}
	s.client = &registry.Client{Base: router.URL(), HTTP: e.httpClient(spanHTTPFront, router)}
	return s, nil
}

// buildPullCold puts the corpus behind one registry on dedupstore.
func buildPullCold(e *buildEnv) (stack, error) {
	s := &pullStack{c: e.c, n: e.clients}
	s.dedup = dedupstore.NewWithConfig(dedupstore.NewMemoryPool(0),
		dedupstore.Config{CacheBytes: e.c.wire / reconCacheShare})
	reg := registry.New(e.store(spanStoreGet, spanStorePut, s.dedup))
	if err := e.c.seed(reg, nil); err != nil {
		return nil, err
	}
	srv := &serve.Server{Name: "registry", Handler: e.handler(spanRegistry, reg)}
	if err := s.group.Start(srv); err != nil {
		return nil, err
	}
	s.client = &registry.Client{Base: srv.URL(), HTTP: e.httpClient(spanHTTPFront, srv)}
	return s, nil
}

// --- pushes -----------------------------------------------------------------

// pushStack pushes the corpus's images into a registry on dedupstore with
// the live analytics tee installed. Every round starts from an empty
// registry, so a round is the same writes every time.
type pushStack struct {
	e     *buildEnv
	blobs map[digest.Digest][]byte // every config and layer of the corpus
	ref   string                   // figure fingerprint of a batch pass over the corpus

	srv    *serve.Server
	reg    *registry.Registry
	dedup  *dedupstore.Store
	live   *analytics.Live
	client *registry.Client

	ratio      float64 // stored/user of the first checked round
	snapshotNs int64
}

// pushToken authorises writes; the registry only checks that one is sent
// for private repositories, and only public images are pushed.
const pushToken = "bench"

// pullBackSample is how many images a round's check pulls back.
const pullBackSample = 4

func buildPush(e *buildEnv) (stack, error) {
	s := &pushStack{e: e, blobs: map[digest.Digest][]byte{}}
	for i := range e.c.images {
		m := e.c.images[i].manifest
		for _, desc := range append([]manifest.Descriptor{m.Config}, m.Layers...) {
			if _, ok := s.blobs[desc.Digest]; ok {
				continue
			}
			b, err := readBlob(e.c.src.Blobs(), desc.Digest)
			if err != nil {
				return nil, err
			}
			s.blobs[desc.Digest] = b
		}
	}
	images, err := analytics.RegistryImages(e.c.src)
	if err != nil {
		return nil, err
	}
	ana, err := analyzer.AnalyzeStore(e.c.src.Blobs(), images, 2)
	if err != nil {
		return nil, err
	}
	s.ref = fingerprint(report.All(&report.Source{Analysis: ana, Repos: e.c.repos}))
	return s, nil
}

func (s *pushStack) prepare() error {
	if err := s.close(); err != nil {
		return err
	}
	s.dedup = dedupstore.NewWithConfig(dedupstore.NewMemoryPool(0),
		dedupstore.Config{CacheBytes: s.e.c.wire / reconCacheShare})
	s.reg = registry.New(s.e.store(spanStoreGet, spanStorePut, s.dedup))
	s.live = analytics.New(s.reg.Blobs(), s.e.c.repos)
	var hook registry.Ingest = s.live
	if s.e.tr != nil {
		hook = s.e.tr.ingest(hook)
	}
	s.reg.SetIngest(hook)
	for name, private := range s.e.c.private {
		s.reg.CreateRepo(name, private)
	}
	s.srv = &serve.Server{Name: "registry", Handler: s.e.handler(spanRegistry, s.reg)}
	if err := s.srv.Start(); err != nil {
		return err
	}
	s.client = &registry.Client{Base: s.srv.URL(), HTTP: s.e.httpClient(spanHTTPFront, s.srv), Token: pushToken}
	return nil
}

func (s *pushStack) opClients() int { return s.e.clients }

func (s *pushStack) close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Shutdown(context.Background())
	s.srv = nil
	return err
}

// do pushes one image the way a Docker client does: each blob is probed
// with HEAD and uploaded only when the registry lacks it, then the
// manifest is PUT.
func (s *pushStack) do(ctx context.Context, arg int64, oc *opCtx) (int64, error) {
	img := &s.e.c.images[arg]
	var total int64
	for _, desc := range append([]manifest.Descriptor{img.manifest.Config}, img.manifest.Layers...) {
		_, err := s.client.BlobStatContext(ctx, img.repo, desc.Digest)
		if err == nil {
			continue
		}
		if !errors.Is(err, registry.ErrNotFound) {
			return total, err
		}
		if _, err := s.client.PushBlobContext(ctx, img.repo, s.blobs[desc.Digest]); err != nil {
			return total, err
		}
		total += desc.Size
	}
	d, err := s.client.PushManifestContext(ctx, img.repo, "latest", img.manifest)
	if err != nil {
		return total, err
	}
	if d != img.digest {
		return total, fmt.Errorf("%w: manifest %s", errMismatch, img.digest.Short())
	}
	return total, nil
}

// check pulls a seeded sample of the round's images back bit-identically,
// compares the live analytics snapshot with the batch pass over the same
// blobs, and requires the store's footprint to repeat across rounds.
func (s *pushStack) check(round int) error {
	oc := newOpCtx(nil)
	rng := rand.New(rand.NewSource(int64(round) + seedSample))
	for _, i := range rng.Perm(len(s.e.c.images))[:min(pullBackSample, len(s.e.c.images))] {
		if _, err := pullImage(context.Background(), s.client, &s.e.c.images[i], oc); err != nil {
			return fmt.Errorf("pull-back of %s: %w", s.e.c.images[i].repo, err)
		}
	}
	t0 := time.Now()
	res, err := s.live.Snapshot().Result()
	s.snapshotNs = int64(time.Since(t0))
	if err != nil {
		return fmt.Errorf("live snapshot: %w", err)
	}
	if got := fingerprint(report.All(&report.Source{Analysis: res, Repos: s.e.c.repos})); got != s.ref {
		return fmt.Errorf("live snapshot figures %s differ from the batch pass %s", got[:12], s.ref[:12])
	}
	held, user := s.storage()
	ratio := float64(held) / float64(user)
	if s.ratio == 0 {
		s.ratio = ratio
	} else if ratio != s.ratio {
		return fmt.Errorf("stored bytes per user byte %v differs from an earlier round's %v", ratio, s.ratio)
	}
	return nil
}

func (s *pushStack) storage() (int64, int64) {
	st := s.dedup.Stats()
	return st.PhysicalBytes(), st.WireBytes
}

func (s *pushStack) sizes() map[string]int64 {
	return map[string]int64{
		"corpus_wire_bytes":        s.e.c.wire,
		"recon_cache_budget_bytes": s.e.c.wire / reconCacheShare,
	}
}

func (s *pushStack) roundCounters() layerCounters {
	ds, live := s.dedup.Stats(), s.live.Stats()
	return layerCounters{
		BlobsWalked: live.BlobsWalked, WalkErrors: live.WalkErrors,
		SnapshotNs: s.snapshotNs, Dedup: &ds,
	}
}

// --- study ------------------------------------------------------------------

// studyStack serves the corpus from a plain registry plus the Hub search
// API and runs the paper's study over them.
type studyStack struct {
	e      *buildEnv
	group  serve.Group
	hc     *http.Client
	regURL string
	hubURL string
	ref    string // figure fingerprint of the two-phase reference pass
	reg    *registry.Registry
}

func buildStudy(e *buildEnv) (stack, error) {
	s := &studyStack{e: e}
	reg := registry.New(e.store(spanStoreGet, spanStorePut, blobstore.NewMemory()))
	s.reg = reg
	if err := e.c.seed(reg, nil); err != nil {
		return nil, err
	}
	regSrv := &serve.Server{Name: "registry", Handler: e.handler(spanRegistry, reg)}
	if err := s.group.Start(regSrv); err != nil {
		return nil, err
	}
	hub := &serve.Server{Name: "search", Handler: hubapi.NewServer(e.c.repos,
		e.c.ds.Spec.CrawlDupFactor, e.c.ds.Spec.Seed, 0)}
	if err := s.group.Start(hub); err != nil {
		return nil, err
	}
	s.regURL, s.hubURL = regSrv.URL(), hub.URL()
	s.hc = e.httpClient(spanHTTPFront, regSrv, hub)

	// The reference is the two-phase pass: download everything, then walk
	// the stored layers. Every fused pass must render the same figures.
	cres, dl, err := s.crawlAndDownloader(context.Background(), 0)
	if err != nil {
		return nil, err
	}
	dres, err := dl.RunContext(context.Background(), cres.Repos)
	if err != nil {
		return nil, fmt.Errorf("reference download: %w", err)
	}
	ana, err := analyzer.AnalyzeStore(dl.Store, dres.Images, s.e.clients)
	if err != nil {
		return nil, fmt.Errorf("reference analysis: %w", err)
	}
	s.ref = fingerprint(report.All(&report.Source{
		Analysis: ana, Repos: e.c.repos, Crawl: cres, Download: &dres.Stats,
	}))
	return s, nil
}

func (s *studyStack) crawlAndDownloader(ctx context.Context, seed int64) (*crawler.Result, *downloader.Downloader, error) {
	id := s.e.tr.begin(spanCrawler)
	cr := &crawler.Crawler{Client: &hubapi.Client{Base: s.hubURL, HTTP: s.hc}, Workers: s.e.clients}
	cres, err := cr.RunContext(ctx)
	s.e.tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("crawl: %w", err)
	}
	dl := &downloader.Downloader{
		Client:       &registry.Client{Base: s.regURL, HTTP: s.hc},
		Workers:      s.e.clients,
		LayerWorkers: s.e.clients,
		Store:        blobstore.NewMemory(),
		Seed:         seed,
	}
	return cres, dl, nil
}

// A pass is the paper's downloader, a worker pool that waits for each
// reply: passes run one at a time and the run's clients are the pass's
// crawler, image and layer workers, so a pass has as many requests in
// flight as any other workload's round.
func (s *studyStack) opClients() int        { return 1 }
func (s *studyStack) prepare() error        { return nil }
func (s *studyStack) check(round int) error { return nil }
func (s *studyStack) close() error          { return s.group.Shutdown(context.Background()) }

// do is one complete study pass; arg seeds the downloader's retry jitter.
func (s *studyStack) do(ctx context.Context, arg int64, oc *opCtx) (int64, error) {
	cres, dl, err := s.crawlAndDownloader(ctx, arg)
	if err != nil {
		return 0, err
	}
	id := s.e.tr.begin(spanPipeline)
	pres, err := pipeline.Run(ctx, dl, cres.Repos)
	if err == nil {
		s.e.tr.add(spanAnalyzer, pres.AssembleWall)
	}
	s.e.tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("fused pass: %w", err)
	}
	id = s.e.tr.begin(spanReport)
	got := fingerprint(report.All(&report.Source{
		Analysis: pres.Analysis, Repos: s.e.c.repos, Crawl: cres, Download: &pres.Download.Stats,
	}))
	s.e.tr.end(id)
	st := pres.Download.Stats
	moved := st.Bytes + st.ConfigBytes
	if got != s.ref {
		return moved, fmt.Errorf("%w: figures %s, reference %s", errMismatch, got[:12], s.ref[:12])
	}
	if st.OtherFailures > 0 || pres.ReWalked > 0 {
		return moved, fmt.Errorf("pass had %d transfer failures and %d re-walked layers", st.OtherFailures, pres.ReWalked)
	}
	return moved, nil
}

func (s *studyStack) storage() (int64, int64) { return s.reg.Blobs().TotalBytes(), s.e.c.wire }

func (s *studyStack) sizes() map[string]int64 {
	return map[string]int64{"corpus_wire_bytes": s.e.c.wire}
}

func (s *studyStack) roundCounters() layerCounters { return layerCounters{} }

// fingerprint is the sha256 over every rendered figure, goldencheck's rule.
func fingerprint(figs []report.Figure) string {
	h := sha256.New()
	for _, f := range figs {
		fmt.Fprintln(h, f.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}
