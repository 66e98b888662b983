// Package downloader fetches the latest-tag image of every crawled
// repository over the Registry HTTP API, reproducing the paper's custom
// parallel downloader (§III-B): manifests and layers are fetched directly
// (no docker-pull extraction overhead), multiple images are downloaded
// simultaneously, and only *unique* layers are transferred — a layer shared
// by many images crosses the wire once: the first image to claim its digest
// (a blobstore.Flights) fetches it, and a failed fetch goes to the next.
//
// Transfers fan out at blob granularity onto a pool of LayerWorkers
// transfer workers that live as long as the run: an image worker claims
// its config and layers, hands the ones it wins to the pool and waits for
// the rest itself, so no goroutine is started per image, blob or layer,
// and a transfer worker never waits on another transfer's flight. Every
// blob streams through verification into the store without ever
// materializing as a full []byte, so LayerWorkers is also the bound on
// transfer memory.
// A layer that reached the store can be handed to LayerStored on the same
// worker right after the commit — the fused pipeline walks it there.
//
// Failures are classified the way the paper reports them: repositories
// requiring authentication versus repositories without a latest tag.
package downloader

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/engine"
	"repro/internal/manifest"
	"repro/internal/registry"
)

// Image is one successfully downloaded image.
type Image struct {
	Repo     string
	Digest   digest.Digest // manifest digest
	Manifest *manifest.Manifest
}

// Stats aggregates a download run, matching the paper's §III-B accounting.
type Stats struct {
	Attempted     int
	Downloaded    int
	AuthFailures  int   // "required authentication"
	NoLatest      int   // "did not have a latest tag"
	OtherFailures int   // network or integrity errors
	UniqueLayers  int   // layers actually transferred
	SkippedLayers int64 // layer references satisfied by earlier transfers
	Bytes         int64 // compressed layer bytes transferred
	ConfigBytes   int64 // image config bytes transferred
}

// Downloader pulls images from a registry in parallel.
type Downloader struct {
	Client *registry.Client
	// Workers bounds concurrent image downloads — manifest fetches and
	// per-image bookkeeping (8 if 0).
	Workers int
	// LayerWorkers bounds concurrent blob transfers across ALL images
	// (2×Workers if 0). Layers of one image download in parallel, and a
	// repository with many layers cannot monopolize the wire.
	LayerWorkers int
	// Store receives verified layer blobs (required).
	Store blobstore.Store
	// Retries is the number of extra attempts for transient failures
	// (network errors, integrity mismatches). Auth and not-found errors
	// are permanent and never retried. A month-long crawl like the
	// paper's needs this; 0 disables.
	Retries int
	// Seed seeds the backoff jitter stream (the seed-offset pattern: pass
	// the run seed; the downloader adds its own offset). Jitter only shifts
	// retry timing, never figures, but drawing it from a seeded stream
	// keeps runs replayable; 0 is a valid seed.
	Seed int64
	// LayerStored, when set, is called with every unique layer once its
	// verified bytes are committed to Store — never for a config, a failed
	// transfer or a layer some earlier transfer stored. It runs on the
	// transfer worker that stored the layer, which takes no other transfer
	// until it returns, and every call has returned when RunContext does:
	// the hook the fused download→analyze pipeline walks layers in.
	LayerStored func(d digest.Digest)

	// sleep and rnd are test seams for the backoff schedule.
	sleep func(ctx context.Context, d time.Duration) error
	rnd   func() float64

	// seededRnd is the lazily built production jitter stream (see
	// jitter); rndOnce guards its one-time construction.
	rndOnce   sync.Once
	seededRnd func() float64
}

// backoffSeedOffset separates the backoff jitter stream from every other
// consumer of the run seed (the engine seed-offset convention).
const backoffSeedOffset = 0xb0ff

// jitter resolves the backoff randomness source: the test seam when set,
// otherwise a stream seeded from Seed+backoffSeedOffset, built once and
// serialized by a mutex because layer transfers back off concurrently.
func (d *Downloader) jitter() func() float64 {
	if d.rnd != nil {
		return d.rnd
	}
	d.rndOnce.Do(func() {
		src := rand.New(rand.NewSource(d.Seed + backoffSeedOffset))
		var mu sync.Mutex
		d.seededRnd = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return src.Float64()
		}
	})
	return d.seededRnd
}

// retryable reports whether an error class is worth retrying. Auth,
// not-found, and unsatisfiable-range outcomes are permanent, and a
// cancelled context must not be retried — the cancellation is the caller
// winding the run down. Throttle responses (429/503) are retryable by
// definition: the server asked the client to come back later.
func retryable(err error) bool {
	return err != nil &&
		!errors.Is(err, registry.ErrUnauthorized) &&
		!errors.Is(err, registry.ErrNotFound) &&
		!errors.Is(err, registry.ErrRangeUnsatisfiable) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// Result is the outcome of a Run.
type Result struct {
	Images []Image
	Stats  Stats
}

// runState carries the shared machinery of one Run: the blobs fetched and
// being fetched, the transfer pool's queue, the counters.
type runState struct {
	ctx       context.Context
	mu        sync.Mutex // guards fetched and flights
	fetched   map[digest.Digest]bool
	flights   blobstore.Flights
	transfers chan claim

	bytes       atomic.Int64
	configBytes atomic.Int64
	skipped     atomic.Int64
	unique      atomic.Int64
}

func (d *Downloader) imageWorkers() int { return engine.Workers(d.Workers) }

func (d *Downloader) layerWorkers() int {
	if d.LayerWorkers > 0 {
		return d.LayerWorkers
	}
	return 2 * d.imageWorkers()
}

func (st *runState) fill(s *Stats) {
	s.Bytes = st.bytes.Load()
	s.ConfigBytes = st.configBytes.Load()
	s.SkippedLayers = st.skipped.Load()
	s.UniqueLayers = int(st.unique.Load())
}

// RunContext downloads all repositories. Per-repository failures are
// classified and counted, not fatal; only systemic errors abort. When ctx
// is done, in-flight transfers abort, no further repository is handed to
// an image worker, and the run returns with whatever completed: a
// repository never handed out counts in Attempted and in no outcome. A
// Downloader without a Client or a Store is refused before any request.
func (d *Downloader) RunContext(ctx context.Context, repos []string) (*Result, error) {
	if d.Client == nil {
		return nil, errors.New("downloader: nil registry client")
	}
	if d.Store == nil {
		return nil, errors.New("downloader: nil store")
	}
	var (
		mu     sync.Mutex
		images []Image
		stats  Stats
	)
	stats.Attempted = len(repos)
	st := &runState{ctx: ctx, fetched: make(map[digest.Digest]bool), flights: make(blobstore.Flights), transfers: make(chan claim)}

	var transferring sync.WaitGroup
	for w := 0; w < d.layerWorkers(); w++ {
		transferring.Add(1)
		go func() {
			defer transferring.Done()
			for c := range st.transfers {
				d.transfer(st, c)
			}
		}()
	}

	// Every repository's outcome is classified here, so the function never
	// fails and ForEach's error can only be ctx's, which a cancelled run
	// shows through what it counted.
	engine.ForEach(ctx, d.imageWorkers(), len(repos), func(_ context.Context, i int) error {
		img, layerErrs, err := d.downloadOne(st, repos[i])
		mu.Lock()
		defer mu.Unlock()
		switch {
		case errors.Is(err, registry.ErrUnauthorized):
			stats.AuthFailures++
		case errors.Is(err, registry.ErrNotFound):
			stats.NoLatest++
		case err != nil:
			stats.OtherFailures++
		default:
			stats.Downloaded++
			images = append(images, *img)
		}
		stats.OtherFailures += layerErrs
		return nil
	})
	close(st.transfers)
	transferring.Wait()

	st.fill(&stats)
	return &Result{Images: images, Stats: stats}, nil
}

// downloadOne fetches a repository's manifest, then claims its config and
// layers and waits for each. It returns the image, a count of non-fatal
// blob fetch errors, and the manifest-level error (if any).
func (d *Downloader) downloadOne(st *runState, repo string) (*Image, int, error) {
	m, md, err := d.manifestWithRetry(st.ctx, repo)
	if err != nil {
		return nil, 0, err
	}

	// The image config travels with the image (docker pull fetches it);
	// content addressing dedups configs shared across tags. Every claim is
	// made before the first wait, so the image's transfers overlap.
	claims := make([]claim, 0, 1+len(m.Layers))
	claims = append(claims, st.claim(repo, &m.Config, true))
	for i := range m.Layers {
		claims = append(claims, st.claim(repo, &m.Layers[i], false))
	}
	layerErrs := 0
	for _, c := range claims {
		if c.wait(st) != nil {
			layerErrs++
		}
	}
	return &Image{Repo: repo, Digest: md, Manifest: m}, layerErrs, nil
}

// claim is one image's hold on one of its blobs: nothing to wait for when
// the blob is already stored, otherwise the blob's flight, won when this
// image handed the claim to the transfer pool.
type claim struct {
	repo     string
	desc     *manifest.Descriptor
	isConfig bool
	f        *blobstore.Flight
	won      bool
}

// claim decides who transfers desc. Note that we only download unique
// layers (§III-B): the first image to claim a digest hands it to the
// transfer pool, everyone else waits for that outcome, and a digest already
// stored is a reference that rides along.
func (st *runState) claim(repo string, desc *manifest.Descriptor, isConfig bool) claim {
	c := claim{repo: repo, desc: desc, isConfig: isConfig}
	st.mu.Lock()
	if st.fetched[desc.Digest] {
		st.mu.Unlock()
		if !isConfig {
			st.skipped.Add(1)
		}
		return c
	}
	c.f, c.won = st.flights.Claim(desc.Digest)
	st.mu.Unlock()
	if c.won {
		select {
		case st.transfers <- c:
		case <-st.ctx.Done():
			st.land(desc.Digest, c.f, st.ctx.Err())
		}
	}
	return c
}

// wait returns the claimed blob's outcome for this image: the transfer's
// error when the image won the claim. A waiter whose winner failed claims
// the digest afresh, so an image that shares a failed layer never skips it
// and ends with a hole in the store.
func (c claim) wait(st *runState) error {
	for c.f != nil {
		err := c.f.Wait(st.ctx)
		switch {
		case c.won:
			return err
		case err != nil && st.ctx.Err() != nil:
			return st.ctx.Err()
		}
		c = st.claim(c.repo, c.desc, c.isConfig)
	}
	return nil
}

// land records a transfer's outcome where later claims look for it and
// wakes its waiters.
func (st *runState) land(dg digest.Digest, f *blobstore.Flight, err error) {
	st.mu.Lock()
	if err == nil {
		st.fetched[dg] = true
	}
	st.flights.Land(dg, f, err)
	st.mu.Unlock()
}

// transfer is one transfer worker's turn: it moves a won blob, lands its
// flight, and hands a stored layer to LayerStored.
func (d *Downloader) transfer(st *runState, c claim) {
	err := d.fetchBlob(st, c.repo, *c.desc, c.isConfig)
	st.land(c.desc.Digest, c.f, err)
	if err == nil && !c.isConfig && d.LayerStored != nil {
		d.LayerStored(c.desc.Digest)
	}
}

// fetchBlob transfers one blob, retrying transient failures with jittered
// backoff, and records the outcome in the run counters.
func (d *Downloader) fetchBlob(st *runState, repo string, desc manifest.Descriptor, isConfig bool) error {
	var n int64
	var err error
	for attempt := 0; ; attempt++ {
		n, err = d.fetchOnce(st.ctx, repo, desc.Digest)
		if err == nil || !retryable(err) || attempt >= d.Retries {
			break
		}
		if serr := d.backoffSleep(st.ctx, attempt+1, err); serr != nil {
			return serr
		}
	}
	if err != nil {
		return err
	}
	if isConfig {
		st.configBytes.Add(n)
	} else {
		st.unique.Add(1)
		st.bytes.Add(n)
	}
	return nil
}

// fetchOnce performs a single transfer attempt: the blob streams through
// client-side digest verification into the store — no full-blob buffer
// materializes anywhere on this path.
func (d *Downloader) fetchOnce(ctx context.Context, repo string, dg digest.Digest) (int64, error) {
	vr, _, err := d.Client.BlobStreamVerifiedContext(ctx, repo, dg)
	if err != nil {
		return 0, err
	}
	defer vr.Close()
	return d.Store.PutStream(dg, vr)
}

// manifestWithRetry fetches the repository's latest-tag manifest, the
// paper's focus.
func (d *Downloader) manifestWithRetry(ctx context.Context, repo string) (*manifest.Manifest, digest.Digest, error) {
	m, md, err := d.Client.ManifestContext(ctx, repo, "latest")
	for attempt := 1; attempt <= d.Retries && retryable(err); attempt++ {
		if serr := d.backoffSleep(ctx, attempt, err); serr != nil {
			return nil, "", serr
		}
		m, md, err = d.Client.ManifestContext(ctx, repo, "latest")
	}
	return m, md, err
}

// backoffSleep pauses before retry `attempt` (1-based), honouring the test
// seams for the clock and randomness. When the failure carried a
// Retry-After hint (503/429 throttle responses), the hint floors the
// delay: a server that said "come back in 5s" must not be hammered again
// after the 50ms first-attempt backoff.
func (d *Downloader) backoffSleep(ctx context.Context, attempt int, lastErr error) error {
	sleep := d.sleep
	if sleep == nil {
		sleep = engine.SleepContext
	}
	delay := backoffDelay(attempt, d.jitter())
	if hint := registry.RetryAfterHint(lastErr); hint > delay {
		delay = hint
	}
	return sleep(ctx, delay)
}
