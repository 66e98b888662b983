// Package downloader fetches the latest-tag image of every crawled
// repository over the Registry HTTP API, reproducing the paper's custom
// parallel downloader (§III-B): manifests and layers are fetched directly
// (no docker-pull extraction overhead), multiple images are downloaded
// simultaneously, and only *unique* layers are transferred — a layer shared
// by many images crosses the wire once: the first image to claim its digest
// (a blobstore.Flights) fetches it, and a failed fetch goes to the next.
//
// Transfers fan out at layer granularity: a global transfer pool
// (LayerWorkers) and an optional in-flight byte budget bound concurrency
// and memory independently of how layers are distributed across images,
// and every blob streams through verification into the store without ever
// materializing as a full []byte.
//
// Failures are classified the way the paper reports them: repositories
// requiring authentication versus repositories without a latest tag.
package downloader

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
	"repro/internal/engine"
	"repro/internal/manifest"
	"repro/internal/registry"
	"repro/internal/sema"
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
	// ByteBudget bounds the manifest-declared bytes in flight at once
	// (0 = unlimited). With a streaming store the budget approximates peak
	// transfer memory; a blob larger than the whole budget is clamped to
	// it rather than rejected.
	ByteBudget int64
	// Store receives verified layer blobs; when nil, layer bytes are
	// verified and discarded (pure measurement mode).
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
	// LayerTee, when set, receives every unique layer's byte stream as it
	// crosses the wire — the hook the fused download→analyze pipeline
	// attaches to. The reader yields exactly the bytes being stored; it
	// ends with io.EOF iff the transfer verified and was stored, and with
	// the fetch error otherwise. The callback MUST consume the reader to
	// its end (the transfer blocks on it) and runs once per fetch attempt,
	// so a retried layer is observed again with a fresh stream.
	LayerTee func(d digest.Digest, r io.Reader)

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
// being fetched, the global transfer slots, the byte budget, the counters.
type runState struct {
	ctx       context.Context
	mu        sync.Mutex // guards fetched and flights
	fetched   map[digest.Digest]bool
	flights   blobstore.Flights
	slots     chan struct{}
	budget    *sema.Weighted
	budgetCap int64

	bytes       atomic.Int64
	configBytes atomic.Int64
	skipped     atomic.Int64
	unique      atomic.Int64
}

func (d *Downloader) imageWorkers() int { return engine.Workers(d.Workers) }

func (d *Downloader) newRunState(ctx context.Context) *runState {
	lw := d.LayerWorkers
	if lw <= 0 {
		lw = 2 * d.imageWorkers()
	}
	st := &runState{ctx: ctx, fetched: make(map[digest.Digest]bool), flights: make(blobstore.Flights), slots: make(chan struct{}, lw)}
	if d.ByteBudget > 0 {
		st.budget = sema.NewWeighted(d.ByteBudget)
		st.budgetCap = d.ByteBudget
	}
	return st
}

func (st *runState) fill(s *Stats) {
	s.Bytes = st.bytes.Load()
	s.ConfigBytes = st.configBytes.Load()
	s.SkippedLayers = st.skipped.Load()
	s.UniqueLayers = int(st.unique.Load())
}

// RunContext downloads all repositories. Per-repository failures are
// classified and counted, not fatal; only systemic errors abort. When ctx
// is done, in-flight transfers abort and the run returns with whatever
// completed.
func (d *Downloader) RunContext(ctx context.Context, repos []string) (*Result, error) {
	if d.Client == nil {
		return nil, errors.New("downloader: nil registry client")
	}
	var (
		mu     sync.Mutex
		images []Image
		stats  Stats
	)
	stats.Attempted = len(repos)
	st := d.newRunState(ctx)

	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < d.imageWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for repo := range work {
				img, layerErrs, err := d.downloadOne(st, repo)
				mu.Lock()
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
				mu.Unlock()
			}
		}()
	}
	for _, repo := range repos {
		work <- repo
	}
	close(work)
	wg.Wait()

	st.fill(&stats)
	return &Result{Images: images, Stats: stats}, nil
}

// downloadOne fetches a repository's manifest, then fans its config and
// layers out to the global transfer pool. It returns the image, a count of
// non-fatal blob fetch errors, and the manifest-level error (if any).
func (d *Downloader) downloadOne(st *runState, repo string) (*Image, int, error) {
	m, md, err := d.manifestWithRetry(st.ctx, repo)
	if err != nil {
		return nil, 0, err
	}

	var layerErrs atomic.Int64
	var wg sync.WaitGroup
	// The image config travels with the image (docker pull fetches it);
	// content addressing dedups configs shared across tags.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.fetchShared(st, repo, m.Config, true); err != nil {
			layerErrs.Add(1)
		}
	}()
	for _, l := range m.Layers {
		// Note that we only download unique layers (§III-B): one image
		// transfers a digest, everyone else waits for that outcome.
		l := l
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.fetchShared(st, repo, l, false); err != nil {
				layerErrs.Add(1)
			}
		}()
	}
	wg.Wait()
	return &Image{Repo: repo, Digest: md, Manifest: m}, int(layerErrs.Load()), nil
}

// fetchShared is the singleflight wrapper around fetchBlob: the first
// caller of a digest transfers it while later callers wait for that
// fetch's outcome. A waiter whose winner failed claims the digest afresh
// and fetches itself, so an image that shares a failed layer never skips
// it and ends with a hole in the store.
func (d *Downloader) fetchShared(st *runState, repo string, desc manifest.Descriptor, isConfig bool) error {
	for {
		st.mu.Lock()
		if st.fetched[desc.Digest] {
			st.mu.Unlock()
			// The digest is in the store; this reference rides along.
			if !isConfig {
				st.skipped.Add(1)
			}
			return nil
		}
		f, won := st.flights.Claim(desc.Digest)
		st.mu.Unlock()
		if !won {
			if err := f.Wait(st.ctx); err != nil && st.ctx.Err() != nil {
				return st.ctx.Err()
			}
			continue
		}
		err := d.fetchBlob(st, repo, desc, isConfig)
		st.mu.Lock()
		if err == nil {
			st.fetched[desc.Digest] = true
		}
		st.flights.Land(desc.Digest, f, err)
		st.mu.Unlock()
		return err
	}
}

// fetchBlob transfers one blob through a global transfer slot and the byte
// budget, retrying transient failures with jittered backoff, and records
// the outcome in the run counters.
func (d *Downloader) fetchBlob(st *runState, repo string, desc manifest.Descriptor, isConfig bool) error {
	select {
	case st.slots <- struct{}{}:
	case <-st.ctx.Done():
		return st.ctx.Err()
	}
	defer func() { <-st.slots }()

	if st.budget != nil {
		weight := desc.Size
		if weight > st.budgetCap {
			weight = st.budgetCap
		}
		if weight < 1 {
			weight = 1
		}
		if err := st.budget.Acquire(st.ctx, weight); err != nil {
			return err
		}
		defer st.budget.Release(weight)
	}

	var n int64
	var err error
	for attempt := 0; ; attempt++ {
		n, err = d.fetchOnce(st.ctx, repo, desc, isConfig)
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
// client-side digest verification into the store (or io.Discard in
// measurement mode), optionally teeing into LayerTee — no full-blob buffer
// materializes anywhere on this path.
func (d *Downloader) fetchOnce(ctx context.Context, repo string, desc manifest.Descriptor, isConfig bool) (int64, error) {
	vr, _, err := d.Client.BlobStreamVerifiedContext(ctx, repo, desc.Digest)
	if err != nil {
		return 0, err
	}
	defer vr.Close()

	var r io.Reader = vr
	var pw *io.PipeWriter
	var teeDone chan struct{}
	if d.LayerTee != nil && !isConfig {
		var pr *io.PipeReader
		pr, pw = io.Pipe()
		teeDone = make(chan struct{})
		go func() {
			defer close(teeDone)
			d.LayerTee(desc.Digest, pr)
			pr.Close()
		}()
		r = io.TeeReader(vr, pw)
	}

	var n int64
	if d.Store != nil {
		n, err = d.Store.PutStream(desc.Digest, r)
	} else {
		n, err = io.Copy(io.Discard, r)
	}
	if pw != nil {
		// Terminate the tee with the fetch verdict so the consumer knows
		// whether the bytes it walked were verified.
		if err != nil {
			pw.CloseWithError(err)
		} else {
			pw.Close()
		}
		<-teeDone
	}
	return n, err
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
		sleep = sleepCtx
	}
	delay := backoffDelay(attempt, d.jitter())
	if hint := registry.RetryAfterHint(lastErr); hint > delay {
		delay = hint
	}
	return sleep(ctx, delay)
}
