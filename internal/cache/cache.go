// Package cache implements the byte-budget-bounded blob cache behind the
// pull-through mirror. The paper's popularity analysis (§IV-B(a)) shows
// Docker Hub pulls are extremely skewed — a small set of repositories and
// shared layers absorbs most traffic — so a cache far smaller than the
// dataset can serve the bulk of a popularity-weighted pull trace.
//
// The cache is a lock-striped LRU over a blobstore.Store it owns:
//
//   - Admission is digest-verified: bytes enter through the store's
//     PutStream (or PutVerified), so a corrupt upstream body can never be
//     cached or re-served.
//   - Misses are singleflight: no matter how many clients miss on the same
//     digest concurrently, exactly one upstream fetch runs; the winner
//     streams the body to its client while teeing it into admission, and
//     the others wait for that outcome and then serve from the cache.
//   - A fill whose declared size exceeds its stripe's budget can never be
//     admitted, so it is not teed at all: the winner gets the origin body
//     as is, the flight ends at once, and callers that were waiting on it
//     each run their own fill instead of queueing behind a stream they
//     would have to repeat anyway.
//   - Upstream 404s are negative-cached (bounded per stripe), so repeated
//     requests for a missing digest do not hammer the origin.
//   - Every event is counted: hits, misses, coalesced waiters, negative
//     hits, evictions, admission rejections, fill errors, and the current
//     in-flight fill count.
//
// Eviction is safe against concurrent readers by construction: both store
// backends keep an open reader valid after Delete (the memory store's
// readers hold the byte slice; the disk store's hold an open file), so an
// evicted blob finishes streaming to whoever was reading it.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

// ErrUpstreamNotFound marks a digest the upstream reported missing. Fill
// callbacks return an error wrapping it to trigger negative caching, and
// GetOrFill returns it (fast, without touching the origin) while the
// negative entry lives.
var ErrUpstreamNotFound = errors.New("cache: upstream not found")

// ErrMiss is returned by the read-only probes for digests the cache does
// not hold.
var ErrMiss = errors.New("cache: miss")

// DefaultShards is the stripe count when New picks one.
const DefaultShards = 8

// negativePerShard bounds the negative-lookup entries each stripe retains
// (oldest dropped first).
const negativePerShard = 1024

// FillFunc fetches a missing blob from the origin. It returns the body and
// the size if known (-1 otherwise). The cache verifies the bytes against
// the digest during admission, so the callback does not need to.
type FillFunc func(ctx context.Context) (io.ReadCloser, int64, error)

// Outcome says how GetOrFill satisfied a request.
type Outcome int

const (
	// Hit: served from the cache.
	Hit Outcome = iota
	// Miss: this caller won the fill and is streaming from the origin
	// (teeing into admission as it reads).
	Miss
	// Coalesced: another caller's in-flight fill satisfied this request.
	Coalesced
)

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits served straight from the cache.
	Hits int64 `json:"hits"`
	// Misses that went to the origin (one per singleflight fill).
	Misses int64 `json:"misses"`
	// Coalesced requests satisfied by another caller's in-flight fill —
	// served without an origin fetch, like hits.
	Coalesced int64 `json:"coalesced"`
	// NegHits are requests answered from the negative cache (no origin
	// round trip); NegPuts counts negative entries recorded.
	NegHits int64 `json:"neg_hits"`
	NegPuts int64 `json:"neg_puts"`
	// Evictions counts entries removed to make room.
	Evictions int64 `json:"evictions"`
	// Rejected counts blobs that streamed through but were too large to
	// admit (bigger than a stripe's budget).
	Rejected int64 `json:"rejected"`
	// FillErrors counts fills that failed for reasons other than an
	// upstream 404.
	FillErrors int64 `json:"fill_errors"`
	// Inflight is the number of fills running right now.
	Inflight int64 `json:"inflight"`
	// Used and Budget are the admitted bytes and the configured bound;
	// Entries is the number of cached blobs.
	Used    int64 `json:"used"`
	Budget  int64 `json:"budget"`
	Entries int64 `json:"entries"`
}

// HitRatio is the fraction of requests served without an origin fetch
// (hits + coalesced over all classified requests, negative lookups aside).
func (s Stats) HitRatio() float64 {
	served := s.Hits + s.Coalesced
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// entry is one cached blob in a stripe's LRU order.
type entry struct {
	d    digest.Digest
	size int64
}

// flight is one in-progress fill. err is written once before done closes.
type flight struct {
	done chan struct{}
	err  error
}

// shard is one stripe: an independent LRU with its own byte budget, flight
// table, and negative set. The global budget is the sum of stripe budgets,
// so the cache as a whole can never exceed it.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[digest.Digest]*list.Element
	order    *list.List // front = most recently used
	flights  map[digest.Digest]*flight
	negative map[digest.Digest]*list.Element
	negOrder *list.List // front = newest
}

// Cache is the lock-striped LRU. Create with New or NewSharded.
type Cache struct {
	store  blobstore.Store
	shards []*shard
	budget int64

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	negHits   atomic.Int64
	negPuts   atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
	fillErrs  atomic.Int64
	inflight  atomic.Int64
	used      atomic.Int64
	entries   atomic.Int64
}

// New builds a cache over store bounded by budget bytes, with the default
// stripe count. The cache owns the store: it deletes evicted blobs from it,
// so the store must not be shared with other writers.
func New(store blobstore.Store, budget int64) *Cache {
	return NewSharded(store, budget, DefaultShards)
}

// NewSharded is New with an explicit stripe count. The budget splits evenly
// across stripes; blobs larger than a stripe's share are served but never
// admitted. A budget too small to give every stripe at least one byte
// collapses to a single stripe.
func NewSharded(store blobstore.Store, budget int64, shards int) *Cache {
	if shards < 1 {
		shards = 1
	}
	if budget < 0 {
		budget = 0
	}
	if budget/int64(shards) == 0 {
		shards = 1
	}
	c := &Cache{store: store, budget: budget, shards: make([]*shard, shards)}
	per := budget / int64(shards)
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: per,
			entries:  make(map[digest.Digest]*list.Element),
			order:    list.New(),
			flights:  make(map[digest.Digest]*flight),
			negative: make(map[digest.Digest]*list.Element),
			negOrder: list.New(),
		}
	}
	return c
}

// Budget returns the configured byte bound.
func (c *Cache) Budget() int64 { return c.budget }

// Used returns the admitted bytes (never exceeds Budget).
func (c *Cache) Used() int64 { return c.used.Load() }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Coalesced:  c.coalesced.Load(),
		NegHits:    c.negHits.Load(),
		NegPuts:    c.negPuts.Load(),
		Evictions:  c.evictions.Load(),
		Rejected:   c.rejected.Load(),
		FillErrors: c.fillErrs.Load(),
		Inflight:   c.inflight.Load(),
		Used:       c.used.Load(),
		Budget:     c.budget,
		Entries:    c.entries.Load(),
	}
}

func (c *Cache) shard(d digest.Digest) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(d))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// lookup moves d to the front of its stripe's LRU and reports presence.
// Caller must NOT hold the stripe lock.
func (sh *shard) lookup(d digest.Digest) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[d]
	if ok {
		sh.order.MoveToFront(el)
	}
	return ok
}

// isNegative reports whether d has a live negative entry. Caller must hold
// the stripe lock.
func (sh *shard) isNegative(d digest.Digest) bool {
	_, ok := sh.negative[d]
	return ok
}

// putNegative records d as missing upstream, evicting the oldest negative
// entry past the bound. Caller must hold the stripe lock.
func (sh *shard) putNegative(d digest.Digest) bool {
	if _, ok := sh.negative[d]; ok {
		return false
	}
	sh.negative[d] = sh.negOrder.PushFront(d)
	if sh.negOrder.Len() > negativePerShard {
		oldest := sh.negOrder.Back()
		sh.negOrder.Remove(oldest)
		delete(sh.negative, oldest.Value.(digest.Digest))
	}
	return true
}

// clearNegative drops any negative entry for d (the digest turned out to
// exist after all). Caller must hold the stripe lock.
func (sh *shard) clearNegative(d digest.Digest) {
	if el, ok := sh.negative[d]; ok {
		sh.negOrder.Remove(el)
		delete(sh.negative, d)
	}
}

// Get serves a blob from the cache, counting a hit or returning ErrMiss /
// ErrUpstreamNotFound. It never fills.
func (c *Cache) Get(d digest.Digest) (io.ReadCloser, int64, error) {
	sh := c.shard(d)
	if sh.lookup(d) {
		rc, size, err := c.store.Get(d)
		if err == nil {
			c.hits.Add(1)
			return rc, size, nil
		}
		// The entry outlived its blob (should not happen: eviction removes
		// both under the stripe lock); drop it and fall through to a miss.
		c.dropEntry(sh, d)
	}
	sh.mu.Lock()
	neg := sh.isNegative(d)
	sh.mu.Unlock()
	if neg {
		c.negHits.Add(1)
		return nil, 0, fmt.Errorf("%w: %s", ErrUpstreamNotFound, d.Short())
	}
	return nil, 0, fmt.Errorf("%w: %s", ErrMiss, d.Short())
}

// Stat is Get without the body: it touches the LRU and counts a hit when
// the blob is cached, and distinguishes negative entries from plain misses.
func (c *Cache) Stat(d digest.Digest) (int64, error) {
	sh := c.shard(d)
	if sh.lookup(d) {
		size, err := c.store.Stat(d)
		if err == nil {
			c.hits.Add(1)
			return size, nil
		}
		c.dropEntry(sh, d)
	}
	sh.mu.Lock()
	neg := sh.isNegative(d)
	sh.mu.Unlock()
	if neg {
		c.negHits.Add(1)
		return 0, fmt.Errorf("%w: %s", ErrUpstreamNotFound, d.Short())
	}
	return 0, fmt.Errorf("%w: %s", ErrMiss, d.Short())
}

// Contains reports whether d is cached, without touching LRU order or
// counters.
func (c *Cache) Contains(d digest.Digest) bool {
	sh := c.shard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[d]
	return ok
}

// dropEntry removes a stale index entry whose blob vanished from the store.
func (c *Cache) dropEntry(sh *shard, d digest.Digest) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[d]; ok {
		e := el.Value.(*entry)
		sh.order.Remove(el)
		delete(sh.entries, d)
		sh.used -= e.size
		c.used.Add(-e.size)
		c.entries.Add(-1)
	}
}

// Invalidate removes d from the cache: its index entry, its stored bytes,
// and any negative marker. A fill already in flight is not interrupted —
// it may re-admit the blob after it completes; callers that delete d from
// the backing store before invalidating only leak cache budget until
// eviction (the re-admitted entry is unreachable through them), never a
// stale read.
func (c *Cache) Invalidate(d digest.Digest) {
	sh := c.shard(d)
	sh.mu.Lock()
	if el, ok := sh.entries[d]; ok {
		e := el.Value.(*entry)
		sh.order.Remove(el)
		delete(sh.entries, d)
		sh.used -= e.size
		c.used.Add(-e.size)
		c.entries.Add(-1)
	}
	sh.clearNegative(d)
	sh.mu.Unlock()
	c.store.Delete(d)
}

// Admit inserts already-verified-by-caller content directly (the manifest
// path uses it, where the bytes were digest-checked by the registry
// client). Content bigger than a stripe's budget is counted rejected and
// not stored. Admitting an already-cached digest only refreshes its LRU
// position.
func (c *Cache) Admit(d digest.Digest, content []byte) error {
	sh := c.shard(d)
	if sh.lookup(d) {
		return nil
	}
	size := int64(len(content))
	if size > sh.capacity {
		c.rejected.Add(1)
		return nil
	}
	if err := c.store.PutVerified(d, content); err != nil {
		return err
	}
	c.admit(sh, d, size)
	return nil
}

// admit inserts d (already in the store, size bytes) into the stripe's LRU,
// evicting from the cold end until it fits. Deleting evicted blobs from the
// store happens under the stripe lock, so a concurrent hit on the victim
// either got its reader first (and finishes from it — both backends keep
// open readers valid) or re-misses and refetches.
func (c *Cache) admit(sh *shard, d digest.Digest, size int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[d]; ok {
		// A racing fill of the same digest won; the store dedups content, so
		// nothing to account.
		return
	}
	for sh.used+size > sh.capacity {
		victim := sh.order.Back()
		if victim == nil {
			break
		}
		e := victim.Value.(*entry)
		sh.order.Remove(victim)
		delete(sh.entries, e.d)
		sh.used -= e.size
		c.used.Add(-e.size)
		c.entries.Add(-1)
		c.evictions.Add(1)
		c.store.Delete(e.d)
	}
	sh.entries[d] = sh.order.PushFront(&entry{d: d, size: size})
	sh.used += size
	c.used.Add(size)
	c.entries.Add(1)
	sh.clearNegative(d)
}

// GetOrFill serves d from the cache, or fills it from the origin exactly
// once no matter how many callers miss concurrently. The Miss winner's
// reader streams the origin body while teeing it into digest-verified
// admission — the caller MUST read it to EOF (or Close it, aborting the
// fill) for the admission and waiting coalesced callers to resolve. The
// reader is also an io.WriterTo, which is the cheaper way to drain it.
// Upstream 404s (fill errors wrapping ErrUpstreamNotFound) are negative-
// cached and returned.
func (c *Cache) GetOrFill(ctx context.Context, d digest.Digest, fill FillFunc) (io.ReadCloser, int64, Outcome, error) {
	sh := c.shard(d)
	for {
		if sh.lookup(d) {
			rc, size, err := c.store.Get(d)
			if err == nil {
				c.hits.Add(1)
				return rc, size, Hit, nil
			}
			c.dropEntry(sh, d)
		}

		sh.mu.Lock()
		if sh.isNegative(d) {
			sh.mu.Unlock()
			c.negHits.Add(1)
			return nil, 0, Coalesced, fmt.Errorf("%w: %s", ErrUpstreamNotFound, d.Short())
		}
		if f, ok := sh.flights[d]; ok {
			sh.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, 0, Coalesced, ctx.Err()
			}
			if f.err != nil {
				if errors.Is(f.err, ErrUpstreamNotFound) {
					c.negHits.Add(1)
					return nil, 0, Coalesced, f.err
				}
				// The winner failed transiently: loop and (maybe) become the
				// next winner ourselves.
				continue
			}
			rc, size, err := c.store.Get(d)
			if err == nil {
				c.coalesced.Add(1)
				return rc, size, Coalesced, nil
			}
			// Filled but already evicted (or rejected as oversized): loop and
			// refetch.
			continue
		}
		f := &flight{done: make(chan struct{})}
		sh.flights[d] = f
		sh.mu.Unlock()

		return c.runFill(ctx, sh, d, f, fill)
	}
}

// finishFlight publishes the fill outcome and releases the flight slot.
func (c *Cache) finishFlight(sh *shard, d digest.Digest, f *flight, err error) {
	sh.mu.Lock()
	if errors.Is(err, ErrUpstreamNotFound) {
		if sh.putNegative(d) {
			c.negPuts.Add(1)
		}
	}
	delete(sh.flights, d)
	sh.mu.Unlock()
	f.err = err
	close(f.done)
	c.inflight.Add(-1)
}

// runFill executes the winner's side of a singleflight miss: fetch the
// origin body and return it wrapped in a tee that feeds digest-verified
// admission as the caller reads — or bare, when the origin already says it
// is too large for the stripe.
func (c *Cache) runFill(ctx context.Context, sh *shard, d digest.Digest, f *flight, fill FillFunc) (io.ReadCloser, int64, Outcome, error) {
	c.misses.Add(1)
	c.inflight.Add(1)
	body, size, err := fill(ctx)
	if err != nil {
		if !errors.Is(err, ErrUpstreamNotFound) {
			c.fillErrs.Add(1)
		}
		c.finishFlight(sh, d, f, err)
		return nil, 0, Miss, err
	}
	if size > sh.capacity {
		// Buffering, hashing and storing the stream only to delete it again
		// buys nothing. The n > capacity check below stays as the guard for
		// an origin that under-declares.
		c.rejected.Add(1)
		c.finishFlight(sh, d, f, nil)
		return body, size, Miss, nil
	}

	pr, pw := io.Pipe()
	admitted := make(chan struct{})
	go func() {
		defer close(admitted)
		n, perr := c.store.PutStream(d, pr)
		if perr != nil {
			// Drain whatever the tee still has so the reader side never
			// blocks on a full pipe, then publish the failure.
			io.Copy(io.Discard, pr)
			c.fillErrs.Add(1)
			c.finishFlight(sh, d, f, perr)
			return
		}
		if n > sh.capacity {
			// Verified and streamed to the client, but too large for this
			// stripe: do not admit. The store briefly held it; remove it.
			c.rejected.Add(1)
			c.store.Delete(d)
		} else {
			c.admit(sh, d, n)
		}
		c.finishFlight(sh, d, f, nil)
	}()

	return &teeCloser{body: body, pw: pw, admitted: admitted}, size, Miss, nil
}

// teeCloser streams the origin body to the caller while writing every byte
// into the admission pipe. EOF closes the pipe cleanly (completing
// admission); an early Close or a body error aborts it, so a half-fetched
// blob is never cached.
type teeCloser struct {
	body     io.ReadCloser
	pw       *io.PipeWriter
	admitted chan struct{}
	closed   bool
}

// errAbandoned aborts admission when the reader goes away before EOF.
var errAbandoned = errors.New("cache: fill abandoned before EOF")

func (t *teeCloser) Read(p []byte) (int, error) {
	n, err := t.body.Read(p)
	if n > 0 {
		// A failed write means admission died (store error); keep serving
		// the client from the origin body — the blob just won't be cached.
		t.pw.Write(p[:n])
	}
	if err != nil {
		if errors.Is(err, io.EOF) {
			t.pw.Close()
		} else {
			t.pw.CloseWithError(err)
		}
		// Admission finishes (or aborts) before the caller sees the end of
		// the stream, so a follow-up request cannot race the flight table.
		<-t.admitted
	}
	return n, err
}

// WriteTo implements io.WriterTo: the body pushes itself (or is copied
// through a pooled buffer) into w, and every chunk w accepted goes to
// admission too. A body that writes in large pieces — the dedup store's
// reconstructing reader — so costs one pipe rendezvous per piece instead of
// one per Read. As with Read, admission has finished or aborted by the time
// this returns.
func (t *teeCloser) WriteTo(w io.Writer) (int64, error) {
	n, err := blobstore.CopyBody(teeWriter{w: w, pw: t.pw}, t.body)
	if err == nil {
		t.pw.Close()
	} else {
		t.pw.CloseWithError(err)
	}
	<-t.admitted
	return n, err
}

// teeWriter is the push-side tee: what w accepts is also written to the
// admission pipe. As in Read, a failed pipe write only means the blob will
// not be cached.
type teeWriter struct {
	w  io.Writer
	pw *io.PipeWriter
}

func (t teeWriter) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	if n > 0 {
		t.pw.Write(p[:n])
	}
	return n, err
}

func (t *teeCloser) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.pw.CloseWithError(errAbandoned)
	err := t.body.Close()
	<-t.admitted
	return err
}
