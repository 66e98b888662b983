// Package cache implements the byte-budget-bounded blob cache behind the
// pull-through mirror. The paper's popularity analysis (§IV-B(a)) shows
// Docker Hub pulls are extremely skewed — a small set of repositories and
// shared layers absorbs most traffic — so a cache far smaller than the
// dataset can serve the bulk of a popularity-weighted pull trace.
//
// The cache is one LRU under one lock, with frequency-gated admission,
// over a blobstore.Store it owns. Its whole budget is one pool, so any blob
// up to the budget can be admitted:
//
//   - Admission is digest-verified: bytes enter through the store's
//     PutStream (or PutVerified), so a corrupt upstream body can never be
//     cached or re-served.
//   - Admission is frequency-gated. The cache counts requests per digest
//     (GetOrFill and Admit, not Stat), halving every count once it has
//     recorded ten times as many requests as it holds entries (at least
//     64 entries' worth), so the table stays bounded and old popularity
//     fades. A blob that fits in the free bytes is admitted. One
//     that does not is admitted only if every entry LRU would evict for it
//     was requested strictly fewer times than the blob had been before the
//     current request, so a scan over more than the cache holds ties and
//     stops churning, and a one-hit blob never evicts anything (TinyLFU's
//     rule, without its sketch: Einziger, Friedman & Manes, ACM ToS 2017).
//   - Misses are singleflight: no matter how many clients miss on the same
//     digest concurrently, exactly one upstream fetch runs; the winner
//     streams the body to its client while teeing it into admission, and
//     the others wait for that outcome and then serve from the cache. The
//     exception is a blob the cache turns away (next item): every request
//     for it fetches from the origin on its own, so a new blob on a full
//     cache costs one fetch per request until its count passes the
//     victims' and a fill admits it.
//   - A fill turned away by its declared size — larger than the budget, or
//     not requested often enough to evict what the cache holds — is not
//     teed at all: the winner gets the origin body as is, the flight ends
//     at once, and callers that were waiting on it each run their own fill
//     instead of queueing behind a stream they would have to repeat
//     anyway. A fill of unknown size skips the frequency gate: it is teed,
//     and admitted if it fits in the budget, evicting LRU entries as needed.
//   - Upstream 404s are negative-cached (at most maxNegative), so repeated
//     requests for a missing digest do not hammer the origin.
//   - Every event is counted: hits, misses, coalesced waiters, negative
//     hits, evictions, oversize rejections, gate declines, fill errors, and
//     the current in-flight fill count.
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

// ErrMiss is returned by Stat for digests the cache does not hold.
var ErrMiss = errors.New("cache: miss")

// maxNegative bounds the negative-lookup entries the cache retains (oldest
// dropped first).
const maxNegative = 8 << 10

// The cache halves its request counts after agingWindow requests per
// resident entry, counting at least agingMinEntries entries, so its
// frequency table holds at most about twice that many keys.
const (
	agingWindow     = 10
	agingMinEntries = 64
)

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
	// admit (bigger than the budget).
	Rejected int64 `json:"rejected"`
	// Declined counts blobs the admission gate turned away: admitting them
	// would have evicted an entry requested at least as often.
	Declined int64 `json:"declined"`
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

// entry is one cached blob in the LRU order.
type entry struct {
	d    digest.Digest
	size int64
}

// Cache is the byte-budgeted blob cache. Create with New.
type Cache struct {
	store  blobstore.Store
	budget int64

	// mu guards the index, the LRU order, the flight table, the request
	// counts and the negative set.
	mu       sync.Mutex
	used     int64
	entries  map[digest.Digest]*list.Element
	order    *list.List // front = most recently used
	flights  blobstore.Flights
	freq     map[digest.Digest]uint32 // requests per digest, halved on aging
	counted  int                      // requests recorded since the last aging
	negative map[digest.Digest]*list.Element
	negOrder *list.List // front = newest

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	negHits   atomic.Int64
	negPuts   atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
	declined  atomic.Int64
	fillErrs  atomic.Int64
	inflight  atomic.Int64
}

// New builds a cache over store bounded by budget bytes; blobs larger than
// the budget are served but never admitted. The cache owns the store: it
// deletes evicted blobs from it, so the store must not be shared with
// other writers.
func New(store blobstore.Store, budget int64) *Cache {
	return &Cache{
		store:    store,
		budget:   max(budget, 0),
		entries:  make(map[digest.Digest]*list.Element),
		order:    list.New(),
		flights:  make(blobstore.Flights),
		freq:     make(map[digest.Digest]uint32),
		negative: make(map[digest.Digest]*list.Element),
		negOrder: list.New(),
	}
}

// Budget returns the configured byte bound.
func (c *Cache) Budget() int64 { return c.budget }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	used, entries := c.used, int64(len(c.entries))
	c.mu.Unlock()
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Coalesced:  c.coalesced.Load(),
		NegHits:    c.negHits.Load(),
		NegPuts:    c.negPuts.Load(),
		Evictions:  c.evictions.Load(),
		Rejected:   c.rejected.Load(),
		Declined:   c.declined.Load(),
		FillErrors: c.fillErrs.Load(),
		Inflight:   c.inflight.Load(),
		Used:       used,
		Budget:     c.budget,
		Entries:    entries,
	}
}

// lookup moves d to the front of the LRU and reports presence. Caller
// must NOT hold the lock.
func (c *Cache) lookup(d digest.Digest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(d)
}

// touch moves d to the front of the LRU and reports presence. Caller must
// hold the lock.
func (c *Cache) touch(d digest.Digest) bool {
	el, ok := c.entries[d]
	if ok {
		c.order.MoveToFront(el)
	}
	return ok
}

// request is lookup for a request that counts toward d's frequency: it
// also returns how many times d had been requested before this call, and
// ages the counts when their window is full.
func (c *Cache) request(d digest.Digest) (prior uint32, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prior = c.freq[d]
	c.freq[d] = prior + 1
	c.counted++
	if c.counted >= agingWindow*max(len(c.entries), agingMinEntries) {
		c.counted = 0
		for k, n := range c.freq {
			if n /= 2; n == 0 {
				delete(c.freq, k)
			} else {
				c.freq[k] = n
			}
		}
	}
	return prior, c.touch(d)
}

// admissible is the admission gate: a size-byte blob requested prior times
// before may enter if it fits in the free bytes, or if every entry LRU
// would evict to make room for it was requested fewer than prior times.
// Caller must hold the lock.
func (c *Cache) admissible(size int64, prior uint32) bool {
	need := c.used + size - c.budget
	for el := c.order.Back(); el != nil && need > 0; el = el.Prev() {
		e := el.Value.(*entry)
		if c.freq[e.d] >= prior {
			return false
		}
		need -= e.size
	}
	return true
}

// gate runs the admission gate for a blob of known size before any of its
// bytes are stored, counting a decline.
func (c *Cache) gate(size int64, prior uint32) bool {
	c.mu.Lock()
	ok := c.admissible(size, prior)
	c.mu.Unlock()
	if !ok {
		c.declined.Add(1)
	}
	return ok
}

// isNegative reports whether d has a live negative entry. Caller must hold
// the lock.
func (c *Cache) isNegative(d digest.Digest) bool {
	_, ok := c.negative[d]
	return ok
}

// putNegative records d as missing upstream, evicting the oldest negative
// entry past the bound. Caller must hold the lock.
func (c *Cache) putNegative(d digest.Digest) bool {
	if _, ok := c.negative[d]; ok {
		return false
	}
	c.negative[d] = c.negOrder.PushFront(d)
	if c.negOrder.Len() > maxNegative {
		oldest := c.negOrder.Back()
		c.negOrder.Remove(oldest)
		delete(c.negative, oldest.Value.(digest.Digest))
	}
	return true
}

// clearNegative drops any negative entry for d (the digest turned out to
// exist after all). Caller must hold the lock.
func (c *Cache) clearNegative(d digest.Digest) {
	if el, ok := c.negative[d]; ok {
		c.negOrder.Remove(el)
		delete(c.negative, d)
	}
}

// Stat reports a cached blob's size without its body: it touches the LRU
// and counts a hit when the blob is cached, and distinguishes negative
// entries (ErrUpstreamNotFound) from plain misses (ErrMiss). It never
// fills and does not count toward the blob's request frequency.
func (c *Cache) Stat(d digest.Digest) (int64, error) {
	if c.lookup(d) {
		size, err := c.store.Stat(d)
		if err == nil {
			c.hits.Add(1)
			return size, nil
		}
		c.dropEntry(d)
	}
	c.mu.Lock()
	neg := c.isNegative(d)
	c.mu.Unlock()
	if neg {
		c.negHits.Add(1)
		return 0, fmt.Errorf("%w: %s", ErrUpstreamNotFound, d.Short())
	}
	return 0, fmt.Errorf("%w: %s", ErrMiss, d.Short())
}

// Contains reports whether d is cached, without touching LRU order or
// counters.
func (c *Cache) Contains(d digest.Digest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[d]
	return ok
}

// dropEntry removes a stale index entry whose blob vanished from the store.
func (c *Cache) dropEntry(d digest.Digest) {
	c.mu.Lock()
	c.unindex(d)
	c.mu.Unlock()
}

// unindex drops d's index entry, if any, leaving its stored bytes to the
// caller. Caller must hold the lock.
func (c *Cache) unindex(d digest.Digest) {
	if el, ok := c.entries[d]; ok {
		e := el.Value.(*entry)
		c.order.Remove(el)
		delete(c.entries, d)
		c.used -= e.size
	}
}

// Invalidate removes d from the cache: its index entry, its stored bytes,
// and any negative marker. A fill already in flight is not interrupted —
// it may re-admit the blob after it completes; callers that delete d from
// the backing store before invalidating only leak cache budget until
// eviction (the re-admitted entry is unreachable through them), never a
// stale read. The bytes go under the lock, where admit checks for
// them, so an entry is never indexed without its bytes.
func (c *Cache) Invalidate(d digest.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.unindex(d)
	c.clearNegative(d)
	c.store.Delete(d)
}

// Admit inserts already-verified-by-caller content directly (the manifest
// path uses it, where the bytes were digest-checked by the registry
// client). It counts as a request for d, like GetOrFill. Content bigger
// than the budget is counted rejected, and content the admission
// gate turns away is counted declined; neither is stored. Admitting an
// already-cached digest only refreshes its LRU position.
func (c *Cache) Admit(d digest.Digest, content []byte) error {
	prior, hit := c.request(d)
	if hit {
		return nil
	}
	// The caller holds d's content, so d exists upstream whether or not
	// the cache keeps it.
	c.mu.Lock()
	c.clearNegative(d)
	c.mu.Unlock()
	size := int64(len(content))
	if size > c.budget {
		c.rejected.Add(1)
		return nil
	}
	if !c.gate(size, prior) {
		return nil
	}
	if err := c.store.PutVerified(d, content); err != nil {
		return err
	}
	c.admit(d, size)
	return nil
}

// admit inserts d (already in the store, size bytes) into the LRU,
// evicting from the cold end until it fits. Deleting evicted blobs from the
// store happens under the lock, so a concurrent hit on the victim
// either got its reader first (and finishes from it — both backends keep
// open readers valid) or re-misses and refetches.
func (c *Cache) admit(d digest.Digest, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[d]; ok {
		// A racing fill of the same digest won; the store dedups content, so
		// nothing to account.
		return
	}
	if !c.store.Has(d) {
		// Invalidated after it was stored: admitting would index no bytes.
		return
	}
	for c.used+size > c.budget {
		victim := c.order.Back()
		if victim == nil {
			break
		}
		e := victim.Value.(*entry)
		c.unindex(e.d)
		c.evictions.Add(1)
		c.store.Delete(e.d)
	}
	c.entries[d] = c.order.PushFront(&entry{d: d, size: size})
	c.used += size
	c.clearNegative(d)
}

// GetOrFill serves d from the cache, or fills it from the origin exactly
// once no matter how many callers miss concurrently. The Miss winner's
// reader streams the origin body while teeing it into digest-verified
// admission — the caller MUST read it to EOF (or Close it, aborting the
// fill) for the admission and waiting coalesced callers to resolve. The
// reader is also an io.WriterTo, which is the cheaper way to drain it.
// Upstream 404s (fill errors wrapping ErrUpstreamNotFound) are negative-
// cached and returned. Every call counts once toward d's request
// frequency, which the admission gate weighs.
func (c *Cache) GetOrFill(ctx context.Context, d digest.Digest, fill FillFunc) (io.ReadCloser, int64, Outcome, error) {
	prior, hit := c.request(d)
	for ; ; hit = c.lookup(d) {
		if hit {
			rc, size, err := c.store.Get(d)
			if err == nil {
				c.hits.Add(1)
				return rc, size, Hit, nil
			}
			c.dropEntry(d)
		}

		c.mu.Lock()
		if c.isNegative(d) {
			c.mu.Unlock()
			c.negHits.Add(1)
			return nil, 0, Coalesced, fmt.Errorf("%w: %s", ErrUpstreamNotFound, d.Short())
		}
		f, won := c.flights.Claim(d)
		c.mu.Unlock()
		if won {
			return c.runFill(ctx, d, prior, f, fill)
		}
		switch err := f.Wait(ctx); {
		case errors.Is(err, ErrUpstreamNotFound):
			c.negHits.Add(1)
			return nil, 0, Coalesced, err
		case err != nil && ctx.Err() != nil:
			return nil, 0, Coalesced, ctx.Err()
		case err == nil:
			if rc, size, err := c.store.Get(d); err == nil {
				c.coalesced.Add(1)
				return rc, size, Coalesced, nil
			}
		}
		// The winner failed transiently, or its fill was evicted, rejected
		// or declined: loop and (maybe) become the next winner ourselves.
	}
}

// finishFlight lands the fill's flight with its outcome. A 404 is recorded
// as a negative entry unless the blob became resident meanwhile (an Admit
// of the same digest), whose bytes prove it exists.
func (c *Cache) finishFlight(d digest.Digest, f *blobstore.Flight, err error) {
	c.mu.Lock()
	if _, ok := c.entries[d]; !ok && errors.Is(err, ErrUpstreamNotFound) && c.putNegative(d) {
		c.negPuts.Add(1)
	}
	c.flights.Land(d, f, err)
	c.mu.Unlock()
	c.inflight.Add(-1)
}

// runFill executes the winner's side of a singleflight miss: fetch the
// origin body and return it wrapped in a tee that feeds digest-verified
// admission as the caller reads — or bare, when the origin's declared size
// already says the cache will not admit it.
func (c *Cache) runFill(ctx context.Context, d digest.Digest, prior uint32, f *blobstore.Flight, fill FillFunc) (io.ReadCloser, int64, Outcome, error) {
	c.misses.Add(1)
	c.inflight.Add(1)
	body, size, err := fill(ctx)
	if err != nil {
		if !errors.Is(err, ErrUpstreamNotFound) {
			c.fillErrs.Add(1)
		}
		c.finishFlight(d, f, err)
		return nil, 0, Miss, err
	}
	// Buffering, hashing and storing the stream only to delete it again
	// buys nothing. The n > budget check below stays as the guard for an
	// origin that under-declares or does not declare.
	if size > c.budget {
		c.rejected.Add(1)
		c.finishFlight(d, f, nil)
		return body, size, Miss, nil
	}
	if size >= 0 && !c.gate(size, prior) {
		c.finishFlight(d, f, nil)
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
			c.finishFlight(d, f, perr)
			return
		}
		if n > c.budget {
			// Verified and streamed to the client, but larger than the
			// budget: do not admit. The store briefly held it; remove it.
			c.rejected.Add(1)
			c.store.Delete(d)
		} else {
			c.admit(d, n)
		}
		c.finishFlight(d, f, nil)
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
