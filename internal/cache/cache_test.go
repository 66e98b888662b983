package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

// blobOfSize builds deterministic content of the given size and seed.
func blobOfSize(seed, size int) ([]byte, digest.Digest) {
	rng := rand.New(rand.NewSource(int64(seed)))
	b := make([]byte, size)
	rng.Read(b)
	return b, digest.FromBytes(b)
}

// bytesFill is a FillFunc serving fixed content, counting invocations.
func bytesFill(content []byte, calls *atomic.Int64) FillFunc {
	return func(ctx context.Context) (io.ReadCloser, int64, error) {
		if calls != nil {
			calls.Add(1)
		}
		return io.NopCloser(bytes.NewReader(content)), int64(len(content)), nil
	}
}

func mustReadAll(t *testing.T, rc io.ReadCloser) []byte {
	t.Helper()
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFillThenHit(t *testing.T) {
	c := New(blobstore.NewMemory(), 1<<20)
	content, d := blobOfSize(1, 4096)
	var calls atomic.Int64

	rc, size, out, err := c.GetOrFill(context.Background(), d, bytesFill(content, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if out != Miss {
		t.Fatalf("outcome = %v, want Miss", out)
	}
	if size != int64(len(content)) {
		t.Fatalf("size = %d, want %d", size, len(content))
	}
	if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
		t.Fatal("miss stream returned wrong bytes")
	}

	rc, _, out, err = c.GetOrFill(context.Background(), d, bytesFill(content, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if out != Hit {
		t.Fatalf("outcome = %v, want Hit", out)
	}
	if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
		t.Fatal("hit returned wrong bytes")
	}
	if calls.Load() != 1 {
		t.Fatalf("fill ran %d times, want 1", calls.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.Used != int64(len(content)) {
		t.Fatalf("Used = %d, want %d", st.Used, len(content))
	}
}

// TestSingleflightCollapsesConcurrentMisses: N concurrent cold readers of
// the same digest must produce exactly one origin fetch; every reader gets
// the full verified content.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	c := New(blobstore.NewMemory(), 1<<20)
	content, d := blobOfSize(2, 64<<10)
	var calls atomic.Int64

	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc, _, _, err := c.GetOrFill(context.Background(), d, bytesFill(content, &calls))
			if err != nil {
				errs <- err
				return
			}
			defer rc.Close()
			got, err := io.ReadAll(rc)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, content) {
				errs <- errors.New("wrong bytes")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("origin fetched %d times for %d concurrent misses, want exactly 1", calls.Load(), n)
	}
	// Whether a given reader coalesced onto the in-flight fill or arrived
	// after admission (a plain hit) is timing; the invariant is one miss.
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != n-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", st, n-1)
	}
	if st.Inflight != 0 {
		t.Fatalf("Inflight = %d after all fills done, want 0", st.Inflight)
	}
}

// TestByteBudgetNeverExceeded hammers a small cache from many goroutines
// with differently sized blobs and asserts the admitted bytes never pass
// the budget at any observation point (run under -race by `make race`).
func TestByteBudgetNeverExceeded(t *testing.T) {
	const budget = 256 << 10
	c := New(blobstore.NewMemory(), budget)

	blobs := make([][]byte, 64)
	ds := make([]digest.Digest, len(blobs))
	for i := range blobs {
		blobs[i], ds[i] = blobOfSize(100+i, 1<<10*(1+i%16))
	}

	var wg sync.WaitGroup
	var violated atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				k := rng.Intn(len(blobs))
				rc, _, _, err := c.GetOrFill(context.Background(), ds[k], bytesFill(blobs[k], nil))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, rc)
				rc.Close()
				if used := c.Used(); used > budget {
					violated.Store(used)
				}
			}
		}(g)
	}
	wg.Wait()
	if v := violated.Load(); v != 0 {
		t.Fatalf("admitted bytes reached %d, budget %d", v, budget)
	}
	if used := c.Used(); used > budget {
		t.Fatalf("final Used = %d > budget %d", used, budget)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a 256KiB budget with >256KiB of blobs")
	}
}

// TestEvictionRacesConcurrentReaders: readers holding a hit stream must
// finish with correct bytes even while admissions evict the blob they are
// reading, on both store backends.
func TestEvictionRacesConcurrentReaders(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			var store blobstore.Store = blobstore.NewMemory()
			if backend == "disk" {
				var err error
				store, err = blobstore.NewDisk(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
			}
			// One stripe so every blob contends for the same budget.
			c := NewSharded(store, 64<<10, 1)
			hot, hotD := blobOfSize(7, 32<<10)

			// Admit the hot blob, then race readers of it against a churn of
			// other admissions that repeatedly evict it.
			stop := make(chan struct{})
			churnDone := make(chan struct{})
			errs := make(chan error, 8)
			type filler struct {
				content []byte
				d       digest.Digest
			}
			fillers := make([]filler, 8)
			for i := range fillers {
				fillers[i].content, fillers[i].d = blobOfSize(1000+i, 48<<10)
			}
			go func() {
				defer close(churnDone)
				// Bounded: enough admissions to evict the hot blob many
				// times over without turning the test into an IO soak.
				for i := 0; i < 400; i++ {
					select {
					case <-stop:
						return
					default:
					}
					f := fillers[i%len(fillers)]
					rc, _, _, err := c.GetOrFill(context.Background(), f.d, bytesFill(f.content, nil))
					if err != nil {
						continue
					}
					io.Copy(io.Discard, rc)
					rc.Close()
				}
			}()
			var readers sync.WaitGroup
			for r := 0; r < 8; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for i := 0; i < 50; i++ {
						rc, _, _, err := c.GetOrFill(context.Background(), hotD, bytesFill(hot, nil))
						if err != nil {
							errs <- err
							return
						}
						got, err := io.ReadAll(rc)
						rc.Close()
						if err != nil {
							errs <- fmt.Errorf("read during eviction churn: %w", err)
							return
						}
						if !bytes.Equal(got, hot) {
							errs <- errors.New("reader observed corrupt bytes during eviction")
							return
						}
					}
				}()
			}
			readers.Wait()
			close(stop)
			<-churnDone
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestNegativeCaching: a fill that reports ErrUpstreamNotFound is recorded,
// later lookups answer from the negative cache without calling fill, and a
// successful Admit clears the entry.
func TestNegativeCaching(t *testing.T) {
	c := New(blobstore.NewMemory(), 1<<20)
	content, d := blobOfSize(3, 1024)
	var calls atomic.Int64
	notFound := func(ctx context.Context) (io.ReadCloser, int64, error) {
		calls.Add(1)
		return nil, 0, fmt.Errorf("%w: synthetic 404", ErrUpstreamNotFound)
	}

	for i := 0; i < 3; i++ {
		_, _, _, err := c.GetOrFill(context.Background(), d, notFound)
		if !errors.Is(err, ErrUpstreamNotFound) {
			t.Fatalf("err = %v, want ErrUpstreamNotFound", err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("origin consulted %d times for a negative-cached digest, want 1", calls.Load())
	}
	st := c.Stats()
	if st.NegPuts != 1 || st.NegHits != 2 {
		t.Fatalf("stats = %+v, want 1 NegPuts / 2 NegHits", st)
	}
	if _, err := c.Stat(d); !errors.Is(err, ErrUpstreamNotFound) {
		t.Fatalf("Stat err = %v, want ErrUpstreamNotFound", err)
	}

	// The digest appears upstream later (e.g. pushed): Admit must clear the
	// negative entry and serve hits again.
	if err := c.Admit(d, content); err != nil {
		t.Fatal(err)
	}
	rc, _, err := c.Get(d)
	if err != nil {
		t.Fatalf("Get after Admit: %v", err)
	}
	if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
		t.Fatal("wrong bytes after Admit cleared negative entry")
	}
}

// TestOversizedBlobBypassesCache: a blob bigger than a stripe's budget is
// served but never admitted — the next request misses again.
func TestOversizedBlobBypassesCache(t *testing.T) {
	c := NewSharded(blobstore.NewMemory(), 16<<10, 1)
	content, d := blobOfSize(4, 64<<10)
	var calls atomic.Int64

	for i := 1; i <= 2; i++ {
		rc, _, out, err := c.GetOrFill(context.Background(), d, bytesFill(content, &calls))
		if err != nil {
			t.Fatal(err)
		}
		if out != Miss {
			t.Fatalf("attempt %d outcome = %v, want Miss", i, out)
		}
		if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
			t.Fatal("wrong bytes")
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("fill ran %d times, want 2 (oversized blobs are never cached)", calls.Load())
	}
	st := c.Stats()
	if st.Rejected != 2 || st.Entries != 0 || st.Used != 0 {
		t.Fatalf("stats = %+v, want 2 rejected, nothing admitted", st)
	}
}

// TestCorruptFillNotAdmitted: bytes that do not hash to the requested
// digest stream to the (unlucky) winner but must never enter the cache.
func TestCorruptFillNotAdmitted(t *testing.T) {
	c := New(blobstore.NewMemory(), 1<<20)
	content, d := blobOfSize(5, 8<<10)
	corrupt := append([]byte(nil), content...)
	corrupt[0] ^= 0xFF

	rc, _, _, err := c.GetOrFill(context.Background(), d, bytesFill(corrupt, nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rc)
	rc.Close()

	if c.Contains(d) {
		t.Fatal("corrupt bytes were admitted")
	}
	st := c.Stats()
	if st.FillErrors != 1 {
		t.Fatalf("FillErrors = %d, want 1", st.FillErrors)
	}
	// A good fill afterwards succeeds.
	rc, _, _, err = c.GetOrFill(context.Background(), d, bytesFill(content, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
		t.Fatal("wrong bytes after recovery")
	}
	if !c.Contains(d) {
		t.Fatal("verified refill was not admitted")
	}
}

// TestAbandonedFillAborts: a winner that closes its stream before EOF must
// not poison the cache; the next caller refills.
func TestAbandonedFillAborts(t *testing.T) {
	c := New(blobstore.NewMemory(), 1<<20)
	content, d := blobOfSize(6, 32<<10)
	var calls atomic.Int64

	rc, _, _, err := c.GetOrFill(context.Background(), d, bytesFill(content, &calls))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	rc.Read(buf) // partial read
	rc.Close()   // client went away

	if c.Contains(d) {
		t.Fatal("partially fetched blob was admitted")
	}
	rc, _, _, err = c.GetOrFill(context.Background(), d, bytesFill(content, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
		t.Fatal("wrong bytes on refill")
	}
	if calls.Load() != 2 {
		t.Fatalf("fill ran %d times, want 2", calls.Load())
	}
}

// TestFailedWinnerHandsOver: when the winner's fill errors transiently, a
// waiting caller takes over and completes the fetch.
func TestFailedWinnerHandsOver(t *testing.T) {
	c := New(blobstore.NewMemory(), 1<<20)
	content, d := blobOfSize(8, 8<<10)

	var calls atomic.Int64
	release := make(chan struct{})
	fill := func(ctx context.Context) (io.ReadCloser, int64, error) {
		n := calls.Add(1)
		if n == 1 {
			<-release // hold the flight open until the waiter queues up
			return nil, 0, errors.New("transient origin failure")
		}
		return io.NopCloser(bytes.NewReader(content)), int64(len(content)), nil
	}

	var wg sync.WaitGroup
	wg.Add(2)
	results := make(chan error, 2)
	go func() {
		defer wg.Done()
		_, _, _, err := c.GetOrFill(context.Background(), d, fill)
		results <- err
	}()
	go func() {
		defer wg.Done()
		// Second caller: waits on the first flight, sees its failure, takes
		// over, and succeeds.
		for calls.Load() == 0 {
		}
		go func() { close(release) }()
		rc, _, _, err := c.GetOrFill(context.Background(), d, fill)
		if err == nil {
			defer rc.Close()
			if got, rerr := io.ReadAll(rc); rerr != nil || !bytes.Equal(got, content) {
				err = errors.New("takeover read wrong bytes")
			}
		}
		results <- err
	}()
	wg.Wait()
	close(results)
	var failures, successes int
	for err := range results {
		if err != nil {
			failures++
		} else {
			successes++
		}
	}
	if successes < 1 {
		t.Fatalf("no caller succeeded (failures=%d)", failures)
	}
	if calls.Load() < 2 {
		t.Fatalf("fill ran %d times, want ≥2 (takeover after failure)", calls.Load())
	}
}

// TestLRUOrdering: the least recently used entry is the eviction victim.
func TestLRUOrdering(t *testing.T) {
	c := NewSharded(blobstore.NewMemory(), 3<<10, 1)
	mk := func(seed int) ([]byte, digest.Digest) { return blobOfSize(seed, 1<<10) }

	a, da := mk(10)
	b, db := mk(11)
	x, dx := mk(12)
	for _, p := range []struct {
		content []byte
		d       digest.Digest
	}{{a, da}, {b, db}, {x, dx}} {
		if err := c.Admit(p.d, p.content); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b is the coldest, then admit one more to force an eviction.
	if _, err := c.Stat(da); err != nil {
		t.Fatal(err)
	}
	y, dy := mk(13)
	if err := c.Admit(dy, y); err != nil {
		t.Fatal(err)
	}
	if c.Contains(db) {
		t.Fatal("LRU victim b still cached")
	}
	for _, d := range []digest.Digest{da, dx, dy} {
		if !c.Contains(d) {
			t.Fatalf("%s evicted, want b only", d.Short())
		}
	}
}

// countingStore counts the admission traffic a cache sends its store.
type countingStore struct {
	blobstore.Store
	putStreams, deletes atomic.Int64
}

func (c *countingStore) PutStream(d digest.Digest, r io.Reader) (int64, error) {
	c.putStreams.Add(1)
	return c.Store.PutStream(d, r)
}

func (c *countingStore) Delete(d digest.Digest) error {
	c.deletes.Add(1)
	return c.Store.Delete(d)
}

// TestDeclaredOversizeIsNeverTeed: a fill that says up front it is bigger
// than its stripe is handed through bare — the store never sees it — and
// concurrent callers each get correct bytes instead of queueing behind a
// stream none of them could reuse.
func TestDeclaredOversizeIsNeverTeed(t *testing.T) {
	store := &countingStore{Store: blobstore.NewMemory()}
	c := NewSharded(store, 16<<10, 1)
	content, d := blobOfSize(11, 64<<10)

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc, size, out, err := c.GetOrFill(context.Background(), d, bytesFill(content, nil))
			if err != nil {
				errs[i] = err
				return
			}
			defer rc.Close()
			got, err := io.ReadAll(rc)
			switch {
			case err != nil:
				errs[i] = err
			case out != Miss || size != int64(len(content)) || !bytes.Equal(got, content):
				errs[i] = fmt.Errorf("outcome %v, size %d, %d bytes read", out, size, len(got))
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if p, del := store.putStreams.Load(), store.deletes.Load(); p != 0 || del != 0 {
		t.Errorf("store saw %d PutStream and %d Delete calls for a blob it can never hold, want none", p, del)
	}
	st := c.Stats()
	if st.Rejected != callers || st.Misses != callers || st.Entries != 0 || st.Inflight != 0 {
		t.Errorf("stats = %+v, want %d rejected misses, nothing admitted or in flight", st, callers)
	}
}

// TestUnderDeclaredOversizeStillRejected: an origin that declares less than
// it sends passes the up-front check, and the post-hoc one catches it.
func TestUnderDeclaredOversizeStillRejected(t *testing.T) {
	store := &countingStore{Store: blobstore.NewMemory()}
	c := NewSharded(store, 16<<10, 1)
	content, d := blobOfSize(12, 64<<10)
	for _, declared := range []int64{-1, 1 << 10} {
		fill := func(ctx context.Context) (io.ReadCloser, int64, error) {
			return io.NopCloser(bytes.NewReader(content)), declared, nil
		}
		rc, _, _, err := c.GetOrFill(context.Background(), d, fill)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
			t.Fatalf("declared %d: wrong bytes", declared)
		}
		if c.Contains(d) || store.Has(d) {
			t.Fatalf("declared %d: a %d-byte blob was admitted to a %d-byte stripe", declared, len(content), 16<<10)
		}
	}
	if st := c.Stats(); st.Rejected != 2 || st.Used != 0 {
		t.Fatalf("stats = %+v, want 2 rejected, nothing admitted", st)
	}
}

// chunkedBody is a fill body that pushes itself in fixed-size writes, as
// the dedup store's reconstructing reader does.
type chunkedBody struct {
	io.Reader
	content []byte
	chunk   int
	writes  int
}

func (b *chunkedBody) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for off := 0; off < len(b.content); off += b.chunk {
		end := min(off+b.chunk, len(b.content))
		m, err := w.Write(b.content[off:end])
		b.writes++
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func (b *chunkedBody) Close() error { return nil }

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n   int
	err error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestFillThroughWriteTo: draining a miss with WriteTo delegates to the
// body's own WriteTo, admits the blob before the caller sees the end, and
// admits nothing when the destination fails part-way.
func TestFillThroughWriteTo(t *testing.T) {
	c := New(blobstore.NewMemory(), 1<<20)
	content, d := blobOfSize(13, 96<<10)
	newBody := func() *chunkedBody {
		return &chunkedBody{Reader: bytes.NewReader(content), content: content, chunk: 32 << 10}
	}
	fillWith := func(b *chunkedBody) FillFunc {
		return func(ctx context.Context) (io.ReadCloser, int64, error) { return b, int64(len(content)), nil }
	}

	// A destination that fails: the error surfaces, nothing is admitted,
	// and the flight is over.
	body := newBody()
	rc, _, _, err := c.GetOrFill(context.Background(), d, fillWith(body))
	if err != nil {
		t.Fatal(err)
	}
	errGone := errors.New("client went away")
	if _, err := rc.(io.WriterTo).WriteTo(&failAfter{n: 40 << 10, err: errGone}); !errors.Is(err, errGone) {
		t.Fatalf("WriteTo = %v, want the destination's error", err)
	}
	rc.Close()
	if c.Contains(d) {
		t.Fatal("a fill abandoned part-way was admitted")
	}
	if st := c.Stats(); st.Inflight != 0 || st.FillErrors != 1 {
		t.Fatalf("stats = %+v, want the failed fill counted and no flight left", st)
	}

	// A destination that takes it all: admitted by the time WriteTo
	// returns, through the body's own WriteTo.
	body = newBody()
	rc, _, out, err := c.GetOrFill(context.Background(), d, fillWith(body))
	if err != nil || out != Miss {
		t.Fatalf("GetOrFill = %v, %v; want a miss", out, err)
	}
	var got bytes.Buffer
	n, err := rc.(io.WriterTo).WriteTo(&got)
	if err != nil || n != int64(len(content)) || !bytes.Equal(got.Bytes(), content) {
		t.Fatalf("WriteTo = %d, %v; want the %d bytes of the blob", n, err, len(content))
	}
	if !c.Contains(d) {
		t.Fatal("blob not admitted when WriteTo returned")
	}
	if body.writes != 3 {
		t.Errorf("body pushed %d chunks, want 3: WriteTo did not delegate to the body's WriteTo", body.writes)
	}
	rc.Close()
	rc, _, out, err = c.GetOrFill(context.Background(), d, fillWith(newBody()))
	if err != nil || out != Hit {
		t.Fatalf("follow-up GetOrFill = %v, %v; want a hit", out, err)
	}
	if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
		t.Fatal("admitted bytes differ from the origin's")
	}
}

// TestFillThroughWriteToPlainBody: a body with no WriteTo of its own (an
// HTTP response body) is copied and admitted all the same, including when
// WriteTo takes over after a partial Read, as the mirror's drain does.
func TestFillThroughWriteToPlainBody(t *testing.T) {
	c := New(blobstore.NewMemory(), 1<<20)
	content, d := blobOfSize(14, 96<<10)
	fill := func(ctx context.Context) (io.ReadCloser, int64, error) {
		return io.NopCloser(struct{ io.Reader }{bytes.NewReader(content)}), int64(len(content)), nil
	}
	rc, _, _, err := c.GetOrFill(context.Background(), d, fill)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 1000)
	if _, err := io.ReadFull(rc, head); err != nil {
		t.Fatal(err)
	}
	got := bytes.NewBuffer(head)
	if _, err := rc.(io.WriterTo).WriteTo(got); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if !bytes.Equal(got.Bytes(), content) {
		t.Fatal("Read then WriteTo returned wrong bytes")
	}
	if !c.Contains(d) {
		t.Fatal("blob not admitted when WriteTo returned")
	}
}
