package cache

import (
	"bytes"
	"context"
	"encoding/binary"
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
				if used := c.Stats().Used; used > budget {
					violated.Store(used)
				}
			}
		}(g)
	}
	wg.Wait()
	if v := violated.Load(); v != 0 {
		t.Fatalf("admitted bytes reached %d, budget %d", v, budget)
	}
	if used := c.Stats().Used; used > budget {
		t.Fatalf("final Used = %d > budget %d", used, budget)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a 256KiB budget with >256KiB of blobs")
	}
}

// TestEvictionRacesConcurrentReaders: readers holding a hit stream must
// finish with correct bytes even while admissions evict the blob they are
// reading, on both store backends. Each round, concurrent readers open hit
// streams on the hot blob and read part of it; a filler then earns
// admission by out-counting the hot blob and evicts it, deleting its bytes
// from the store, before the readers read the rest. The hot blob earns its
// way back in the same way at the start of the next round.
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
			// Room for the hot blob or the filler, not both.
			c := New(store, 64<<10)
			hot, hotD := blobOfSize(7, 32<<10)
			filler, fillerD := blobOfSize(1000, 48<<10)
			// request drains d until the gate admits it; the bound only
			// stops a broken gate from spinning forever.
			request := func(content []byte, d digest.Digest) {
				for n := 0; !c.Contains(d); n++ {
					if n == 1000 {
						t.Fatalf("%s not admitted after %d requests", d.Short(), n)
					}
					drain(t, c, content, d, nil)
				}
			}

			const rounds, readers = 20, 8
			for round := 0; round < rounds; round++ {
				request(hot, hotD)
				var opened, done sync.WaitGroup
				release := make(chan struct{})
				errs := make(chan error, readers)
				for r := 0; r < readers; r++ {
					opened.Add(1)
					done.Add(1)
					go func() {
						defer done.Done()
						rc, _, out, err := c.GetOrFill(context.Background(), hotD, bytesFill(hot, nil))
						if err != nil || out != Hit {
							opened.Done()
							errs <- fmt.Errorf("open: outcome %v, %v; want a hit", out, err)
							return
						}
						defer rc.Close()
						head := make([]byte, 1<<10)
						_, err = io.ReadFull(rc, head)
						opened.Done()
						if err != nil {
							errs <- err
							return
						}
						<-release
						rest, err := io.ReadAll(rc)
						if err != nil {
							errs <- fmt.Errorf("read after eviction: %w", err)
							return
						}
						if !bytes.Equal(append(head, rest...), hot) {
							errs <- errors.New("reader observed corrupt bytes after eviction")
						}
					}()
				}
				opened.Wait()
				evictions := c.Stats().Evictions
				request(filler, fillerD)
				evicted := !c.Contains(hotD) && !store.Has(hotD) && c.Stats().Evictions > evictions
				close(release)
				done.Wait()
				close(errs)
				for err := range errs {
					t.Fatalf("round %d: %v", round, err)
				}
				if !evicted {
					t.Fatalf("round %d: the filler's admission did not evict the hot blob", round)
				}
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
	rc, _, out, err := c.GetOrFill(context.Background(), d, notFound)
	if err != nil || out != Hit {
		t.Fatalf("GetOrFill after Admit = %v, %v; want a hit", out, err)
	}
	if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
		t.Fatal("wrong bytes after Admit cleared negative entry")
	}
	if calls.Load() != 1 {
		t.Fatalf("origin consulted %d times, want 1", calls.Load())
	}
}

// TestOversizedBlobBypassesCache: a blob bigger than the budget is served
// but never admitted — the next request misses again — while one that
// fits is admitted however much of the budget it takes.
func TestOversizedBlobBypassesCache(t *testing.T) {
	const budget = 16 << 10
	for _, tc := range []struct {
		name     string
		size     int
		admitted bool
	}{
		{"over the budget", budget + 1<<10, false},
		{"most of the budget", 12 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(blobstore.NewMemory(), budget)
			content, d := blobOfSize(4, tc.size)
			// Turned away: every request fills and is rejected.
			fills, second, rejected, used := int64(2), Miss, int64(2), int64(0)
			if tc.admitted {
				fills, second, rejected, used = 1, Hit, 0, int64(len(content))
			}
			var calls atomic.Int64
			for i, want := range []Outcome{Miss, second} {
				rc, _, out, err := c.GetOrFill(context.Background(), d, bytesFill(content, &calls))
				if err != nil {
					t.Fatal(err)
				}
				if out != want {
					t.Fatalf("request %d outcome = %v, want %v", i+1, out, want)
				}
				if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
					t.Fatal("wrong bytes")
				}
			}
			if calls.Load() != fills {
				t.Fatalf("fill ran %d times, want %d", calls.Load(), fills)
			}
			if st := c.Stats(); st.Rejected != rejected || st.Used != used {
				t.Fatalf("stats = %+v, want %d rejected, %d bytes admitted", st, rejected, used)
			}
		})
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
	c := New(blobstore.NewMemory(), 3<<10)
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
	// Touch a so b is the coldest (Stat moves it in LRU order without
	// counting a request), then admit one more to force an eviction. Each
	// resident was requested once, so the newcomer earns admission on its
	// third request: its prior count, 2, is then above theirs.
	if _, err := c.Stat(da); err != nil {
		t.Fatal(err)
	}
	y, dy := mk(13)
	for i := 0; i < 3; i++ {
		if err := c.Admit(dy, y); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Declined != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 declines before the one eviction", st)
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
// than the budget is handed through bare — the store never sees it — and
// concurrent callers each get correct bytes instead of queueing behind a
// stream none of them could reuse.
func TestDeclaredOversizeIsNeverTeed(t *testing.T) {
	store := &countingStore{Store: blobstore.NewMemory()}
	c := New(store, 16<<10)
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
	c := New(store, 16<<10)
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
			t.Fatalf("declared %d: a %d-byte blob was admitted to a %d-byte cache", declared, len(content), 16<<10)
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

// drain pulls one blob through GetOrFill and checks its bytes.
func drain(t *testing.T, c *Cache, content []byte, d digest.Digest, calls *atomic.Int64) Outcome {
	t.Helper()
	rc, _, out, err := c.GetOrFill(context.Background(), d, bytesFill(content, calls))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
		t.Fatalf("%s: wrong bytes", d.Short())
	}
	return out
}

// TestScanDoesNotChurn: uniform cycles over a working set four times the
// budget. Every blob is requested as often as every other, so a
// non-resident never out-counts what it would evict: once the first cycle
// has filled the cache nothing is teed into the store or evicted, and
// every resident serves its request in each cycle. Under first-touch LRU
// the same scan misses every request.
func TestScanDoesNotChurn(t *testing.T) {
	const (
		blobSize = 4 << 10
		resident = 16
		cycles   = 6
	)
	store := &countingStore{Store: blobstore.NewMemory()}
	c := New(store, resident*blobSize)
	blobs := make([][]byte, 4*resident)
	ds := make([]digest.Digest, len(blobs))
	for i := range blobs {
		blobs[i], ds[i] = blobOfSize(200+i, blobSize)
	}
	for cycle := 1; cycle <= cycles; cycle++ {
		before, puts := c.Stats(), store.putStreams.Load()
		for i := range blobs {
			drain(t, c, blobs[i], ds[i], nil)
		}
		after := c.Stats()
		if cycle < 3 {
			continue
		}
		if p := store.putStreams.Load() - puts; p != 0 || after.Evictions != before.Evictions {
			t.Errorf("cycle %d: %d admissions and %d evictions, want none", cycle, p, after.Evictions-before.Evictions)
		}
		hits := after.Hits - before.Hits
		if share := float64(after.Entries) / float64(len(blobs)); float64(hits)/float64(len(blobs)) < share {
			t.Errorf("cycle %d: %d hits of %d requests, below the resident share %.3f", cycle, hits, len(blobs), share)
		}
	}
	if st := c.Stats(); st.Entries == 0 || st.Declined == 0 || st.Used > st.Budget {
		t.Fatalf("stats = %+v, want residents, declines, and the budget kept", st)
	}
}

// TestHotBlobDisplacesCold: residents requested thousands of times each,
// then a popularity shift to a new blob. Aging halves the old counts every
// window, so the newcomer is admitted within two windows of requests; with
// raw counts it would need more requests than the most-requested
// resident ever had.
func TestHotBlobDisplacesCold(t *testing.T) {
	const (
		blobSize = 1 << 10
		resident = 4
		perBlob  = 2000
	)
	c := New(blobstore.NewMemory(), resident*blobSize)
	blobs := make([][]byte, resident)
	ds := make([]digest.Digest, resident)
	for i := range blobs {
		blobs[i], ds[i] = blobOfSize(300+i, blobSize)
	}
	for n := 0; n < perBlob; n++ {
		for i := range blobs {
			drain(t, c, blobs[i], ds[i], nil)
		}
	}
	if st := c.Stats(); st.Entries != resident || st.Misses != resident {
		t.Fatalf("stats = %+v, want %d residents filled once each", st, resident)
	}

	hot, hotD := blobOfSize(399, blobSize)
	bound := 2 * agingWindow * agingMinEntries
	var calls atomic.Int64
	for !c.Contains(hotD) {
		if calls.Load() >= int64(bound) {
			t.Fatalf("hot blob not admitted after %d requests, want at most %d", calls.Load(), bound)
		}
		drain(t, c, hot, hotD, &calls)
	}
	if calls.Load() < 2 {
		t.Fatal("a blob with no history was admitted into a full cache")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != resident {
		t.Fatalf("stats = %+v, want the hot blob in for one cold resident", st)
	}
	t.Logf("admitted on request %d (bound %d, residents requested %d times each)", calls.Load(), bound, perBlob)
}

// TestNewBlobOnFullCache: the price of the gate. A new blob on a full
// cache is fetched un-coalesced until its count passes the LRU victim's:
// one origin fetch per request the victim has had, plus one, before the
// fetch that admits it.
func TestNewBlobOnFullCache(t *testing.T) {
	const blobSize = 1 << 10
	c := New(blobstore.NewMemory(), 4*blobSize)
	blobs := make([][]byte, 4)
	ds := make([]digest.Digest, 4)
	for i := range blobs {
		blobs[i], ds[i] = blobOfSize(400+i, blobSize)
	}
	// The first resident, the LRU victim, is requested victimCount times;
	// the others more often and more recently.
	const victimCount = 3
	for n := 0; n < victimCount; n++ {
		drain(t, c, blobs[0], ds[0], nil)
	}
	for i := 1; i < len(blobs); i++ {
		for n := 0; n < victimCount+2; n++ {
			drain(t, c, blobs[i], ds[i], nil)
		}
	}

	x, dx := blobOfSize(499, blobSize)
	var calls atomic.Int64
	for !c.Contains(dx) {
		if calls.Load() > victimCount+2 {
			t.Fatalf("new blob not admitted after %d fetches", calls.Load())
		}
		if out := drain(t, c, x, dx, &calls); out != Miss {
			t.Fatalf("request %d: outcome %v, want Miss", calls.Load(), out)
		}
	}
	if before := calls.Load() - 1; before > victimCount+1 {
		t.Fatalf("%d origin fetches before admission, want at most %d", before, victimCount+1)
	}
	if c.Contains(ds[0]) {
		t.Fatal("the LRU victim survived the admission")
	}
	if st := c.Stats(); st.Declined != victimCount+1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want %d declines and one eviction", st, victimCount+1)
	}
}

// TestFrequencyTableBounded: a stream of digests each requested once never
// grows the request table past twice its aging window.
func TestFrequencyTableBounded(t *testing.T) {
	c := New(blobstore.NewMemory(), 8<<10)
	content := make([]byte, 64)
	for i := 0; i < 100000; i++ {
		binary.LittleEndian.PutUint64(content, uint64(i))
		rc, _, _, err := c.GetOrFill(context.Background(), digest.FromBytes(content), bytesFill(content, nil))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, rc)
		rc.Close()
		c.mu.Lock()
		keys, limit := len(c.freq), 2*agingWindow*max(len(c.entries), agingMinEntries)
		c.mu.Unlock()
		if keys > limit {
			t.Fatalf("after %d digests the table holds %d counts, want at most %d", i+1, keys, limit)
		}
	}
}

// TestGateConcurrentCalls drives GetOrFill, Admit and Invalidate on a small
// cache from several goroutines (run under -race by `make race`), then
// checks the end state with checkCache.
func TestGateConcurrentCalls(t *testing.T) {
	c := New(blobstore.NewMemory(), 24<<10)
	blobs := make([][]byte, 24)
	ds := make([]digest.Digest, len(blobs))
	for i := range blobs {
		blobs[i], ds[i] = blobOfSize(500+i, 1<<10*(1+i%4))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				// Skewed: low indices are requested far more often.
				k := rng.Intn(1 + rng.Intn(len(blobs)))
				switch op := rng.Intn(10); {
				case op == 0:
					c.Invalidate(ds[k])
				case op < 3:
					if err := c.Admit(ds[k], blobs[k]); err != nil {
						t.Error(err)
						return
					}
				default:
					rc, _, _, err := c.GetOrFill(context.Background(), ds[k], bytesFill(blobs[k], nil))
					if err != nil {
						t.Error(err)
						return
					}
					got, err := io.ReadAll(rc)
					rc.Close()
					if err != nil || !bytes.Equal(got, blobs[k]) {
						t.Errorf("%s: %d bytes, %v", ds[k].Short(), len(got), err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if err := checkCache(c); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Declined == 0 || st.Evictions == 0 {
		t.Fatalf("stats = %+v, want the gate both to decline and to admit over residents", st)
	}
}

// pausingStore holds the PutVerified of one digest after its bytes are
// stored, until released, so a test can run other calls between that store
// and the index update that follows it.
type pausingStore struct {
	blobstore.Store
	d               digest.Digest
	stored, release chan struct{}
}

func (s *pausingStore) PutVerified(d digest.Digest, content []byte) error {
	err := s.Store.PutVerified(d, content)
	if d == s.d {
		close(s.stored)
		<-s.release
	}
	return err
}

// TestIndexedEntriesKeepTheirBytes: while Admit has stored a digest but not
// yet indexed it, another call may act on the same digest — an Invalidate
// deleting its bytes, or a teed fill of unknown size admitting it first.
// Whatever the order, every entry the cache indexes has its bytes.
func TestIndexedEntriesKeepTheirBytes(t *testing.T) {
	content, d := blobOfSize(600, 1<<10)
	run := func(t *testing.T, prepare func(*Cache), between func(*Cache)) {
		store := &pausingStore{Store: blobstore.NewMemory(), d: d, stored: make(chan struct{}), release: make(chan struct{})}
		c := New(store, 4<<10)
		prepare(c)
		admitted := make(chan error)
		go func() { admitted <- c.Admit(d, content) }()
		<-store.stored
		between(c)
		close(store.release)
		if err := <-admitted; err != nil {
			t.Fatal(err)
		}
		for e, el := range c.entries {
			if !store.Has(e) {
				t.Fatalf("%s indexed but not stored (%d bytes accounted)", e.Short(), el.Value.(*entry).size)
			}
		}
		if resident := c.Contains(d); drain(t, c, content, d, nil) != Hit && resident {
			t.Fatal("a resident blob was not served as a hit")
		}
	}

	t.Run("invalidate", func(t *testing.T) {
		run(t, func(*Cache) {}, func(c *Cache) { c.Invalidate(d) })
	})

	// The cache is full of blobs requested once each, and d has one
	// declined request behind it, so the unknown-size fill asks with prior
	// count 1 (a tie with its victim) and Admit with 2. The fill is admitted
	// because unknown sizes skip the gate; Admit then finds d indexed.
	t.Run("unknown-size fill", func(t *testing.T) {
		var rc io.ReadCloser
		prepare := func(c *Cache) {
			for i := 0; i < 4; i++ {
				b, bd := blobOfSize(610+i, 1<<10)
				drain(t, c, b, bd, nil)
			}
			if drain(t, c, content, d, nil); c.Contains(d) {
				t.Fatal("a blob with no history was admitted into a full cache")
			}
			var err error
			rc, _, _, err = c.GetOrFill(context.Background(), d, func(context.Context) (io.ReadCloser, int64, error) {
				return io.NopCloser(bytes.NewReader(content)), -1, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		run(t, prepare, func(*Cache) {
			if got := mustReadAll(t, rc); !bytes.Equal(got, content) {
				t.Fatal("wrong bytes from the unknown-size fill")
			}
		})
	})
}
