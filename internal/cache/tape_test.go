package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/digest"
)

// checkCache proves the cache's invariants at quiescence: no fill in
// flight, every indexed entry's bytes in the store at its size, the used
// bytes the sum of the entries' and within the budget, Stats agreeing with
// the index, and no negative marker for a resident digest.
func checkCache(c *Cache) error {
	st := c.Stats()
	if st.Inflight != 0 {
		return fmt.Errorf("Inflight = %d at quiescence", st.Inflight)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.flights) != 0 {
		return fmt.Errorf("%d fills still in flight", len(c.flights))
	}
	if c.order.Len() != len(c.entries) {
		return fmt.Errorf("LRU holds %d entries, the index %d", c.order.Len(), len(c.entries))
	}
	var sum int64
	for d, el := range c.entries {
		e := el.Value.(*entry)
		if e.d != d {
			return fmt.Errorf("%s indexed as %s", e.d.Short(), d.Short())
		}
		if size, err := c.store.Stat(d); err != nil || size != e.size {
			return fmt.Errorf("%s indexed at %d bytes, the store holds %d (%v)", d.Short(), e.size, size, err)
		}
		if c.isNegative(d) {
			return fmt.Errorf("%s is resident and marked missing upstream", d.Short())
		}
		sum += e.size
	}
	if sum != c.used {
		return fmt.Errorf("entries sum to %d bytes, used says %d", sum, c.used)
	}
	if c.used > c.budget {
		return fmt.Errorf("used %d over the budget %d", c.used, c.budget)
	}
	if st.Used != c.used || st.Entries != int64(len(c.entries)) {
		return fmt.Errorf("Stats count %d entries / %d bytes, the index %d / %d", st.Entries, st.Used, len(c.entries), c.used)
	}
	return nil
}

// The cache tape's operations. Two bytes make one step: the operation and
// its argument, which picks the blob (and for a GetOrFill the fill's
// behaviour and how the caller reads), the gate to release, or the waiter
// to cancel.
const (
	opGetOrFill  = iota // start a GetOrFill in its own goroutine
	opAdmit             // start an Admit in its own goroutine
	opInvalidate        // Invalidate, on the tape's goroutine
	opStat              // Stat, on the tape's goroutine
	opRelease           // let one parked goroutine go on
	opCancel            // end one waiter's context
	cacheTapeOps
)

// What a GetOrFill's fill does once released from its gate.
const (
	fillSized   = iota // a body of declared size
	fillUnsized        // a body of unknown size
	fillMissing        // an upstream 404
	fillFails          // an error before any body
	fillBreaks         // a body that fails at its midpoint
	fillAbandon        // a body the caller closes at its midpoint
	fillModes
)

// Where a tape goroutine parks until the tape releases it.
const (
	gateFill  = iota // a fill, before it answers
	gateBody         // a fill's body, at its midpoint
	gateStore        // a put into the cache's store, after it committed
)

const cacheTapeMaxSteps = 64

var (
	cacheTapeSizes = []int{300, 700, 1200, 1800, 2500, 5000}
	errFillFailed  = errors.New("origin failed before the body")
	errMidBody     = errors.New("origin body broke mid-stream")
)

type reqState int

const (
	reqRunning reqState = iota
	reqParked           // at a fill or body gate
	reqWaiting          // in a flight's Wait
	reqDone
)

// tapeReq is one GetOrFill or Admit the tape started.
type tapeReq struct {
	d      digest.Digest
	blob   []byte
	mode   int
	copyTo bool // read the result through WriteTo, not Read
	ctx    *tapeCtx

	// Guarded by the tape's mutex.
	state     reqState
	flight    *blobstore.Flight // the flight a waiting request waits on
	filled    bool              // its own fill ran
	cancelled bool
}

type tapeGate struct {
	kind int
	req  *tapeReq // nil for store gates
	open chan struct{}
}

// cacheTape runs one tape: it starts requests in goroutines, parks every
// fill, fill body and store commit at a gate until a step releases it, and
// after each step waits until every goroutine it started is parked,
// waiting on a live flight, or done, so the next step lands at a point the
// tape chose.
type cacheTape struct {
	t *testing.T
	c *Cache

	mu       sync.Mutex
	reqs     []*tapeReq
	gates    []*tapeGate // in arrival order
	missing  map[digest.Digest]bool
	failures []string
}

// tapeCtx is a request's context. Its Done, which only a flight's Wait
// calls, tells the tape that the request is waiting, and on what.
type tapeCtx struct {
	context.Context
	tp     *cacheTape
	r      *tapeReq
	cancel chan struct{}
}

func (x *tapeCtx) Done() <-chan struct{} {
	c := x.tp.c
	c.mu.Lock()
	f := c.flights[x.r.d]
	c.mu.Unlock()
	x.tp.mu.Lock()
	x.r.state, x.r.flight = reqWaiting, f
	x.tp.mu.Unlock()
	return x.cancel
}

func (x *tapeCtx) Err() error {
	select {
	case <-x.cancel:
		return context.Canceled
	default:
		return nil
	}
}

// tapeStore parks each successful put until the tape releases it: the
// bytes are stored, the index does not know yet.
type tapeStore struct {
	blobstore.Store
	tp *cacheTape
}

func (s tapeStore) PutStream(d digest.Digest, r io.Reader) (int64, error) {
	n, err := s.Store.PutStream(d, r)
	if err == nil {
		s.tp.park(gateStore, nil)
	}
	return n, err
}

func (s tapeStore) PutVerified(d digest.Digest, content []byte) error {
	err := s.Store.PutVerified(d, content)
	if err == nil {
		s.tp.park(gateStore, nil)
	}
	return err
}

// tapeBody serves a fill's blob, parking at its midpoint.
type tapeBody struct {
	tp    *cacheTape
	r     *tapeReq
	off   int
	gated bool
}

func (b *tapeBody) Read(p []byte) (int, error) {
	data := b.r.blob
	if !b.gated && b.off == len(data)/2 {
		b.gated = true
		b.tp.park(gateBody, b.r)
		if b.r.mode == fillBreaks {
			return 0, errMidBody
		}
	}
	if b.off == len(data) {
		return 0, io.EOF
	}
	end := len(data)
	if !b.gated {
		end = len(data) / 2
	}
	n := copy(p, data[b.off:end])
	b.off += n
	return n, nil
}

func (b *tapeBody) Close() error { return nil }

func (tp *cacheTape) fail(format string, args ...any) {
	tp.mu.Lock()
	tp.failures = append(tp.failures, fmt.Sprintf(format, args...))
	tp.mu.Unlock()
}

func (tp *cacheTape) park(kind int, r *tapeReq) {
	g := &tapeGate{kind: kind, req: r, open: make(chan struct{})}
	tp.mu.Lock()
	tp.gates = append(tp.gates, g)
	if r != nil {
		r.state = reqParked
	}
	tp.mu.Unlock()
	<-g.open
}

func (tp *cacheTape) parked() int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return len(tp.gates)
}

// release lets the i-th parked goroutine (mod their count) go on.
func (tp *cacheTape) release(i int) {
	tp.mu.Lock()
	if len(tp.gates) == 0 {
		tp.mu.Unlock()
		return
	}
	i %= len(tp.gates)
	g := tp.gates[i]
	tp.gates = append(tp.gates[:i], tp.gates[i+1:]...)
	if g.req != nil {
		g.req.state = reqRunning
	}
	tp.mu.Unlock()
	close(g.open)
}

// settled reports whether every started goroutine is parked, waiting on
// a live flight, or done. A goroutine parked at a store gate belongs to a
// request still running (the Admit, or the GetOrFill whose tee feeds it),
// so each store gate accounts for one running request.
func (tp *cacheTape) settled() bool {
	type wait struct {
		d digest.Digest
		f *blobstore.Flight
	}
	var waits []wait
	running, stores := 0, 0
	tp.mu.Lock()
	for _, r := range tp.reqs {
		switch r.state {
		case reqRunning:
			running++
		case reqWaiting:
			waits = append(waits, wait{r.d, r.flight})
		}
	}
	for _, g := range tp.gates {
		if g.kind == gateStore {
			stores++
		}
	}
	tp.mu.Unlock()
	for _, w := range waits {
		tp.c.mu.Lock()
		live := w.f != nil && tp.c.flights[w.d] == w.f
		tp.c.mu.Unlock()
		if !live {
			running++
		}
	}
	return running == stores
}

func (tp *cacheTape) settle() {
	deadline := time.Now().Add(10 * time.Second)
	for spin := 0; !tp.settled(); spin++ {
		if time.Now().After(deadline) {
			tp.t.Fatal("the tape's goroutines never settled")
		}
		if spin < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func (tp *cacheTape) start(r *tapeReq, run func()) {
	r.ctx = &tapeCtx{Context: context.Background(), tp: tp, r: r, cancel: make(chan struct{})}
	tp.mu.Lock()
	tp.reqs = append(tp.reqs, r)
	tp.mu.Unlock()
	go func() {
		run()
		tp.mu.Lock()
		r.state = reqDone
		tp.mu.Unlock()
	}()
}

func (tp *cacheTape) getOrFill(r *tapeReq) {
	fill := func(context.Context) (io.ReadCloser, int64, error) {
		tp.mu.Lock()
		r.filled = true
		tp.mu.Unlock()
		tp.park(gateFill, r)
		switch r.mode {
		case fillMissing:
			tp.mu.Lock()
			tp.missing[r.d] = true
			tp.mu.Unlock()
			return nil, 0, fmt.Errorf("%w: %s", ErrUpstreamNotFound, r.d.Short())
		case fillFails:
			return nil, 0, errFillFailed
		case fillUnsized:
			return &tapeBody{tp: tp, r: r}, -1, nil
		}
		return &tapeBody{tp: tp, r: r}, int64(len(r.blob)), nil
	}
	rc, size, out, err := tp.c.GetOrFill(r.ctx, r.d, fill)
	tp.mu.Lock()
	own, missing, cancelled := r.filled && out == Miss, tp.missing[r.d], r.cancelled
	tp.mu.Unlock()
	if err != nil {
		switch {
		case errors.Is(err, ErrUpstreamNotFound) && missing,
			errors.Is(err, errFillFailed) && own && r.mode == fillFails,
			errors.Is(err, context.Canceled) && cancelled:
		default:
			tp.fail("GetOrFill %s (mode %d): %v", r.d.Short(), r.mode, err)
		}
		return
	}
	defer rc.Close()
	if size != int64(len(r.blob)) && !(own && size == -1) {
		tp.fail("GetOrFill %s: size %d, want %d", r.d.Short(), size, len(r.blob))
	}
	if own && r.mode == fillAbandon {
		half := make([]byte, len(r.blob)/2)
		if _, err := io.ReadFull(rc, half); err != nil || !bytes.Equal(half, r.blob[:len(half)]) {
			tp.fail("GetOrFill %s: the first half read wrong (%v)", r.d.Short(), err)
		}
		return
	}
	var got []byte
	if r.copyTo {
		var buf bytes.Buffer
		_, err = io.Copy(&buf, rc)
		got = buf.Bytes()
	} else {
		got, err = io.ReadAll(rc)
	}
	switch {
	case own && r.mode == fillBreaks:
		if !errors.Is(err, errMidBody) {
			tp.fail("GetOrFill %s: a body broken mid-stream read as %v", r.d.Short(), err)
		}
	case err != nil || !bytes.Equal(got, r.blob):
		tp.fail("GetOrFill %s (%v, own fill %v): read %d bytes (%v), not the blob", r.d.Short(), out, own, len(got), err)
	}
}

// runCacheTape decodes a tape and runs it against a fresh cache whose
// budget, 3 to 12 KiB, the first byte picks. At the end it releases
// every parked goroutine, waits for all of them, and requires checkCache
// to pass.
func runCacheTape(t *testing.T, tape []byte) {
	if len(tape) == 0 {
		return
	}
	tp := &cacheTape{t: t, missing: make(map[digest.Digest]bool)}
	budget := int64((1+int(tape[0])%2)*(3+int(tape[0]>>1)%4)) << 10
	tp.c = New(tapeStore{Store: blobstore.NewMemory(), tp: tp}, budget)
	blobs := make([][]byte, len(cacheTapeSizes))
	for i, n := range cacheTapeSizes {
		blobs[i], _ = blobOfSize(700+i, n)
	}
	defer func() {
		// Let whatever a failed step left parked run out.
		for tp.parked() > 0 {
			tp.release(0)
		}
	}()

	for i := 1; i+1 < len(tape) && i < 1+2*cacheTapeMaxSteps; i += 2 {
		op, arg := int(tape[i])%cacheTapeOps, int(tape[i+1])
		blob := blobs[arg%len(blobs)]
		d := digest.FromBytes(blob)
		switch op {
		case opGetOrFill, opAdmit:
			r := &tapeReq{d: d, blob: blob, mode: arg / len(blobs) % fillModes, copyTo: arg/(len(blobs)*fillModes)%2 == 1}
			if op == opAdmit {
				tp.start(r, func() {
					if err := tp.c.Admit(d, blob); err != nil {
						tp.fail("Admit %s: %v", d.Short(), err)
					}
				})
			} else {
				tp.start(r, func() { tp.getOrFill(r) })
			}
		case opInvalidate:
			tp.c.Invalidate(d)
		case opStat:
			size, err := tp.c.Stat(d)
			tp.mu.Lock()
			missing := tp.missing[d]
			tp.mu.Unlock()
			if err == nil && size != int64(len(blob)) ||
				err != nil && !errors.Is(err, ErrMiss) && !(missing && errors.Is(err, ErrUpstreamNotFound)) {
				tp.fail("Stat %s: %d, %v", d.Short(), size, err)
			}
		case opRelease:
			tp.release(arg)
		case opCancel:
			tp.mu.Lock()
			var waiting []*tapeReq
			for _, r := range tp.reqs {
				if r.state == reqWaiting && !r.cancelled {
					waiting = append(waiting, r)
				}
			}
			if len(waiting) > 0 {
				r := waiting[arg%len(waiting)]
				r.cancelled, r.state = true, reqRunning
				close(r.ctx.cancel)
			}
			tp.mu.Unlock()
		}
		tp.settle()
	}
	for tp.settle(); tp.parked() > 0; tp.settle() {
		tp.release(0)
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	for _, r := range tp.reqs {
		if r.state != reqDone {
			t.Fatalf("tape %x: a request for %s never finished", tape, r.d.Short())
		}
	}
	if len(tp.failures) > 0 {
		t.Fatalf("tape %x: %s", tape, tp.failures[0])
	}
	if err := checkCache(tp.c); err != nil {
		t.Fatalf("tape %x: %v", tape, err)
	}
}

// cacheTapeSeeds are hand-written tapes, each aimed at one path; the
// committed fuzz corpus holds the same tapes. An argument below 6 picks
// blob arg with a sized fill; arg+6*mode picks the fill's mode.
var cacheTapeSeeds = map[string][]byte{
	// An Admit has stored its bytes and not yet indexed them when an
	// Invalidate deletes them.
	"admit-invalidate": {0x00,
		opAdmit, 0,
		opInvalidate, 0,
		opRelease, 0},
	// The same race on a teed fill: its bytes are stored, the index not
	// yet told, when the Invalidate lands.
	"fill-invalidate": {0x00,
		opGetOrFill, 1,
		opRelease, 0,
		opInvalidate, 1,
		opRelease, 0,
		opInvalidate, 1,
		opRelease, 0},
	// A fill that will 404 is overtaken by an Admit of the same blob.
	"missing-then-admitted": {0x01,
		opGetOrFill, 2 + 6*fillMissing,
		opGetOrFill, 2,
		opAdmit, 2,
		opRelease, 1,
		opRelease, 0,
		opStat, 2},
	// Waiters queue on a fill that fails; one is cancelled, another takes
	// the fill over and its body breaks; the last one's fill completes.
	"hand-over": {0x02,
		opGetOrFill, 3 + 6*fillFails,
		opGetOrFill, 3 + 6*fillBreaks,
		opGetOrFill, 3 + 6*fillUnsized + 36,
		opGetOrFill, 3,
		opCancel, 0,
		opRelease, 0,
		opRelease, 0,
		opRelease, 0,
		opRelease, 0,
		opRelease, 0},
	// Fills on a small full cache: an abandoned one, an oversize one, and
	// enough others to evict and decline.
	"evict-and-decline": {0x00,
		opGetOrFill, 4,
		opRelease, 0,
		opRelease, 0,
		opRelease, 0,
		opGetOrFill, 5,
		opRelease, 0,
		opRelease, 0,
		opGetOrFill, 3 + 6*fillAbandon,
		opRelease, 0,
		opGetOrFill, 0,
		opGetOrFill, 1,
		opGetOrFill, 2 + 36,
		opStat, 4},
}

// TestCacheTape runs the hand-written tapes and a fixed set of random ones.
func TestCacheTape(t *testing.T) {
	for name, tape := range cacheTapeSeeds {
		t.Run(name, func(t *testing.T) { runCacheTape(t, tape) })
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		tape := make([]byte, 1+2*(10+rng.Intn(40)))
		rng.Read(tape)
		t.Run(fmt.Sprintf("random-%d", i), func(t *testing.T) { runCacheTape(t, tape) })
	}
}

// FuzzCacheTape explores op-tapes from the corpus under
// testdata/fuzz/FuzzCacheTape.
func FuzzCacheTape(f *testing.F) {
	f.Fuzz(func(t *testing.T, tape []byte) { runCacheTape(t, tape) })
}
