package trafficsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/sema"
	"repro/internal/stats"
)

// Op performs one simulated client request — a pull, a push, a throttled
// streaming read — returning the bytes transferred. Ops observe ctx for
// cancellation and per-request timeouts.
type Op func(ctx context.Context) (int64, error)

// DefaultMaxOutstanding caps concurrently in-flight requests. Open-loop
// dispatch launches regardless of completions, so a saturated server
// would otherwise accumulate goroutines without bound; the cap is a
// safety valve, and because latency is measured from the intended start,
// time spent waiting for a slot still counts against the server.
const DefaultMaxOutstanding = 4096

// Config describes one run. Run needs every required field; RunClosed
// has no schedule and ignores Arrivals and MaxOutstanding.
type Config struct {
	// Arrivals is the schedule generator (required for Run).
	Arrivals Arrivals
	// Requests is the number of arrivals to dispatch (required).
	Requests int
	// Op returns request i's operation (required). It is invoked from the
	// dispatching goroutine in arrival order.
	Op func(i int) Op
	// Clock is the time seam (SystemClock when nil).
	Clock Clock
	// Timeout bounds each request from its dispatch (0 = unbounded).
	Timeout time.Duration
	// MaxOutstanding caps in-flight requests (DefaultMaxOutstanding when
	// 0). When the cap is hit the dispatcher blocks, and the induced
	// lateness is charged to the affected requests' latency.
	MaxOutstanding int
}

// Result aggregates one run. Latency is the coordinated-omission-safe
// distribution (intended arrival time → completion: queueing the server
// induced by running behind schedule is included); Service is the
// dispatch→completion view a closed-loop generator would report. At or
// below capacity the two agree; under overload Latency diverges upward
// while Service stays flat — that gap is exactly what coordinated
// omission hides.
type Result struct {
	Requests   int           // arrivals the schedule called for
	Dispatched int           // arrivals actually dispatched (== Requests unless cancelled)
	Completed  int64         // ops that returned success
	Errors     int64         // ops that failed (excluding timeouts)
	Timeouts   int64         // ops cut by the per-request timeout
	Bytes      int64         // payload bytes moved by successful ops
	Wall       time.Duration // first scheduled arrival → last completion
	Latency    *stats.Hist   // intended start → completion
	Service    *stats.Hist   // dispatch → completion
}

// Goodput returns successfully completed requests per second of wall time.
func (r *Result) Goodput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Wall.Seconds()
}

// BytesPerS returns successful payload throughput.
func (r *Result) BytesPerS() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Wall.Seconds()
}

// ErrorRate returns the fraction of dispatched requests that failed or
// timed out.
func (r *Result) ErrorRate() float64 {
	if r.Dispatched == 0 {
		return 0
	}
	return float64(r.Errors+r.Timeouts) / float64(r.Dispatched)
}

// recorder accumulates per-request outcomes under one short-held lock.
type recorder struct {
	mu        sync.Mutex
	latency   stats.Hist
	service   stats.Hist
	completed int64
	errors    int64
	timeouts  int64
	bytes     int64
	last      time.Time // latest completion instant
}

// record attributes one finished op. Latency runs from the scheduled
// arrival (not dispatch) to completion — the coordinated-omission
// correction — while service runs from actual dispatch.
func (rec *recorder) record(scheduled, dispatched, done time.Time, n int64, err error, timedOut bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if done.After(rec.last) {
		rec.last = done
	}
	if err != nil {
		if timedOut {
			rec.timeouts++
		} else {
			rec.errors++
		}
		return
	}
	rec.completed++
	rec.bytes += n
	rec.latency.Record(done.Sub(scheduled))
	rec.service.Record(done.Sub(dispatched))
}

// runOp executes one op under the per-request timeout and records its
// outcome. scheduled is the intended arrival; closed-loop callers, which
// have no schedule, pass the zero time and are charged from dispatch.
func (rec *recorder) runOp(ctx context.Context, clk Clock, timeout time.Duration, scheduled time.Time, op Op) {
	opctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		opctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	dispatched := clk.Now()
	if scheduled.IsZero() {
		scheduled = dispatched
	}
	n, err := op(opctx)
	done := clk.Now()
	// A timeout is the op's own deadline expiring, not the whole run
	// being cancelled.
	timedOut := err != nil && ctx.Err() == nil &&
		(errors.Is(err, context.DeadlineExceeded) || errors.Is(opctx.Err(), context.DeadlineExceeded))
	rec.record(scheduled, dispatched, done, n, err, timedOut)
}

// result closes the run: counts so far plus the wall time from start to
// the last completion.
func (rec *recorder) result(clk Clock, start time.Time, requests, dispatched int) *Result {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	lat, svc := rec.latency, rec.service
	wall := rec.last.Sub(start)
	if wall <= 0 {
		wall = clk.Now().Sub(start)
	}
	return &Result{
		Requests:   requests,
		Dispatched: dispatched,
		Completed:  rec.completed,
		Errors:     rec.errors,
		Timeouts:   rec.timeouts,
		Bytes:      rec.bytes,
		Wall:       wall,
		Latency:    &lat,
		Service:    &svc,
	}
}

// Run executes one open-loop run: requests dispatch at their scheduled
// arrival times whether or not earlier requests have completed. A
// cancelled ctx stops dispatching (already-launched ops wind down via
// their own contexts); the partial Result is still returned alongside
// ctx's error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Arrivals == nil || cfg.Op == nil || cfg.Requests <= 0 {
		return nil, errors.New("trafficsim: Config needs Arrivals, Op, and positive Requests")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = SystemClock
	}
	maxOut := cfg.MaxOutstanding
	if maxOut <= 0 {
		maxOut = DefaultMaxOutstanding
	}
	slots := sema.NewWeighted(int64(maxOut))
	start := clk.Now()
	rec := &recorder{last: start}

	var wg sync.WaitGroup
	dispatched := 0
	var runErr error
	for i := 0; i < cfg.Requests; i++ {
		scheduled := start.Add(cfg.Arrivals.Next())
		if d := scheduled.Sub(clk.Now()); d > 0 {
			if err := clk.Sleep(ctx, d); err != nil {
				runErr = err
				break
			}
		}
		if err := slots.Acquire(ctx, 1); err != nil {
			runErr = err
			break
		}
		op := cfg.Op(i)
		dispatched++
		wg.Add(1)
		go func(scheduled time.Time, op Op) {
			defer wg.Done()
			defer slots.Release(1)
			rec.runOp(ctx, clk, cfg.Timeout, scheduled, op)
		}(scheduled, op)
	}
	wg.Wait()
	return rec.result(clk, start, cfg.Requests, dispatched), runErr
}

// RunClosed executes the same ops closed-loop: workers clients, each
// issuing its next request only after the previous response — the
// arrival mode ArrivalSpec{Kind: "closed"} selects. There is no arrival
// schedule, so Latency and Service coincide (per-request service time):
// the queueing a lagging client *would* have induced open-loop is
// coordinated-omitted, which is precisely the distortion Run exists to
// correct. Kept as the comparison baseline and as the replay client for
// "how fast can N clients go".
func RunClosed(ctx context.Context, workers int, cfg Config) (*Result, error) {
	if cfg.Op == nil || cfg.Requests <= 0 {
		return nil, errors.New("trafficsim: RunClosed needs Op and positive Requests")
	}
	if workers <= 0 {
		return nil, fmt.Errorf("trafficsim: RunClosed needs positive workers, got %d", workers)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = SystemClock
	}
	start := clk.Now()
	rec := &recorder{last: start}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				rec.runOp(ctx, clk, cfg.Timeout, time.Time{}, cfg.Op(i))
			}
		}()
	}
	dispatched := 0
dispatch:
	for i := 0; i < cfg.Requests; i++ {
		select {
		case work <- i:
			dispatched++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	return rec.result(clk, start, cfg.Requests, dispatched), ctx.Err()
}
