package trafficsim

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// The engine tests run on VirtualClock — no wall-clock sleeps — and pin
// the coordinated-omission attribution directly on the recorder, where
// the scheduled-vs-dispatched split is visible without goroutine
// interleaving noise.

func TestRecorderAttribution(t *testing.T) {
	base := time.Unix(1000, 0)
	rec := &recorder{last: base}

	// Scheduled at t=0, dispatched 40ms late (queueing), finished 10ms
	// after dispatch: latency must charge the full 50ms, service only 10ms.
	rec.record(base, base.Add(40*time.Millisecond), base.Add(50*time.Millisecond), 128, nil, false)
	res := rec.result(SystemClock, base, 3, 3)
	if got := res.Latency.Max(); got != 50*time.Millisecond {
		t.Errorf("latency = %v, want 50ms (scheduled → done)", got)
	}
	if got := res.Service.Max(); got != 10*time.Millisecond {
		t.Errorf("service = %v, want 10ms (dispatch → done)", got)
	}
	if res.Completed != 1 || res.Bytes != 128 {
		t.Errorf("completed=%d bytes=%d, want 1/128", res.Completed, res.Bytes)
	}

	// Failures split into errors vs timeouts and record no latency.
	rec.record(base, base, base.Add(time.Millisecond), 0, errors.New("boom"), false)
	rec.record(base, base, base.Add(time.Millisecond), 0, context.DeadlineExceeded, true)
	res = rec.result(SystemClock, base, 3, 3)
	if res.Errors != 1 || res.Timeouts != 1 {
		t.Errorf("errors=%d timeouts=%d, want 1/1", res.Errors, res.Timeouts)
	}
	if res.Latency.N() != 1 {
		t.Errorf("failed ops contaminated the latency histogram: n=%d", res.Latency.N())
	}
}

func TestRunOpenLoopVirtualClock(t *testing.T) {
	clk := NewVirtualClock(time.Unix(0, 0))
	const n = 200
	res, err := Run(context.Background(), Config{
		Arrivals: &even{gap: time.Millisecond},
		Requests: n,
		Clock:    clk,
		Op: func(i int) Op {
			return func(ctx context.Context) (int64, error) { return 10, nil }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != n || res.Dispatched != n {
		t.Fatalf("requests=%d dispatched=%d, want %d/%d", res.Requests, res.Dispatched, n, n)
	}
	if res.Completed != n || res.Errors != 0 || res.Timeouts != 0 {
		t.Fatalf("completed=%d errors=%d timeouts=%d, want %d/0/0", res.Completed, res.Errors, res.Timeouts, n)
	}
	if res.Bytes != 10*n {
		t.Fatalf("bytes=%d, want %d", res.Bytes, 10*n)
	}
	if res.Latency.N() != n || res.Service.N() != n {
		t.Fatalf("histogram counts %d/%d, want %d", res.Latency.N(), res.Service.N(), n)
	}
	// The virtual clock advanced through the whole schedule without a
	// single real sleep; the last arrival of 200 at 1000/s is at 199ms.
	if got := clk.Now().Sub(time.Unix(0, 0)); got < 199*time.Millisecond {
		t.Fatalf("virtual clock advanced only %v, want >= 199ms", got)
	}
}

func TestRunPropagatesOpErrors(t *testing.T) {
	clk := NewVirtualClock(time.Unix(0, 0))
	boom := errors.New("boom")
	res, err := Run(context.Background(), Config{
		Arrivals: &even{gap: time.Millisecond},
		Requests: 10,
		Clock:    clk,
		Op: func(i int) Op {
			return func(ctx context.Context) (int64, error) {
				if i%2 == 0 {
					return 0, boom
				}
				return 1, nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 5 || res.Completed != 5 {
		t.Fatalf("errors=%d completed=%d, want 5/5", res.Errors, res.Completed)
	}
	if got := res.ErrorRate(); got != 0.5 {
		t.Fatalf("error rate %.2f, want 0.50", got)
	}
}

func TestRunTimeoutClassification(t *testing.T) {
	clk := NewVirtualClock(time.Unix(0, 0))
	res, err := Run(context.Background(), Config{
		Arrivals: &even{gap: 10 * time.Millisecond},
		Requests: 5,
		Clock:    clk,
		Timeout:  time.Millisecond,
		Op: func(i int) Op {
			return func(ctx context.Context) (int64, error) {
				// Simulate an op cut by its own deadline.
				return 0, context.DeadlineExceeded
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeouts != 5 || res.Errors != 0 {
		t.Fatalf("timeouts=%d errors=%d, want 5/0", res.Timeouts, res.Errors)
	}
}

func TestRunCancelledContext(t *testing.T) {
	clk := NewVirtualClock(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Config{
		Arrivals: &even{gap: time.Millisecond},
		Requests: 100,
		Clock:    clk,
		Op: func(i int) Op {
			return func(ctx context.Context) (int64, error) { return 1, nil }
		},
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res == nil {
		t.Fatal("cancelled run returned nil partial result")
	}
	if res.Dispatched > 1 {
		t.Fatalf("cancelled run dispatched %d requests", res.Dispatched)
	}
}

func TestRunConfigValidation(t *testing.T) {
	arr := &even{gap: time.Second}
	op := func(i int) Op { return func(ctx context.Context) (int64, error) { return 0, nil } }
	cases := []Config{
		{Requests: 1, Op: op},        // no arrivals
		{Arrivals: arr, Op: op},      // no requests
		{Arrivals: arr, Requests: 1}, // no op
		{Arrivals: arr, Requests: -3, Op: op},
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := RunClosed(context.Background(), 0, Config{Requests: 1, Op: op}); err == nil {
		t.Error("RunClosed accepted zero workers")
	}
	if _, err := RunClosed(context.Background(), 1, Config{Op: op}); err == nil {
		t.Error("RunClosed accepted zero requests")
	}
}

func TestRunClosedVirtualClock(t *testing.T) {
	clk := NewVirtualClock(time.Unix(0, 0))
	const n = 50
	res, err := RunClosed(context.Background(), 4, Config{
		Requests: n,
		Clock:    clk,
		Op: func(i int) Op {
			return func(ctx context.Context) (int64, error) { return 2, nil }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n || res.Bytes != 2*n {
		t.Fatalf("completed=%d bytes=%d, want %d/%d", res.Completed, res.Bytes, n, 2*n)
	}
	// Closed-loop has no schedule: both views must be identical counts.
	if res.Latency.N() != res.Service.N() {
		t.Fatalf("closed-loop latency n=%d != service n=%d", res.Latency.N(), res.Service.N())
	}
}

// fixedOps is a scenario that provisions nothing: request i moves i+1
// bytes, every seventh fails, every eleventh runs into its deadline.
type fixedOps struct{}

func (fixedOps) Name() string { return "fixed" }

func (fixedOps) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	return func(i int) Op {
		return func(ctx context.Context) (int64, error) {
			switch {
			case i%7 == 0:
				return 0, errors.New("boom")
			case i%11 == 0:
				return 0, context.DeadlineExceeded
			}
			return int64(i + 1), nil
		}
	}, nil
}

// countingSetup is fixedOps counting its Setup calls.
type countingSetup struct {
	fixedOps
	setups *int
}

func (c countingSetup) Setup(ctx context.Context, g *serve.Group, env *Env) (func(i int) Op, error) {
	*c.setups++
	return c.fixedOps.Setup(ctx, g, env)
}

// TestExecuteRefusesBeforeSetup: a closed loop without workers and a run
// of no requests fail before the scenario provisions anything, through
// Execute and through CompareClosedOpen.
func TestExecuteRefusesBeforeSetup(t *testing.T) {
	good := Env{Requests: 10, Clock: NewVirtualClock(time.Unix(0, 0))}
	for _, c := range []struct {
		name    string
		env     Env
		workers int
	}{
		{"closed loop without workers", good, 0},
		{"no requests", Env{Clock: good.Clock}, 4},
	} {
		var setups int
		sc := countingSetup{setups: &setups}
		opt := Options{Env: c.env, Arrivals: ArrivalSpec{Kind: "closed", Workers: c.workers}}
		if _, err := Execute(context.Background(), sc, opt); err == nil {
			t.Errorf("%s: Execute accepted the spec", c.name)
		}
		opt.Arrivals = ArrivalSpec{Kind: "poisson", Rate: 100}
		if _, _, _, err := CompareClosedOpen(context.Background(), sc, opt, c.workers, 100); err == nil {
			t.Errorf("%s: CompareClosedOpen accepted the spec", c.name)
		}
		if setups != 0 {
			t.Errorf("%s: the scenario was set up %d times before the refusal", c.name, setups)
		}
	}
}

// TestExecuteClosedArrivals: closed loop is an arrival mode. Execute with
// ArrivalSpec{Kind: "closed"} is RunClosed over the scenario's ops — the
// counts the removed Options.Closed path produced — and the Poisson kind
// accounts for the same ops identically, so CompareClosedOpen's two legs
// differ in nothing but when requests are sent.
func TestExecuteClosedArrivals(t *testing.T) {
	const n = 80
	opt := Options{
		Env:     Env{Requests: n, Clock: NewVirtualClock(time.Unix(0, 0))},
		Timeout: time.Second,
	}
	opFor, _ := fixedOps{}.Setup(context.Background(), nil, &opt.Env)
	want, err := RunClosed(context.Background(), 4, Config{Requests: n, Op: opFor, Clock: opt.Env.Clock, Timeout: opt.Timeout})
	if err != nil {
		t.Fatal(err)
	}
	if want.Errors != 12 || want.Timeouts != 6 || want.Completed != n-18 {
		t.Fatalf("RunClosed counts: %d ok, %d errors, %d timeouts", want.Completed, want.Errors, want.Timeouts)
	}

	for _, spec := range []ArrivalSpec{
		{Kind: "closed", Workers: 4},
		{Kind: "poisson", Rate: 1000},
	} {
		opt.Arrivals = spec
		got, err := Execute(context.Background(), fixedOps{}, opt)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if got.Requests != want.Requests || got.Dispatched != want.Dispatched ||
			got.Completed != want.Completed || got.Errors != want.Errors ||
			got.Timeouts != want.Timeouts || got.Bytes != want.Bytes {
			t.Errorf("%s: got %d/%d dispatched, %d ok, %d err, %d timeout, %d bytes; want %d/%d, %d, %d, %d, %d",
				spec.Kind, got.Dispatched, got.Requests, got.Completed, got.Errors, got.Timeouts, got.Bytes,
				want.Dispatched, want.Requests, want.Completed, want.Errors, want.Timeouts, want.Bytes)
		}
		if got.Latency.N() != want.Completed || got.Service.N() != want.Completed {
			t.Errorf("%s: histograms hold %d/%d samples, want %d", spec.Kind, got.Latency.N(), got.Service.N(), want.Completed)
		}
	}

	opt.Arrivals = ArrivalSpec{Kind: "closed"}
	if _, err := Execute(context.Background(), fixedOps{}, opt); err == nil {
		t.Error("Execute accepted closed arrivals with zero workers")
	}
}

func TestVirtualClockSleep(t *testing.T) {
	clk := NewVirtualClock(time.Unix(500, 0))
	if err := clk.Sleep(context.Background(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now(); !got.Equal(time.Unix(503, 0)) {
		t.Fatalf("clock at %v after sleep, want 503s", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := clk.Sleep(ctx, time.Second); err == nil {
		t.Fatal("sleep on cancelled ctx returned nil")
	}
	if got := clk.Now(); !got.Equal(time.Unix(503, 0)) {
		t.Fatalf("cancelled sleep advanced the clock to %v", got)
	}
}

// parkedOps builds ops that each count themselves in flight and park on
// release (goroutines blocked on a channel, not OS threads), recording the
// most ever in flight at once and how many ops the dispatcher built.
type parkedOps struct {
	release         chan struct{}
	built, in, peak atomic.Int64
}

func (p *parkedOps) op(int) Op {
	p.built.Add(1)
	return func(context.Context) (int64, error) {
		n := p.in.Add(1)
		for {
			old := p.peak.Load()
			if n <= old || p.peak.CompareAndSwap(old, n) {
				break
			}
		}
		<-p.release
		p.in.Add(-1)
		return 1, nil
	}
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// burst schedules every arrival at the start, so the dispatcher never
// sleeps and only a slot can hold it back.
type burst struct{}

func (burst) Next() time.Duration { return 0 }

// even schedules an arrival every gap from offset zero: the deterministic
// schedule the engine tests run on.
type even struct {
	gap  time.Duration
	sent int64
}

func (e *even) Next() time.Duration {
	d := time.Duration(e.sent) * e.gap
	e.sent++
	return d
}

// runParked starts an open-loop burst of maxOutstanding+extra parked ops
// on a virtual clock and returns once every slot is held.
func runParked(t *testing.T, ctx context.Context, extra int) (*parkedOps, <-chan *Result, <-chan error) {
	t.Helper()
	p := &parkedOps{release: make(chan struct{})}
	resc, errc := make(chan *Result, 1), make(chan error, 1)
	go func() {
		res, err := Run(ctx, Config{Arrivals: burst{}, Requests: maxOutstanding + extra, Clock: NewVirtualClock(time.Unix(0, 0)), Op: p.op})
		resc <- res
		errc <- err
	}()
	waitFor(t, "every slot to be held", func() bool { return p.in.Load() >= maxOutstanding })
	return p, resc, errc
}

// TestRunBoundsOutstanding: with every op parked, the dispatcher stops at
// maxOutstanding in flight and goes on once the ops are released.
func TestRunBoundsOutstanding(t *testing.T) {
	const extra = 50
	p, resc, errc := runParked(t, context.Background(), extra)
	// A bound is seen to hold only over a window: give the dispatcher
	// time to overrun it.
	time.Sleep(20 * time.Millisecond)
	if n := p.built.Load(); n != maxOutstanding {
		t.Fatalf("dispatcher built %d ops with %d slots held, want %d", n, maxOutstanding, maxOutstanding)
	}
	close(p.release)
	res, err := <-resc, <-errc
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatched != maxOutstanding+extra || res.Completed != maxOutstanding+extra {
		t.Fatalf("dispatched %d, completed %d, want %d", res.Dispatched, res.Completed, maxOutstanding+extra)
	}
	if peak := p.peak.Load(); peak > maxOutstanding {
		t.Fatalf("%d ops in flight at once, want at most %d", peak, maxOutstanding)
	}
}

// TestRunCancelWhileSlotsFull: a cancel while the dispatcher waits for a
// slot stops dispatching; once the launched ops are released Run returns
// ctx's error and leaves no goroutine behind.
func TestRunCancelWhileSlotsFull(t *testing.T) {
	const extra = 50
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	p, resc, errc := runParked(t, ctx, extra)
	cancel()
	close(p.release)
	var res *Result
	select {
	case res = <-resc:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the cancel and the release")
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if res.Dispatched >= maxOutstanding+extra {
		t.Fatalf("cancelled run dispatched all %d requests", res.Dispatched)
	}
	waitFor(t, "the run's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}
