package trafficsim

import (
	"context"
	"errors"
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
	arr, err := NewConstant(1000)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	res, err := Run(context.Background(), Config{
		Arrivals: arr,
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
	arr, _ := NewConstant(1000)
	boom := errors.New("boom")
	res, err := Run(context.Background(), Config{
		Arrivals: arr,
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
	arr, _ := NewConstant(100)
	res, err := Run(context.Background(), Config{
		Arrivals: arr,
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
	arr, _ := NewConstant(1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Config{
		Arrivals: arr,
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
	arr, _ := NewConstant(1)
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

// TestExecuteClosedArrivals: closed loop is an arrival mode. Execute with
// ArrivalSpec{Kind: "closed"} is RunClosed over the scenario's ops — the
// counts the removed Options.Closed path produced — and the open-loop
// kinds account for the same ops identically, so CompareClosedOpen's two
// legs differ in nothing but when requests are sent.
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
		{Kind: "constant", Rate: 1000},
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
