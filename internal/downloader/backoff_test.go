package downloader

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/registry"
)

func TestBackoffDelaySchedule(t *testing.T) {
	noJitter := func() float64 { return 0 } // upper edge of the jitter band
	want := []time.Duration{
		50 * time.Millisecond,   // attempt 1
		100 * time.Millisecond,  // attempt 2
		200 * time.Millisecond,  // attempt 3
		400 * time.Millisecond,  // attempt 4
		800 * time.Millisecond,  // attempt 5
		1600 * time.Millisecond, // attempt 6
		3200 * time.Millisecond, // attempt 7
		5 * time.Second,         // attempt 8: capped
		5 * time.Second,         // attempt 9: stays capped
	}
	for i, w := range want {
		if got := backoffDelay(i+1, noJitter); got != w {
			t.Errorf("backoffDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterBand(t *testing.T) {
	// rnd=1 hits the bottom of the band, rnd=0 the top.
	if got := backoffDelay(1, func() float64 { return 1 }); got != 25*time.Millisecond {
		t.Errorf("full jitter: %v, want 25ms", got)
	}
	if got := backoffDelay(1, func() float64 { return 0 }); got != 50*time.Millisecond {
		t.Errorf("zero jitter draw: %v, want 50ms", got)
	}
}

// failingServer always answers 500 — a retryable error class for both
// manifest and blob fetches.
func failingServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, "synthetic outage", http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestRetrySleepsBackoffSchedule drives a real download against an
// always-failing registry with a fake clock and asserts the retry loop
// slept exactly the exponential schedule.
func TestRetrySleepsBackoffSchedule(t *testing.T) {
	fail := failingServer(t)
	var mu sync.Mutex
	var slept []time.Duration
	dl := &Downloader{
		Client:  &registry.Client{Base: fail.URL},
		Store:   blobstore.NewMemory(),
		Workers: 1,
		Retries: 3,
		sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		},
		rnd: func() float64 { return 0 }, // deterministic: top of the jitter band
	}
	res, err := dl.RunContext(context.Background(), []string{"some/repo"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OtherFailures != 1 {
		t.Fatalf("OtherFailures = %d, want 1", res.Stats.OtherFailures)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full: %v)", i, slept[i], want[i], slept)
		}
	}
}

// TestRetryLoopRespectsCancelledContext: a cancelled context stops the
// retry loop at the first backoff sleep instead of burning all attempts.
func TestRetryLoopRespectsCancelledContext(t *testing.T) {
	fail := failingServer(t)
	var sleeps atomic.Int64
	dl := &Downloader{
		Client:  &registry.Client{Base: fail.URL},
		Store:   blobstore.NewMemory(),
		Workers: 1,
		Retries: 5,
		sleep: func(ctx context.Context, d time.Duration) error {
			sleeps.Add(1)
			return context.Canceled
		},
	}
	res, err := dl.RunContext(context.Background(), []string{"some/repo"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OtherFailures != 1 {
		t.Fatalf("OtherFailures = %d, want 1", res.Stats.OtherFailures)
	}
	if sleeps.Load() != 1 {
		t.Fatalf("retry loop slept %d times after abort, want 1", sleeps.Load())
	}
}
