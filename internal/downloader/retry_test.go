package downloader

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/manifest"
	"repro/internal/registry"
)

// statusServer answers every request with the given status, optionally
// sending a Retry-After header, until `failures` requests have been served;
// afterwards it 404s (a permanent class) so retry loops terminate.
func statusServer(t *testing.T, status int, retryAfter string, failures int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if served.Add(1) > failures && failures > 0 {
			http.NotFound(w, req)
			return
		}
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, "synthetic", status)
	}))
	t.Cleanup(srv.Close)
	return srv, &served
}

// TestRetryableClassification drives the client against servers answering
// each failure class and checks both the typed error mapping and the retry
// verdict: auth, not-found, and unsatisfiable-range are permanent; throttle
// (429/503) and generic server errors are transient; a cancelled context is
// never retried.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name      string
		status    int
		wantErr   error
		retryable bool
	}{
		{"401-unauthorized", http.StatusUnauthorized, registry.ErrUnauthorized, false},
		{"404-not-found", http.StatusNotFound, registry.ErrNotFound, false},
		{"416-range", http.StatusRequestedRangeNotSatisfiable, registry.ErrRangeUnsatisfiable, false},
		{"429-throttle", http.StatusTooManyRequests, nil, true},
		{"503-throttle", http.StatusServiceUnavailable, nil, true},
		{"500-generic", http.StatusInternalServerError, nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := statusServer(t, c.status, "", 0)
			client := &registry.Client{Base: srv.URL}
			_, _, err := client.ManifestContext(context.Background(), "some/repo", "latest")
			if err == nil {
				t.Fatal("expected an error")
			}
			if c.wantErr != nil && !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v class", err, c.wantErr)
			}
			if got := retryable(err); got != c.retryable {
				t.Fatalf("retryable(%v) = %v, want %v", err, got, c.retryable)
			}
		})
	}

	t.Run("ctx-cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		srv, _ := statusServer(t, http.StatusOK, "", 0)
		client := &registry.Client{Base: srv.URL}
		_, _, err := client.ManifestContext(ctx, "some/repo", "latest")
		if err == nil {
			t.Fatal("expected an error from a cancelled context")
		}
		if retryable(err) {
			t.Fatalf("retryable(%v) = true, want false", err)
		}
	})
}

// TestThrottleErrorCarriesHint checks the Retry-After header parse on both
// throttle statuses and its absence.
func TestThrottleErrorCarriesHint(t *testing.T) {
	cases := []struct {
		status int
		header string
		want   time.Duration
	}{
		{http.StatusServiceUnavailable, "7", 7 * time.Second},
		{http.StatusServiceUnavailable, "", 0},
		{http.StatusTooManyRequests, "2", 2 * time.Second},
		{http.StatusTooManyRequests, "", 0},
		{http.StatusServiceUnavailable, "garbage", 0},
		{http.StatusServiceUnavailable, "-3", 0},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%d-%q", c.status, c.header), func(t *testing.T) {
			srv, _ := statusServer(t, c.status, c.header, 0)
			client := &registry.Client{Base: srv.URL}
			_, _, err := client.ManifestContext(context.Background(), "some/repo", "latest")
			var te *registry.ThrottleError
			if !errors.As(err, &te) {
				t.Fatalf("err = %v, want *ThrottleError", err)
			}
			if te.Status != c.status {
				t.Fatalf("Status = %d, want %d", te.Status, c.status)
			}
			if got := registry.RetryAfterHint(err); got != c.want {
				t.Fatalf("RetryAfterHint = %v, want %v", got, c.want)
			}
		})
	}
}

// TestRetryAfterFloorsBackoff: a 503 with Retry-After: 7 must floor every
// backoff pause at 7s — the exponential schedule (50ms, 100ms, ...) stays
// below the hint throughout, so the fake clock should record the hint, not
// the schedule.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	srv, _ := statusServer(t, http.StatusServiceUnavailable, "7", 0)
	var mu sync.Mutex
	var slept []time.Duration
	dl := &Downloader{
		Client:  &registry.Client{Base: srv.URL},
		Store:   blobstore.NewMemory(),
		Workers: 1,
		Retries: 3,
		sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		},
		rnd: func() float64 { return 0 },
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
	want := []time.Duration{7 * time.Second, 7 * time.Second, 7 * time.Second}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full: %v)", i, slept[i], want[i], slept)
		}
	}
}

// TestRetryAfterBelowBackoffKeepsSchedule: when the hint is smaller than
// the computed backoff, the exponential schedule wins — the hint is a
// floor, not a replacement. A 429 with no hint at all must fall back to
// the plain exponential schedule.
func TestRetryAfterBelowBackoffKeepsSchedule(t *testing.T) {
	const ms = time.Millisecond
	for _, c := range []struct {
		name       string
		retryAfter string
		want       []time.Duration
	}{
		{"429-no-hint", "", []time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5000 * ms}},
		{"429-tiny-hint", "1", []time.Duration{1000 * ms, 1000 * ms, 1000 * ms, 1000 * ms, 1000 * ms, 1600 * ms, 3200 * ms, 5000 * ms}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := statusServer(t, http.StatusTooManyRequests, c.retryAfter, 0)
			var mu sync.Mutex
			var slept []time.Duration
			dl := &Downloader{
				Client:  &registry.Client{Base: srv.URL},
				Store:   blobstore.NewMemory(),
				Workers: 1,
				Retries: len(c.want),
				sleep: func(ctx context.Context, d time.Duration) error {
					mu.Lock()
					slept = append(slept, d)
					mu.Unlock()
					return nil
				},
				rnd: func() float64 { return 0 },
			}
			if _, err := dl.RunContext(context.Background(), []string{"some/repo"}); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(slept) != len(c.want) {
				t.Fatalf("slept %v, want %v", slept, c.want)
			}
			for i := range c.want {
				if slept[i] != c.want[i] {
					t.Fatalf("sleep %d = %v, want %v (full: %v)", i, slept[i], c.want[i], slept)
				}
			}
		})
	}
}

// singleImageRegistry builds a registry holding one repository with a
// one-layer image and returns it with the repository name.
func singleImageRegistry(t *testing.T) (*registry.Registry, string) {
	t.Helper()
	reg := registry.New(blobstore.NewMemory())
	layer := []byte("layer bytes for the throttle test")
	config := []byte(`{"architecture":"amd64","os":"linux"}`)
	ld, err := reg.PushBlob(layer)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := reg.PushBlob(config)
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.New(
		manifest.Descriptor{MediaType: manifest.MediaTypeConfig, Size: int64(len(config)), Digest: cd},
		[]manifest.Descriptor{{MediaType: manifest.MediaTypeLayer, Size: int64(len(layer)), Digest: ld}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const repo = "library/throttled"
	reg.CreateRepo(repo, false)
	if _, err := reg.PushManifest(repo, "latest", m); err != nil {
		t.Fatal(err)
	}
	return reg, repo
}

// TestThrottledBlobRecoversAfterHint: end to end, a transiently throttled
// registry (two 503s, then healthy) yields a successful download once the
// retry loop waits out the hint.
func TestThrottledBlobRecoversAfterHint(t *testing.T) {
	reg, repo := singleImageRegistry(t)
	var failures atomic.Int64
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if failures.Load() < 2 {
			failures.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		reg.ServeHTTP(w, req)
	}))
	t.Cleanup(gate.Close)

	var slept []time.Duration
	var mu sync.Mutex
	dl := &Downloader{
		Client:  &registry.Client{Base: gate.URL},
		Store:   blobstore.NewMemory(),
		Workers: 1,
		Retries: 4,
		sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		},
		rnd: func() float64 { return 0 },
	}
	res, err := dl.RunContext(context.Background(), []string{repo})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Downloaded != 1 {
		t.Fatalf("Downloaded = %d, want 1 (stats: %+v)", res.Stats.Downloaded, res.Stats)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, d := range slept {
		if d < time.Second {
			t.Fatalf("sleep %d = %v, below the 1s Retry-After floor", i, d)
		}
	}
}
