package trafficsim

import (
	"context"
	"testing"
	"time"

	"repro/internal/stats"
)

// resultWithLatencies builds a Result whose latency histogram holds the
// given durations, all successful.
func resultWithLatencies(lats ...time.Duration) *Result {
	var lat, svc stats.Hist
	for _, d := range lats {
		lat.Record(d)
		svc.Record(d)
	}
	return &Result{
		Requests:   len(lats),
		Dispatched: len(lats),
		Completed:  int64(len(lats)),
		Wall:       time.Second,
		Latency:    &lat,
		Service:    &svc,
	}
}

func TestSLOEvaluate(t *testing.T) {
	slo := SLO{Latency: 100 * time.Millisecond, MaxErrorRate: 0.01}

	fast := make([]time.Duration, 1000)
	for i := range fast {
		fast[i] = 10 * time.Millisecond
	}
	if v := slo.Evaluate(resultWithLatencies(fast...)); !v.Pass {
		t.Errorf("uniform 10ms run failed p99<=100ms: observed %.1fms", v.ObservedMS)
	}

	slow := make([]time.Duration, 1000)
	for i := range slow {
		slow[i] = 10 * time.Millisecond
		if i >= 980 {
			slow[i] = 500 * time.Millisecond // top 2% blows the p99 bound
		}
	}
	if v := slo.Evaluate(resultWithLatencies(slow...)); v.Pass {
		t.Errorf("run with 2%% at 500ms passed p99<=100ms: observed %.1fms", v.ObservedMS)
	}

	// Error budget: latency fine, too many failures.
	r := resultWithLatencies(fast...)
	r.Errors = 100
	r.Dispatched = 1100
	if v := slo.Evaluate(r); v.Pass {
		t.Errorf("run with %.1f%% errors passed err<=1%%", v.ErrorRate*100)
	}

	// Nothing completed: unmeasurable, must fail.
	empty := &Result{Dispatched: 10, Errors: 10, Latency: &stats.Hist{}, Service: &stats.Hist{}}
	if v := slo.Evaluate(empty); v.Pass {
		t.Error("run that completed nothing passed its SLO")
	}
}

// searchHarness simulates a server with a capacity knee: runs at or below
// capacity see 10ms p99, runs above see 1s.
func searchHarness(capacity float64) func(ctx context.Context, rate float64) (*Result, error) {
	return func(ctx context.Context, rate float64) (*Result, error) {
		lat := 10 * time.Millisecond
		if rate > capacity {
			lat = time.Second
		}
		samples := make([]time.Duration, 100)
		for i := range samples {
			samples[i] = lat
		}
		return resultWithLatencies(samples...), nil
	}
}

func TestSearchMaxRateBisection(t *testing.T) {
	slo := SLO{Latency: 100 * time.Millisecond, MaxErrorRate: 0.01}
	const capacity = 137.0

	res, err := SearchMaxRate(context.Background(), 10, 1000, 12, slo, searchHarness(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRatePerS > capacity {
		t.Fatalf("search found %g/s above the true capacity %g/s", res.MaxRatePerS, capacity)
	}
	// 12 bisections of a 990-wide bracket pin the knee within a quarter r/s.
	if capacity-res.MaxRatePerS > 0.25 {
		t.Fatalf("search found %g/s, want within 0.25 of %g/s", res.MaxRatePerS, capacity)
	}
	if len(res.Probes) < 3 {
		t.Fatalf("search recorded %d probes, want endpoints plus bisections", len(res.Probes))
	}
	if res.SLO == "" {
		t.Error("search result lost its SLO description")
	}
}

func TestSearchMaxRateEndpoints(t *testing.T) {
	slo := SLO{Latency: 100 * time.Millisecond}

	// Capacity above the bracket: hi passes immediately.
	res, err := SearchMaxRate(context.Background(), 10, 100, 8, slo, searchHarness(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRatePerS != 100 {
		t.Errorf("all-pass bracket returned %g, want hi=100", res.MaxRatePerS)
	}
	if len(res.Probes) != 1 {
		t.Errorf("all-pass bracket used %d probes, want 1", len(res.Probes))
	}

	// Capacity below the bracket: even lo fails.
	res, err = SearchMaxRate(context.Background(), 10, 100, 8, slo, searchHarness(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRatePerS != 0 {
		t.Errorf("all-fail bracket returned %g, want 0", res.MaxRatePerS)
	}

	if _, err := SearchMaxRate(context.Background(), 100, 10, 8, slo, searchHarness(1)); err == nil {
		t.Error("inverted bracket accepted")
	}
	if _, err := SearchMaxRate(context.Background(), 0, 10, 8, slo, searchHarness(1)); err == nil {
		t.Error("zero lo accepted")
	}
}

func TestSLOString(t *testing.T) {
	s := SLO{Latency: 250 * time.Millisecond, MaxErrorRate: 0.01}
	if got := s.String(); got != "p99<=250ms,err<=0.01" {
		t.Errorf("SLO string = %q", got)
	}
}
