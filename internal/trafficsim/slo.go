package trafficsim

import (
	"context"
	"fmt"
	"time"
)

// SLO is a declared service-level objective over one run: the
// coordinated-omission-safe p99 latency must stay at or below Latency,
// and the error+timeout fraction at or below MaxErrorRate.
type SLO struct {
	// Latency is the bound on p99.
	Latency time.Duration
	// MaxErrorRate bounds (errors+timeouts)/dispatched, 0..1.
	MaxErrorRate float64
}

func (s SLO) String() string {
	return fmt.Sprintf("p99<=%v,err<=%.2g", s.Latency, s.MaxErrorRate)
}

// Verdict is one SLO evaluated against one run, shaped for the bench JSON.
type Verdict struct {
	TargetMS     float64 `json:"target_ms"`
	ObservedMS   float64 `json:"observed_ms"`
	MaxErrorRate float64 `json:"max_error_rate"`
	ErrorRate    float64 `json:"error_rate"`
	Pass         bool    `json:"pass"`
}

// Evaluate scores a run against the objective. A run that completed
// nothing fails outright (the latency bound is unmeasurable and the error
// rate is total).
func (s SLO) Evaluate(r *Result) Verdict {
	v := Verdict{
		TargetMS:     float64(s.Latency) / float64(time.Millisecond),
		MaxErrorRate: s.MaxErrorRate,
		ErrorRate:    r.ErrorRate(),
	}
	if r.Latency.N() == 0 {
		return v
	}
	observed := r.Latency.P(99)
	v.ObservedMS = float64(observed) / float64(time.Millisecond)
	v.Pass = observed <= s.Latency && v.ErrorRate <= s.MaxErrorRate
	return v
}

// SearchProbe is one bisection step of a max-throughput search.
type SearchProbe struct {
	RatePerS    float64 `json:"rate_per_s"`
	Verdict     Verdict `json:"verdict"`
	GoodputPerS float64 `json:"goodput_per_s"`
}

// SearchResult is the outcome of SearchMaxRate: the highest offered rate
// that still met the SLO, bracketed by the probes that found it.
type SearchResult struct {
	SLO         string        `json:"slo"`
	MaxRatePerS float64       `json:"max_rate_per_s"`
	Probes      []SearchProbe `json:"probes"`
}

// SearchMaxRate bisects [lo, hi] offered rates for the maximum
// sustainable throughput under the SLO: the largest rate whose run
// passes. run executes one complete, freshly provisioned run at the given
// rate (scenario setup included, so state never leaks between probes).
// The endpoints are probed first: if hi passes, hi is returned (capacity
// exceeds the bracket); if lo fails, zero is returned (the bracket is
// entirely above capacity). iters bounds the bisection steps after the
// endpoints.
func SearchMaxRate(ctx context.Context, lo, hi float64, iters int, slo SLO, run func(ctx context.Context, rate float64) (*Result, error)) (*SearchResult, error) {
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("trafficsim: search bracket [%g, %g] must satisfy 0 < lo < hi", lo, hi)
	}
	out := &SearchResult{SLO: slo.String()}
	probe := func(rate float64) (bool, error) {
		res, err := run(ctx, rate)
		if err != nil {
			return false, err
		}
		v := slo.Evaluate(res)
		out.Probes = append(out.Probes, SearchProbe{RatePerS: rate, Verdict: v, GoodputPerS: res.Goodput()})
		return v.Pass, nil
	}

	switch pass, err := probe(hi); {
	case err != nil:
		return nil, err
	case pass:
		out.MaxRatePerS = hi
		return out, nil
	}
	switch pass, err := probe(lo); {
	case err != nil:
		return nil, err
	case !pass:
		out.MaxRatePerS = 0
		return out, nil
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		pass, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	out.MaxRatePerS = lo
	return out, nil
}
