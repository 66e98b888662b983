package trafficsim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
)

// ArrivalSpec names an arrival process and its knobs, decoupled from the
// seeded stream so one spec can be instantiated per run. Kind is
// "poisson" (the default) or "closed". "closed" has no schedule: Workers
// clients each send their next request when the previous one returns, and
// Rate is unused.
type ArrivalSpec struct {
	Kind string
	// Rate is the mean offered arrivals per second.
	Rate float64
	// Workers is the client count for Kind "closed".
	Workers int
}

// WithRate returns a copy of the spec at a different mean rate — the
// sweep and search primitive.
func (s ArrivalSpec) WithRate(rate float64) ArrivalSpec {
	s.Rate = rate
	return s
}

// Options configures one Execute call.
type Options struct {
	// Env is the provisioning environment (scale, seed, request count,
	// clock).
	Env Env
	// Arrivals shapes the offered load.
	Arrivals ArrivalSpec
	// Timeout bounds each request (0 = none).
	Timeout time.Duration
}

// Execute provisions the scenario on a fresh serve.Group, runs the
// workload, and tears the stack down — one hermetic measurement. Every
// probe of a rate search goes through here, so no cache warmth or
// connection state leaks between probes. A run of no requests, an
// unknown arrival kind, a non-positive Poisson rate or a closed loop
// without workers is refused before anything is provisioned.
func Execute(ctx context.Context, sc Scenario, opt Options) (*Result, error) {
	cfg := Config{
		Requests: opt.Env.Requests,
		Clock:    opt.Env.Clock,
		Timeout:  opt.Timeout,
	}
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("trafficsim: a run needs at least one request, got %d", cfg.Requests)
	}
	switch opt.Arrivals.Kind {
	case "closed":
		if opt.Arrivals.Workers < 1 {
			return nil, fmt.Errorf("trafficsim: a closed loop needs at least one worker, got %d", opt.Arrivals.Workers)
		}
	case "", "poisson":
		arr, err := NewPoisson(opt.Arrivals.Rate, opt.Env.rng(seedArrive))
		if err != nil {
			return nil, err
		}
		cfg.Arrivals = arr
	default:
		return nil, fmt.Errorf("trafficsim: unknown arrival kind %q (want poisson or closed)", opt.Arrivals.Kind)
	}

	g := &serve.Group{}
	// Drain must run even when the workload ctx was cancelled mid-run —
	// detach from cancellation, keep the caller's values — and is bounded
	// at 30s.
	shutdown := func() error {
		sdctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		return g.Shutdown(sdctx)
	}

	opFor, err := sc.Setup(ctx, g, &opt.Env)
	if err != nil {
		_ = shutdown()
		return nil, fmt.Errorf("trafficsim: %s setup: %w", sc.Name(), err)
	}
	cfg.Op = opFor

	var res *Result
	var runErr error
	if cfg.Arrivals == nil {
		res, runErr = RunClosed(ctx, opt.Arrivals.Workers, cfg)
	} else {
		res, runErr = Run(ctx, cfg)
	}
	if err := shutdown(); err != nil && runErr == nil {
		runErr = fmt.Errorf("trafficsim: %s shutdown: %w", sc.Name(), err)
	}
	return res, runErr
}

// RunReport is one run flattened for the bench JSON trajectory.
type RunReport struct {
	Scenario    string               `json:"scenario"`
	Arrivals    string               `json:"arrivals"`
	RatePerS    float64              `json:"rate_per_s"`
	Requests    int                  `json:"requests"`
	Dispatched  int                  `json:"dispatched"`
	Completed   int64                `json:"completed"`
	Errors      int64                `json:"errors"`
	Timeouts    int64                `json:"timeouts"`
	WallS       float64              `json:"wall_s"`
	GoodputPerS float64              `json:"goodput_per_s"`
	MBPerS      float64              `json:"mb_per_s"`
	Latency     stats.LatencySummary `json:"latency"`
	Service     stats.LatencySummary `json:"service"`
	SLO         *Verdict             `json:"slo,omitempty"`
}

// NewRunReport flattens a result; slo may be nil.
func NewRunReport(scenario string, spec ArrivalSpec, r *Result, slo *SLO) RunReport {
	rep := RunReport{
		Scenario:    scenario,
		Arrivals:    spec.Kind,
		RatePerS:    spec.Rate,
		Requests:    r.Requests,
		Dispatched:  r.Dispatched,
		Completed:   r.Completed,
		Errors:      r.Errors,
		Timeouts:    r.Timeouts,
		WallS:       r.Wall.Seconds(),
		GoodputPerS: r.Goodput(),
		MBPerS:      r.BytesPerS() / (1 << 20),
		Latency:     r.Latency.Summary(),
		Service:     r.Service.Summary(),
	}
	if rep.Arrivals == "" {
		rep.Arrivals = "poisson"
	}
	if slo != nil {
		v := slo.Evaluate(r)
		rep.SLO = &v
	}
	return rep
}

// BenchReport is the BENCH_traffic.json document: the recorded
// tail-latency trajectory (one RunReport per scenario × rate), plus the
// optional max-throughput-under-SLO search and the closed-vs-open-loop
// comparison.
type BenchReport struct {
	Scale          float64       `json:"scale"`
	Seed           int64         `json:"seed"`
	Requests       int           `json:"requests"`
	SLO            string        `json:"slo"`
	Runs           []RunReport   `json:"runs"`
	SearchScenario string        `json:"search_scenario,omitempty"`
	Search         *SearchResult `json:"search,omitempty"`
	Comparison     *Comparison   `json:"comparison,omitempty"`
}

// Comparison contrasts closed-loop and open-loop measurement of the same
// scenario at the same offered work: the closed-loop p99 is the figure a
// worker-pool generator reports, the open-loop p99 is the
// coordinated-omission-safe one. At overload the open-loop number is the
// one clients actually experience.
type Comparison struct {
	Scenario          string  `json:"scenario"`
	RatePerS          float64 `json:"rate_per_s"`
	Workers           int     `json:"workers"`
	ClosedP99MS       float64 `json:"closed_p99_ms"`
	OpenP99MS         float64 `json:"open_p99_ms"`
	OpenServiceP99MS  float64 `json:"open_service_p99_ms"`
	RatioOpenToClosed float64 `json:"ratio_open_to_closed"`
}

// CompareClosedOpen runs the scenario twice — closed-loop with the given
// worker count, then on opt's open-loop arrival process at ratePerS — and
// reports both p99s. The legs differ only in their ArrivalSpec; each is
// freshly provisioned.
func CompareClosedOpen(ctx context.Context, sc Scenario, opt Options, workers int, ratePerS float64) (*Comparison, *Result, *Result, error) {
	closedOpt := opt
	closedOpt.Arrivals = ArrivalSpec{Kind: "closed", Workers: workers}
	closed, err := Execute(ctx, sc, closedOpt)
	if err != nil {
		return nil, nil, nil, err
	}

	openOpt := opt
	openOpt.Arrivals = opt.Arrivals.WithRate(ratePerS)
	open, err := Execute(ctx, sc, openOpt)
	if err != nil {
		return nil, closed, nil, err
	}

	cmp := &Comparison{
		Scenario:         sc.Name(),
		RatePerS:         ratePerS,
		Workers:          workers,
		ClosedP99MS:      float64(closed.Latency.P(99)) / float64(time.Millisecond),
		OpenP99MS:        float64(open.Latency.P(99)) / float64(time.Millisecond),
		OpenServiceP99MS: float64(open.Service.P(99)) / float64(time.Millisecond),
	}
	if cmp.ClosedP99MS > 0 {
		cmp.RatioOpenToClosed = cmp.OpenP99MS / cmp.ClosedP99MS
	}
	return cmp, closed, open, nil
}
