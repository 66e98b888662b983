// Command trafficsim is the repository's load generator: it drives
// popularity-skewed workloads against self-provisioned serving stacks —
// or, with the replay scenario, against a deployment that is already
// running — and reports coordinated-omission-safe tail latency against
// declared SLOs.
//
// Usage:
//
//	trafficsim [-scenarios pull-storm,mixed,flash-crowd,slow-clients,replay] \
//	           [-rates 60,120,240] [-arrivals poisson|closed] [-workers 8] \
//	           [-n 400] [-scale 0.003] [-seed 1] [-timeout 30s] \
//	           [-slo-p99 500ms] [-slo-errors 0.01] \
//	           [-search pull-storm] [-search-lo 40] [-search-hi 600] [-search-iters 5] \
//	           [-compare pull-storm] [-compare-rate 0] \
//	           [-nodes 2] [-replicas 2] [-slow-read-bps 131072] \
//	           [-registry http://localhost:5000] [-search-url http://localhost:5001] \
//	           [-json BENCH_traffic.json]
//
// Each scenario × rate cell provisions a fresh stack (cluster, registry,
// mirror — per the scenario), runs -n requests on Poisson arrivals at the
// cell's mean rate, and reports two latency views: Latency (scheduled
// arrival → completion, the coordinated-omission-safe figure) and Service
// (dispatch → completion, what a closed-loop generator would claim). The
// SLO verdict binds the Latency view.
//
// -scenarios replay provisions nothing: it pages the Hub search API at
// -search-url for repository names and pull counts and pulls from
// -registry, which may be any hubregistry role: a hub of its own, a
// mirror (-origin) in front of one, or a router (-nodes) over several.
//
// -arrivals closed replaces the schedule by -workers clients that each
// send their next request when the previous one returns; -rates is then
// unused and each scenario runs once. Its latency is service time only.
//
// -nodes and -replicas size pull-storm's cluster; slow-clients always
// runs against one registry.
//
// -search runs a bisection for the maximum offered rate whose run still
// meets the SLO; every probe is a fresh, hermetic run. -compare runs the
// named scenario closed-loop (-workers clients) and open-loop at
// -compare-rate (1.5x the searched capacity when 0) to put a number on
// what coordinated omission hides at overload.
//
// Every flag is checked before anything is provisioned: an unknown
// scenario or arrival process, a bad -rates entry or -search bracket, a
// non-positive -n or -workers, or a -compare with no way to pick its rate
// exits 2 without running.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/trafficsim"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the sweep, search and comparison the flags ask for,
// printing progress to stdout and errors to stderr. It returns the exit
// code (2 for usage errors).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trafficsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarios := fs.String("scenarios", "pull-storm,mixed,flash-crowd,slow-clients", "comma-separated scenario sweep (pull-storm, mixed, flash-crowd, slow-clients, replay)")
	rates := fs.String("rates", "60,120,240", "comma-separated mean offered rates (requests/s) per scenario")
	arrivals := fs.String("arrivals", "poisson", "arrival process: poisson or closed (-workers clients, no schedule)")
	workers := fs.Int("workers", 8, "closed-loop client count for -arrivals closed and -compare")
	n := fs.Int("n", 400, "requests per run")
	scale := fs.Float64("scale", 0.003, "synthetic population scale")
	seed := fs.Int64("seed", 1, "base RNG seed (trace, arrivals, payloads derive offset streams)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout (0 = none)")
	sloP99 := fs.Duration("slo-p99", 500*time.Millisecond, "SLO: p99 latency bound")
	sloErrors := fs.Float64("slo-errors", 0.01, "SLO: maximum error+timeout fraction")
	search := fs.String("search", "", "bisect this scenario for max sustainable rate under the SLO")
	searchLo := fs.Float64("search-lo", 40, "search bracket low rate")
	searchHi := fs.Float64("search-hi", 600, "search bracket high rate")
	searchIters := fs.Int("search-iters", 5, "bisection steps after the bracket endpoints")
	compare := fs.String("compare", "", "run this scenario closed-loop vs open-loop at overload")
	compareRate := fs.Float64("compare-rate", 0, "open-loop rate for -compare (0 = 1.5x the -search result)")
	nodes := fs.Int("nodes", 2, "cluster nodes for pull-storm")
	replicas := fs.Int("replicas", 2, "cluster replication factor for pull-storm")
	slowReadBPS := fs.Int64("slow-read-bps", 128<<10, "per-client read throttle for slow-clients")
	regURL := fs.String("registry", "http://localhost:5000", "replay: base URL pulls go to (registry, mirror, or router)")
	searchURL := fs.String("search-url", "http://localhost:5001", "replay: Hub search API base URL the population comes from")
	jsonPath := fs.String("json", "", "write the bench document to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "trafficsim:", err)
		return 1
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "trafficsim:", err)
		return 2
	}

	slo := trafficsim.SLO{Latency: *sloP99, MaxErrorRate: *sloErrors}
	spec := trafficsim.ArrivalSpec{Kind: *arrivals, Workers: *workers}
	baseOpt := trafficsim.Options{
		Env:     trafficsim.Env{Scale: *scale, Seed: *seed, Requests: *n},
		Timeout: *timeout,
	}
	// byName builds a scenario by its Name, with the knobs its flags set.
	byName := func(name string) (trafficsim.Scenario, error) {
		switch name {
		case "pull-storm":
			return &trafficsim.PullStorm{Nodes: *nodes, Replicas: *replicas}, nil
		case "mixed":
			return &trafficsim.MixedPushPull{}, nil
		case "flash-crowd":
			return &trafficsim.FlashCrowd{}, nil
		case "slow-clients":
			return &trafficsim.SlowClients{Nodes: 1, ReadBytesPerS: *slowReadBPS}, nil
		case "replay":
			return &trafficsim.Replay{Registry: *regURL, Search: *searchURL}, nil
		default:
			return nil, fmt.Errorf("unknown scenario %q (want pull-storm, mixed, flash-crowd, slow-clients, or replay)", name)
		}
	}

	// Resolve every name and check every number before the first stack
	// is provisioned: a bad flag costs no run.
	if *n < 1 || *workers < 1 {
		return usage(fmt.Errorf("-n and -workers must be positive (got %d, %d)", *n, *workers))
	}
	var sweep []trafficsim.Scenario
	if *scenarios != "" {
		for _, name := range strings.Split(*scenarios, ",") {
			sc, err := byName(strings.TrimSpace(name))
			if err != nil {
				return usage(err)
			}
			sweep = append(sweep, sc)
		}
	}
	// Closed loop has no schedule to sweep: each scenario runs once.
	rateList := []float64{0}
	switch spec.Kind {
	case "", "poisson":
		rateList = nil
		for _, tok := range strings.Split(*rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil || r <= 0 {
				return usage(fmt.Errorf("bad -rates entry %q", tok))
			}
			rateList = append(rateList, r)
		}
	case "closed":
		if *search != "" || *compare != "" {
			return usage(fmt.Errorf("-search and -compare need an open-loop -arrivals process"))
		}
	default:
		return usage(fmt.Errorf("unknown -arrivals %q (want poisson or closed)", spec.Kind))
	}
	var searchSc, compareSc trafficsim.Scenario
	var err error
	if *search != "" {
		if *searchLo <= 0 || *searchHi <= *searchLo {
			return usage(fmt.Errorf("-search bracket [%g, %g] must satisfy 0 < -search-lo < -search-hi", *searchLo, *searchHi))
		}
		if searchSc, err = byName(*search); err != nil {
			return usage(err)
		}
	}
	if *compare != "" {
		if *compareRate <= 0 && *search == "" {
			return usage(fmt.Errorf("-compare needs -compare-rate or a -search to pick the overload rate"))
		}
		if compareSc, err = byName(*compare); err != nil {
			return usage(err)
		}
	}

	out := trafficsim.BenchReport{Scale: *scale, Seed: *seed, Requests: *n, SLO: slo.String()}
	for _, sc := range sweep {
		for _, rate := range rateList {
			opt := baseOpt
			opt.Arrivals = spec.WithRate(rate)
			res, err := trafficsim.Execute(ctx, sc, opt)
			if err != nil {
				return fail(fmt.Errorf("%s @ %g/s: %w", sc.Name(), rate, err))
			}
			rep := trafficsim.NewRunReport(sc.Name(), opt.Arrivals, res, &slo)
			out.Runs = append(out.Runs, rep)
			printRun(stdout, rep)
		}
	}

	if searchSc != nil {
		fmt.Fprintf(stdout, "searching %s for max rate under %v in [%g, %g]...\n", *search, slo, *searchLo, *searchHi)
		sr, err := trafficsim.SearchMaxRate(ctx, *searchLo, *searchHi, *searchIters, slo,
			func(ctx context.Context, rate float64) (*trafficsim.Result, error) {
				opt := baseOpt
				opt.Arrivals = spec.WithRate(rate)
				res, err := trafficsim.Execute(ctx, searchSc, opt)
				if err == nil {
					fmt.Fprintf(stdout, "  probe %7.1f/s: p99=%.1fms err=%.3f\n", rate,
						float64(res.Latency.P(99))/float64(time.Millisecond), res.ErrorRate())
				}
				return res, err
			})
		if err != nil {
			return fail(err)
		}
		out.SearchScenario = *search
		out.Search = sr
		fmt.Fprintf(stdout, "%s: max sustainable rate under %v = %.1f req/s (%d probes)\n",
			*search, slo, sr.MaxRatePerS, len(sr.Probes))
	}

	if compareSc != nil {
		rate := *compareRate
		if rate <= 0 {
			if out.Search.MaxRatePerS <= 0 {
				return fail(fmt.Errorf("-compare needs -compare-rate or a successful -search to pick the overload rate"))
			}
			rate = 1.5 * out.Search.MaxRatePerS
		}
		opt := baseOpt
		opt.Arrivals = spec
		cmp, closed, open, err := trafficsim.CompareClosedOpen(ctx, compareSc, opt, *workers, rate)
		if err != nil {
			return fail(err)
		}
		out.Comparison = cmp
		out.Runs = append(out.Runs,
			trafficsim.NewRunReport(*compare+"/closed-loop", trafficsim.ArrivalSpec{Kind: "closed"}, closed, &slo),
			trafficsim.NewRunReport(*compare+"/open-loop", spec.WithRate(rate), open, &slo))
		fmt.Fprintf(stdout, "%s closed-loop (%d workers) p99=%.1fms vs open-loop @ %.0f/s p99=%.1fms (%.1fx) — the gap is what coordinated omission hides\n",
			*compare, *workers, cmp.ClosedP99MS, rate, cmp.OpenP99MS, cmp.RatioOpenToClosed)
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	return 0
}

func printRun(w io.Writer, r trafficsim.RunReport) {
	verdict := ""
	if r.SLO != nil {
		verdict = fmt.Sprintf(" | slo p99<=%.0fms PASS", r.SLO.TargetMS)
		if !r.SLO.Pass {
			verdict = fmt.Sprintf(" | slo p99<=%.0fms FAIL", r.SLO.TargetMS)
		}
	}
	fmt.Fprintf(w, "%-12s %8s %6.0f/s: %d/%d ok (%d err, %d timeout) in %.1fs, %.0f req/s goodput\n",
		r.Scenario, r.Arrivals, r.RatePerS, r.Completed, r.Requests, r.Errors, r.Timeouts, r.WallS, r.GoodputPerS)
	if r.Arrivals == "closed" {
		// No schedule to measure from: a lagging client sends its next
		// request late and that queueing never reaches the histogram.
		fmt.Fprintf(w, "  service ms (closed loop, coordinated omission applies): p50=%.1f p99=%.1f p99.9=%.1f max=%.1f%s\n",
			r.Service.P50, r.Service.P99, r.Service.P999, r.Service.Max, verdict)
		return
	}
	fmt.Fprintf(w, "  latency ms (CO-safe): p50=%.1f p99=%.1f p99.9=%.1f max=%.1f | service p99=%.1f%s\n",
		r.Latency.P50, r.Latency.P99, r.Latency.P999, r.Latency.Max, r.Service.P99, verdict)
}
