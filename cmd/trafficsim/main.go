// Command trafficsim is the repository's load generator: it drives
// popularity-skewed workloads against self-provisioned serving stacks —
// or, with the replay scenario, against a deployment that is already
// running — and reports coordinated-omission-safe tail latency against
// declared SLOs.
//
// Usage:
//
//	trafficsim [-scenarios pull-storm,mixed,flash-crowd,slow-clients,hierarchy,replay] \
//	           [-rates 60,120,240] [-arrivals poisson|constant|burst|closed] [-workers 8] \
//	           [-n 400] [-scale 0.003] [-seed 1] [-timeout 30s] \
//	           [-slo-p99 500ms] [-slo-errors 0.01] \
//	           [-search pull-storm] [-search-lo 40] [-search-hi 600] [-search-iters 5] \
//	           [-compare pull-storm] [-compare-rate 0] \
//	           [-nodes 2] [-replicas 2] [-node-bw 262144] [-slow-read-bps 131072] \
//	           [-registry http://localhost:5000] [-search-url http://localhost:5001] \
//	           [-json BENCH_traffic.json]
//
// Each scenario × rate cell provisions a fresh stack (cluster, registry,
// mirror tree — per the scenario), runs -n requests on the chosen arrival
// process, and reports two latency views: Latency (scheduled arrival →
// completion, the coordinated-omission-safe figure) and Service
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
// -search runs a bisection for the maximum offered rate whose run still
// meets the SLO; every probe is a fresh, hermetic run. -compare runs the
// named scenario closed-loop (-workers clients) and open-loop at
// -compare-rate (1.5x the searched capacity when 0) to put a number on
// what coordinated omission hides at overload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/trafficsim"
)

func main() {
	scenarios := flag.String("scenarios", "pull-storm,mixed,flash-crowd,slow-clients", "comma-separated scenario sweep (pull-storm, mixed, flash-crowd, slow-clients, hierarchy, replay)")
	rates := flag.String("rates", "60,120,240", "comma-separated mean offered rates (requests/s) per scenario")
	arrivals := flag.String("arrivals", "poisson", "arrival process: poisson, constant, burst, or closed (-workers clients, no schedule)")
	workers := flag.Int("workers", 8, "closed-loop client count for -arrivals closed and -compare")
	burstRatio := flag.Float64("burst-ratio", 8, "burst-to-base rate ratio for -arrivals burst")
	burstPeriod := flag.Duration("burst-period", 10*time.Second, "square-wave period for -arrivals burst")
	burstDuty := flag.Float64("burst-duty", 0.2, "burst fraction of each period for -arrivals burst")
	n := flag.Int("n", 400, "requests per run")
	scale := flag.Float64("scale", 0.003, "synthetic population scale")
	seed := flag.Int64("seed", 1, "base RNG seed (trace, arrivals, payloads derive offset streams)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout (0 = none)")
	sloP99 := flag.Duration("slo-p99", 500*time.Millisecond, "SLO: p99 latency bound")
	sloPct := flag.Float64("slo-percentile", 99, "SLO: percentile the latency bound binds")
	sloErrors := flag.Float64("slo-errors", 0.01, "SLO: maximum error+timeout fraction")
	search := flag.String("search", "", "bisect this scenario for max sustainable rate under the SLO")
	searchLo := flag.Float64("search-lo", 40, "search bracket low rate")
	searchHi := flag.Float64("search-hi", 600, "search bracket high rate")
	searchIters := flag.Int("search-iters", 5, "bisection steps after the bracket endpoints")
	compare := flag.String("compare", "", "run this scenario closed-loop vs open-loop at overload")
	compareRate := flag.Float64("compare-rate", 0, "open-loop rate for -compare (0 = 1.5x the -search result)")
	nodes := flag.Int("nodes", 2, "cluster nodes for pull-storm and slow-clients")
	replicas := flag.Int("replicas", 2, "cluster replication factor")
	nodeBW := flag.Int64("node-bw", 256<<10, "per-node egress pacing in bytes/s for pull-storm (0 = unpaced); pins capacity so overload rates are reproducible")
	slowReadBPS := flag.Int64("slow-read-bps", 128<<10, "per-client read throttle for slow-clients")
	regURL := flag.String("registry", "http://localhost:5000", "replay: base URL pulls go to (registry, mirror, or router)")
	searchURL := flag.String("search-url", "http://localhost:5001", "replay: Hub search API base URL the population comes from")
	jsonPath := flag.String("json", "", "write the bench document to this file as JSON")
	flag.Parse()

	slo := trafficsim.SLO{Percentile: *sloPct, Latency: *sloP99, MaxErrorRate: *sloErrors}
	spec := trafficsim.ArrivalSpec{
		Kind:       *arrivals,
		Workers:    *workers,
		BurstRatio: *burstRatio,
		Period:     *burstPeriod,
		Duty:       *burstDuty,
	}
	baseOpt := trafficsim.Options{
		Env:     trafficsim.Env{Scale: *scale, Seed: *seed, Requests: *n},
		Timeout: *timeout,
	}
	// Scenario knobs from the cluster-shaped flags; the factory covers the
	// rest.
	byName := func(name string) (trafficsim.Scenario, error) {
		switch name {
		case "pull-storm":
			return &trafficsim.PullStorm{Nodes: *nodes, Replicas: *replicas, NodeBandwidth: *nodeBW}, nil
		case "slow-clients":
			return &trafficsim.SlowClients{Nodes: 1, ReadBytesPerS: *slowReadBPS}, nil
		case "replay":
			return &trafficsim.Replay{Registry: *regURL, Search: *searchURL}, nil
		default:
			return trafficsim.NewScenario(name)
		}
	}

	out := trafficsim.BenchReport{Scale: *scale, Seed: *seed, Requests: *n, SLO: slo.String()}
	ctx := context.Background()

	// Closed loop has no schedule to sweep: each scenario runs once.
	rateList := []float64{0}
	if spec.Kind != "closed" {
		rateList = nil
		for _, tok := range strings.Split(*rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil || r <= 0 {
				fatal(fmt.Errorf("bad -rates entry %q", tok))
			}
			rateList = append(rateList, r)
		}
	} else if *search != "" || *compare != "" {
		fatal(fmt.Errorf("-search and -compare need an open-loop -arrivals process"))
	}

	if *scenarios != "" {
		for _, name := range strings.Split(*scenarios, ",") {
			name = strings.TrimSpace(name)
			sc, err := byName(name)
			if err != nil {
				fatal(err)
			}
			for _, rate := range rateList {
				opt := baseOpt
				opt.Arrivals = spec.WithRate(rate)
				res, err := trafficsim.Execute(ctx, sc, opt)
				if err != nil {
					fatal(fmt.Errorf("%s @ %g/s: %w", name, rate, err))
				}
				rep := trafficsim.NewRunReport(name, opt.Arrivals, res, &slo)
				out.Runs = append(out.Runs, rep)
				printRun(rep)
			}
		}
	}

	if *search != "" {
		sc, err := byName(*search)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("searching %s for max rate under %v in [%g, %g]...\n", *search, slo, *searchLo, *searchHi)
		sr, err := trafficsim.SearchMaxRate(ctx, *searchLo, *searchHi, *searchIters, slo,
			func(ctx context.Context, rate float64) (*trafficsim.Result, error) {
				opt := baseOpt
				opt.Arrivals = spec.WithRate(rate)
				res, err := trafficsim.Execute(ctx, sc, opt)
				if err == nil {
					fmt.Printf("  probe %7.1f/s: p%g=%.1fms err=%.3f\n", rate, slo.Percentile,
						float64(res.Latency.P(slo.Percentile))/float64(time.Millisecond), res.ErrorRate())
				}
				return res, err
			})
		if err != nil {
			fatal(err)
		}
		out.SearchScenario = *search
		out.Search = sr
		fmt.Printf("%s: max sustainable rate under %v = %.1f req/s (%d probes)\n",
			*search, slo, sr.MaxRatePerS, len(sr.Probes))
	}

	if *compare != "" {
		sc, err := byName(*compare)
		if err != nil {
			fatal(err)
		}
		rate := *compareRate
		if rate <= 0 {
			if out.Search == nil || out.Search.MaxRatePerS <= 0 {
				fatal(fmt.Errorf("-compare needs -compare-rate or a successful -search to pick the overload rate"))
			}
			rate = 1.5 * out.Search.MaxRatePerS
		}
		opt := baseOpt
		opt.Arrivals = spec
		cmp, closed, open, err := trafficsim.CompareClosedOpen(ctx, sc, opt, *workers, rate)
		if err != nil {
			fatal(err)
		}
		out.Comparison = cmp
		out.Runs = append(out.Runs,
			trafficsim.NewRunReport(*compare+"/closed-loop", trafficsim.ArrivalSpec{Kind: "closed"}, closed, &slo),
			trafficsim.NewRunReport(*compare+"/open-loop", spec.WithRate(rate), open, &slo))
		fmt.Printf("%s closed-loop (%d workers) p99=%.1fms vs open-loop @ %.0f/s p99=%.1fms (%.1fx) — the gap is what coordinated omission hides\n",
			*compare, *workers, cmp.ClosedP99MS, rate, cmp.OpenP99MS, cmp.RatioOpenToClosed)
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

func printRun(r trafficsim.RunReport) {
	verdict := ""
	if r.SLO != nil {
		verdict = fmt.Sprintf(" | slo p%g<=%.0fms PASS", r.SLO.Percentile, r.SLO.TargetMS)
		if !r.SLO.Pass {
			verdict = fmt.Sprintf(" | slo p%g<=%.0fms FAIL", r.SLO.Percentile, r.SLO.TargetMS)
		}
	}
	fmt.Printf("%-12s %8s %6.0f/s: %d/%d ok (%d err, %d timeout) in %.1fs, %.0f req/s goodput\n",
		r.Scenario, r.Arrivals, r.RatePerS, r.Completed, r.Requests, r.Errors, r.Timeouts, r.WallS, r.GoodputPerS)
	if r.Arrivals == "closed" {
		// No schedule to measure from: a lagging client sends its next
		// request late and that queueing never reaches the histogram.
		fmt.Printf("  service ms (closed loop, coordinated omission applies): p50=%.1f p99=%.1f p99.9=%.1f max=%.1f%s\n",
			r.Service.P50, r.Service.P99, r.Service.P999, r.Service.Max, verdict)
		return
	}
	fmt.Printf("  latency ms (CO-safe): p50=%.1f p99=%.1f p99.9=%.1f max=%.1f | service p99=%.1f%s\n",
		r.Latency.P50, r.Latency.P99, r.Latency.P999, r.Latency.Max, r.Service.P99, verdict)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trafficsim:", err)
	os.Exit(1)
}
