// Package repro reproduces "Large-Scale Analysis of the Docker Hub
// Dataset" (CLUSTER 2019): a full crawl → download → analyze pipeline over
// a statistically calibrated synthetic Docker Hub, regenerating every table
// and figure of the paper's evaluation.
//
// The facade offers three run modes, selected by Options.Topology:
//
//   - Model mode (no Topology) analyzes the synthetic Hub's metadata
//     directly and scales to millions of file instances; it is the
//     statistical reproduction path (figures 3–29).
//   - Wire mode (a Topology acquired by Pull) materializes real
//     gzip-compressed layer tarballs into an in-process Docker Registry
//     v2 stack — plain or deduplicating storage, served directly, through
//     a caching mirror or through a sharded cluster's router — then
//     crawls the Hub search API and downloads every latest-tag image over
//     HTTP, analyzing the actual bytes as they stream in — the methodology
//     reproduction (§III). Every such stack renders bit-identical figures.
//   - Live mode (a Topology acquired by LivePush) runs the study as a
//     resident service: images are pushed over HTTP into a registry whose
//     write path feeds an always-on incremental analytics index, and the
//     figures render from the live index — bit-identical to a batch pass
//     over the same bytes, even through delete/re-push churn.
//
// Quick start:
//
//	res, err := repro.Run(repro.Options{Scale: 0.001})
//	if err != nil { ... }
//	for _, fig := range res.Figures {
//	    fmt.Println(fig)
//	}
//
// Deeper control (custom specs, cache simulation, dedup growth) lives in
// the internal packages and is exercised by the cmd/ binaries —
// cmd/experiments drives this facade, cmd/analyze the same fused pipeline
// against a running hub.
package repro

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/topology"
)

// Options configures a reproduction run.
type Options struct {
	// Scale multiplies the paper's entity counts (457,627 repositories,
	// 1,792,609 layers, 5.28 B files at 1.0). Model runs typically use
	// 0.0005–0.01; wire and live runs 0.0001–0.001. Required.
	Scale float64
	// Seed overrides the default dataset seed (the paper's crawl date)
	// when non-zero.
	Seed int64
	// Workers bounds pipeline parallelism (default 8).
	Workers int
	// GrowthSamples controls the Fig. 25 dedup-growth curve: 0 = default
	// (4 nested samples plus the full dataset), negative = skip.
	GrowthSamples int
	// Topology is the registry stack the study stands up and how it
	// acquires its bytes from it: &Topology{} is the plain wire pipeline,
	// &Topology{Acquire: LivePush, Ingest: true} the live service. Nil
	// runs the model study, which has no registry. What the stack served
	// and stored lands in Result.Stack.
	Topology *Topology
}

// Topology re-exports the registry-stack description; see its fields for
// the storage, ingest, front-tier and acquisition axes and Validate for
// the combinations that cannot work.
type Topology = topology.Topology

// The enumerated Topology values.
const (
	Plain    = topology.Plain
	Dedup    = topology.Dedup
	Pull     = topology.Pull
	LivePush = topology.LivePush
)

// Result re-exports the study outcome.
type Result = core.Result

// Figure re-exports the rendered figure type.
type Figure = report.Figure

// Metric re-exports the paper-vs-measured comparison row.
type Metric = report.Metric

// Run executes a reproduction study.
func Run(opts Options) (*Result, error) {
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: when ctx is done, in-flight
// work (crawls, transfers, layer walks) winds down, mounted servers drain
// gracefully, and the run returns ctx's error.
func RunContext(ctx context.Context, opts Options) (*Result, error) {
	if opts.Scale <= 0 {
		return nil, errors.New("repro: Options.Scale must be positive")
	}
	spec := synth.DefaultSpec(opts.Scale)
	if opts.Topology != nil {
		spec = synth.MaterializeSpec(opts.Scale)
	}
	if opts.Seed != 0 {
		spec.Seed = opts.Seed
	}
	study := &core.Study{
		Spec:          spec,
		Workers:       opts.Workers,
		GrowthSamples: opts.GrowthSamples,
		Topology:      opts.Topology,
	}
	return study.Run(ctx)
}
