package core

import (
	"context"
	"fmt"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/crawler"
	"repro/internal/downloader"
	"repro/internal/engine"
	"repro/internal/hubapi"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/topology"
)

// State is the shared run state the stage graph mutates: each stage reads
// what earlier stages produced and fills in its own outputs. Model, wire,
// and live runs are different graphs over this one state type.
type State struct {
	// Env is the shared run environment (workers, seed).
	Env *engine.Env

	// Inputs, set by Study before the run.
	Spec          synth.Spec
	GrowthSamples int
	Topology      *topology.Topology

	// Dataset is the generated synthetic Hub (stage generate).
	Dataset *synth.Dataset
	// Servers owns the mounted HTTP services and Stack is the registry
	// endpoint among them (stage provision); Search is the Hub search API
	// beside it.
	Servers *serve.Group
	Stack   *topology.Stack
	Search  *hubapi.Client
	// Sink receives downloaded layer blobs (stages download / fused).
	Sink blobstore.Store

	// Outputs.
	Crawl    *crawler.Result
	Download *downloader.Result
	Analysis *analyzer.Result
	Growth   []report.GrowthPoint
	Source   *report.Source
	Figures  []report.Figure
}

// newDownloader builds a downloader against the provisioned endpoint.
func (st *State) newDownloader(sink blobstore.Store) *downloader.Downloader {
	return &downloader.Downloader{
		Client:  st.Stack.Client,
		Workers: st.Env.WorkerCount(),
		Store:   sink,
		Seed:    st.Env.Seed,
	}
}

// stageGenerate draws the synthetic Hub population from the spec.
var stageGenerate = engine.NewStage("generate", func(ctx context.Context, st *State) error {
	d, err := synth.Generate(st.Spec)
	if err != nil {
		return fmt.Errorf("generating dataset: %w", err)
	}
	st.Dataset = d
	return nil
})

// stageProvision stands the study's topology up on the serve chassis and
// mounts the Hub search API beside it. A pulled study's registry is
// materialized with the dataset's images as real gzip-compressed layer
// tarballs; a LivePush study's starts empty, the content arrives over the
// wire. The servers outlive the stage; Study shuts the group down when
// the run ends (normally or not).
var stageProvision = engine.NewStage("provision", func(ctx context.Context, st *State) error {
	st.Servers = &serve.Group{}
	repos := synth.Repositories(st.Dataset)
	site := topology.Site{Repos: repos}
	if st.Topology.Acquire != topology.LivePush {
		site.Fill = func(reg *registry.Registry) error {
			_, err := synth.Materialize(st.Dataset, reg)
			return err
		}
	}
	stack, err := topology.Provision(st.Servers, *st.Topology, site)
	if err != nil {
		return err
	}
	st.Stack = stack

	search := &serve.Server{
		Name: "search",
		Handler: hubapi.NewServer(repos,
			st.Dataset.Spec.CrawlDupFactor, st.Dataset.Spec.Seed, 0),
	}
	if err := st.Servers.Start(search); err != nil {
		return err
	}
	st.Search = &hubapi.Client{Base: search.URL(), HTTP: search.Client()}
	return nil
})

// stageMirrorWarm pre-warms the mirror cache by pulling every crawled
// repository once (bytes discarded) before the measured download, so the
// study's download stage runs against a warm cache.
var stageMirrorWarm = engine.NewStage("mirror-warm", func(ctx context.Context, st *State) error {
	if _, err := st.newDownloader(blobstore.NewMemory()).RunContext(ctx, st.Crawl.Repos); err != nil {
		return fmt.Errorf("warming mirror: %w", err)
	}
	return ctx.Err()
})

// stageCrawl pages through the search API and deduplicates the entries.
var stageCrawl = engine.NewStage("crawl", func(ctx context.Context, st *State) error {
	cr := &crawler.Crawler{Client: st.Search, Workers: st.Env.WorkerCount()}
	res, err := cr.RunContext(ctx)
	if err != nil {
		return fmt.Errorf("crawling: %w", err)
	}
	st.Crawl = res
	return nil
})

// stageDownload pulls every crawled repository's latest image into the
// sink, deduplicating shared layers on the wire.
var stageDownload = engine.NewStage("download", func(ctx context.Context, st *State) error {
	st.Sink = blobstore.NewMemory()
	res, err := st.newDownloader(st.Sink).RunContext(ctx, st.Crawl.Repos)
	if err != nil {
		return fmt.Errorf("downloading: %w", err)
	}
	// Per-repo context errors are classified, not fatal; surface mid-run
	// cancellation as the clean context error.
	if err := ctx.Err(); err != nil {
		return err
	}
	st.Download = res
	return nil
})

// stageAnalyze walks every downloaded layer from the sink — the second
// pass of the two-phase wire pipeline.
var stageAnalyze = engine.NewStage("analyze", func(ctx context.Context, st *State) error {
	res, err := analyzer.AnalyzeStoreContext(ctx, st.Sink, st.Download.Images, st.Env.WorkerCount())
	if err != nil {
		return fmt.Errorf("analyzing store: %w", err)
	}
	st.Analysis = res
	return nil
})

// stageFused replaces download+analyze with the fused pass: every layer is
// walked while it streams off the wire.
var stageFused = engine.NewStage("download+analyze", func(ctx context.Context, st *State) error {
	res, err := pipeline.RunEnv(ctx, st.Env, st.newDownloader(blobstore.NewMemory()), st.Crawl.Repos)
	if err != nil {
		return fmt.Errorf("fused download+analyze: %w", err)
	}
	st.Download = res.Download
	st.Analysis = res.Analysis
	return nil
})

// stageAnalyzeModel profiles the dataset's metadata directly — the model
// path that scales to millions of file instances.
var stageAnalyzeModel = engine.NewStage("analyze", func(ctx context.Context, st *State) error {
	res, err := analyzer.AnalyzeModel(st.Dataset)
	if err != nil {
		return fmt.Errorf("analyzing model: %w", err)
	}
	st.Analysis = res
	return nil
})

// stageGrowth computes the Fig. 25 dedup-growth curve over nested random
// layer samples.
var stageGrowth = engine.NewStage("dedup-growth", func(ctx context.Context, st *State) error {
	n := st.GrowthSamples
	if n == 0 {
		n = 4
	}
	growth, err := DedupGrowth(st.Dataset, n)
	if err != nil {
		return fmt.Errorf("dedup growth: %w", err)
	}
	st.Growth = growth
	return nil
})

// stageReport assembles the figure source from whatever the graph
// produced and renders every figure.
var stageReport = engine.NewStage("report", func(ctx context.Context, st *State) error {
	src := &report.Source{
		Analysis: st.Analysis,
		Repos:    synth.Repositories(st.Dataset),
		Growth:   st.Growth,
	}
	if st.Crawl != nil {
		src.Crawl = st.Crawl
	}
	if st.Download != nil {
		src.Download = &st.Download.Stats
	}
	st.Source = src
	st.Figures = report.All(src)
	return nil
})
