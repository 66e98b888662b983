// Package core runs the complete study: generate a Docker Hub population,
// acquire its bytes, and assemble the figure source every table and figure
// of the paper derives from. Study.Topology picks the path:
//
//   - nil (model): the synthetic Hub is profiled from its metadata
//     (analyzer.AnalyzeModel) and the Fig. 25 dedup-growth curve read off
//     one walk of a layer permutation (DedupGrowth) — the statistical
//     reproduction path used at scale.
//   - a Topology acquired by Pull (wire): the dataset's images are served
//     as real gzip-compressed layer tarballs from the provisioned stack,
//     the search API is crawled, and every image is pulled through
//     pipeline.Run, which walks each layer on the transfer worker right
//     after it is stored — the full methodology reproduction (§III). MirrorWarm pulls
//     everything once first.
//   - a Topology acquired by LivePush (live): the dataset is pushed into
//     the stack and reported from its live snapshot; see live.go.
//
// What "the provisioned stack" is — storage backend, ingest hook, front
// tier — is internal/topology's business.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/crawler"
	"repro/internal/downloader"
	"repro/internal/engine"
	"repro/internal/hubapi"
	"repro/internal/manifest"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/topology"
)

// Study configures a reproduction run.
type Study struct {
	// Spec is the synthetic Hub specification (synth.DefaultSpec(scale)
	// for model runs, synth.MaterializeSpec(scale) otherwise).
	Spec synth.Spec
	// Workers bounds pipeline parallelism (crawler pages, downloads,
	// layer walks). Non-positive resolves to engine.DefaultWorkers.
	Workers int
	// Topology is the registry the study stands up and how it acquires
	// its bytes from it; nil runs the model study, which has no registry.
	Topology *topology.Topology
}

// Result is everything a study produces.
type Result struct {
	Dataset  *synth.Dataset
	Analysis *analyzer.Result
	Source   *report.Source
	Figures  []report.Figure

	// Crawl and Download are the pull's results (nil in model and live
	// runs).
	Crawl    *crawler.Result
	Download *downloader.Result
	// Stack is what the study provisioned (nil in model runs). Its
	// servers are shut down, but its registries, stores, caches and live
	// index stay readable: Stack.Stats() is the run's serving counters,
	// and goldencheck's batch reference reads Stack.Origin.
	Stack *topology.Stack
}

// Run executes the study; cancelling ctx winds it down mid-step, drains
// the servers it mounted, and returns ctx's error.
func (s *Study) Run(ctx context.Context) (*Result, error) {
	if s.Topology != nil {
		if err := s.Topology.Validate(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := synth.Generate(s.Spec)
	if err != nil {
		return nil, fmt.Errorf("core: generating dataset: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{Dataset: d}
	src := &report.Source{Repos: synth.Repositories(d)}

	if s.Topology == nil {
		if res.Analysis, err = analyzer.AnalyzeModel(d); err != nil {
			return nil, fmt.Errorf("core: analyzing model: %w", err)
		}
		src.Growth = DedupGrowth(d)
	} else {
		g := &serve.Group{}
		search, err := s.provision(g, res, src.Repos)
		if err == nil && s.Topology.Acquire == topology.LivePush {
			err = s.live(ctx, res)
		} else if err == nil {
			err = s.pull(ctx, res, search)
		}
		// A cancelled run must still drain its servers under the drain
		// timeout rather than skip the drain, so the shutdown context
		// drops ctx's cancellation but keeps its lineage.
		if serr := g.Shutdown(context.WithoutCancel(ctx)); err == nil && serr != nil {
			err = fmt.Errorf("core: shutting down servers: %w", serr)
		}
		if err != nil {
			return nil, err
		}
	}

	src.Analysis, src.Crawl = res.Analysis, res.Crawl
	if res.Download != nil {
		src.Download = &res.Download.Stats
	}
	res.Source, res.Figures = src, report.All(src)
	return res, nil
}

// provision stands the study's topology up on g, with the Hub search API
// beside it, and returns a client on that API. A pulled study's registry
// is materialized with the dataset's images as real gzip-compressed layer
// tarballs; a LivePush study's starts empty, the content arrives over the
// wire.
func (s *Study) provision(g *serve.Group, res *Result, repos []manifest.Repository) (*hubapi.Client, error) {
	d := res.Dataset
	site := topology.Site{Repos: repos}
	if s.Topology.Acquire == topology.Pull {
		site.Fill = func(reg *registry.Registry) error {
			_, err := synth.Materialize(d, reg)
			return err
		}
	}
	stack, err := topology.Provision(g, *s.Topology, site)
	if err != nil {
		return nil, err
	}
	res.Stack = stack
	search := &serve.Server{
		Name:    "search",
		Handler: hubapi.NewServer(repos, d.Spec.CrawlDupFactor, d.Spec.Seed, 0),
	}
	if err := g.Start(search); err != nil {
		return nil, err
	}
	return &hubapi.Client{Base: search.URL(), HTTP: search.Client()}, nil
}

// pull crawls the search API and pulls every crawled repository's latest
// image from the stack through the fused download+walk pass, after one
// discarded warm-up pull when the topology asks for it.
func (s *Study) pull(ctx context.Context, res *Result, search *hubapi.Client) error {
	workers := engine.Workers(s.Workers)
	crawl, err := (&crawler.Crawler{Client: search, Workers: workers}).RunContext(ctx)
	if err != nil {
		return fmt.Errorf("core: crawling: %w", err)
	}
	newDownloader := func() *downloader.Downloader {
		return &downloader.Downloader{
			Client:  res.Stack.Client,
			Workers: workers,
			Store:   blobstore.NewMemory(),
			Seed:    s.Spec.Seed,
		}
	}
	if s.Topology.MirrorWarm {
		if _, err := newDownloader().RunContext(ctx, crawl.Repos); err != nil {
			return fmt.Errorf("core: warming mirror: %w", err)
		}
	}
	p, err := pipeline.Run(ctx, newDownloader(), crawl.Repos)
	if err != nil {
		return fmt.Errorf("core: pulling: %w", err)
	}
	res.Crawl, res.Download, res.Analysis = crawl, p.Download, p.Analysis
	return nil
}

// DedupGrowth reproduces Fig. 25: dedup ratios over nested random layer
// samples of growing size ("the x-axis values correspond to the sizes of 4
// random samples drawn from the whole dataset and the size of the whole
// dataset"). The samples are prefixes of one permutation, so one walk of
// it, marking each unique file the first time it appears, yields every
// sample's instance, byte, unique and unique-byte counts at its boundary.
// The ratios are those dedup.Index.Ratios computes from the same counts.
// A sample with no file instance has no dedup ratio and gets no point.
func DedupGrowth(d *synth.Dataset) []report.GrowthPoint {
	const samples = 4 // sub-samples before the full dataset
	total := len(d.Layers)
	if total == 0 {
		return nil
	}
	// Nested sample sizes grow geometrically, like the paper's
	// 1,000 → 1.7 M progression.
	sizes := make([]int, 0, samples+1)
	for i := samples; i > 0; i-- {
		n := total
		for j := 0; j < i; j++ {
			n = n * 22 / 100 // ≈ (1000/1.7M)^(1/4) per step at full scale
		}
		if n < 1 {
			n = 1
		}
		sizes = append(sizes, n)
	}
	sizes = append(sizes, total)

	rng := rand.New(rand.NewSource(d.Spec.Seed + 25))
	perm := rng.Perm(total)

	var out []report.GrowthPoint
	seen := make([]bool, len(d.Files))
	var files, bytes, unique, uniqueBytes int64
	walked := 0
	for _, n := range sizes {
		if n == walked {
			continue
		}
		for _, li := range perm[walked:n] {
			for _, f := range d.LayerFiles(synth.LayerID(li)) {
				size := d.Files[f].Size
				files++
				bytes += size
				if !seen[f] {
					seen[f] = true
					unique++
					uniqueBytes += size
				}
			}
		}
		walked = n
		if files == 0 {
			continue
		}
		p := report.GrowthPoint{Layers: n, Files: files, CountRatio: float64(files) / float64(unique)}
		if uniqueBytes > 0 {
			p.CapacityRatio = float64(bytes) / float64(uniqueBytes)
		}
		out = append(out, p)
	}
	return out
}
