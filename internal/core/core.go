// Package core runs the complete study: generate a Docker Hub population,
// acquire its bytes, and assemble the figure source every table and figure
// of the paper derives from. Study.Topology picks the path:
//
//   - nil (model): the synthetic Hub is profiled from its metadata and the
//     Fig. 25 dedup-growth curve sampled from it — the statistical
//     reproduction path used at scale.
//   - a Topology acquired by Pull (wire): the dataset's images are served
//     as real gzip-compressed layer tarballs from the provisioned stack,
//     the search API is crawled, and every image is pulled through
//     pipeline.Run, which walks each layer while it streams off the wire —
//     the full methodology reproduction (§III). MirrorWarm pulls
//     everything once first.
//   - a Topology acquired by LivePush (live): the dataset is pushed into
//     the stack and reported from its live index; see live.go.
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
	"repro/internal/dedup"
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
	// GrowthSamples is the number of nested layer samples for the Fig. 25
	// dedup-growth curve (default 4 plus the full dataset, like the
	// paper). 0 keeps the default; negative disables the growth analysis.
	GrowthSamples int
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
		if s.GrowthSamples >= 0 {
			n := s.GrowthSamples
			if n == 0 {
				n = 4
			}
			if src.Growth, err = DedupGrowth(d, n); err != nil {
				return nil, fmt.Errorf("core: dedup growth: %w", err)
			}
		}
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
// dataset"). samples is the number of sub-samples before the full dataset.
func DedupGrowth(d *synth.Dataset, samples int) ([]report.GrowthPoint, error) {
	total := len(d.Layers)
	if total == 0 {
		return nil, nil
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

	// One random permutation gives nested samples: sample k is the first
	// sizes[k] layers of the permutation.
	rng := rand.New(rand.NewSource(d.Spec.Seed + 25))
	perm := rng.Perm(total)

	var out []report.GrowthPoint
	prev := -1
	for _, n := range sizes {
		if n == prev {
			continue
		}
		prev = n
		// Pre-size each sample's census proportionally to its share of the
		// dataset's unique files (exact for the full-dataset sample).
		idx := dedup.NewIndexSized(len(d.Files) * n / total)
		var files int64
		for _, li := range perm[:n] {
			l := synth.LayerID(li)
			if err := idx.BeginLayer(d.Layers[li].Refs); err != nil {
				return nil, err
			}
			for _, f := range d.LayerFiles(l) {
				if err := idx.Observe(uint64(f), d.Files[f].Size, d.Files[f].Type); err != nil {
					return nil, err
				}
				files++
			}
			if err := idx.EndLayer(); err != nil {
				return nil, err
			}
		}
		if err := idx.Seal(); err != nil {
			return nil, err
		}
		r := idx.Ratios()
		out = append(out, report.GrowthPoint{
			Layers:        n,
			Files:         files,
			CountRatio:    r.CountRatio,
			CapacityRatio: r.CapacityRatio,
		})
	}
	return out, nil
}
