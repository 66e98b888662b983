// Package core orchestrates the complete study: generate (or connect to) a
// Docker Hub population, run the crawl → download → analyze pipeline, and
// assemble the figure source every table and figure of the paper derives
// from.
//
// A study is a stage graph executed by the engine runner over a shared
// State. Study.Topology picks the graph:
//
//   - nil (model): generate → analyze → dedup-growth → report; the
//     synthetic Hub is profiled from its metadata, the statistical
//     reproduction path used at scale.
//   - a Topology pulled TwoPhase or Fused (wire): generate → provision →
//     crawl → download → analyze → report; real layer tarballs are served
//     from the provisioned stack and the actual bytes are crawled,
//     downloaded and analyzed — the full methodology reproduction (§III).
//     Fused swaps download and analyze for the one download+analyze
//     stage; MirrorWarm adds a warm-up pull after the crawl.
//   - a Topology acquired by LivePush (live): generate → provision →
//     live-push → [churn] → live-report → report; see live.go.
//
// What "the provisioned stack" is — storage backend, ingest hook, front
// tier — is internal/topology's business, not a stage's.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/analyzer"
	"repro/internal/crawler"
	"repro/internal/dedup"
	"repro/internal/downloader"
	"repro/internal/engine"
	"repro/internal/report"
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

	// Stages records each executed stage's wall time and outcome, in
	// execution order.
	Stages []engine.StageResult

	// Crawl and Download are the pull pipeline's results (nil in model and
	// live runs).
	Crawl    *crawler.Result
	Download *downloader.Result
	// Stack is what the study provisioned (nil in model runs). Its
	// servers are shut down, but its registries, stores, caches and live
	// index stay readable: Stack.Stats() is the run's serving counters,
	// and goldencheck's batch reference reads Stack.Origin.
	Stack *topology.Stack
}

// Env builds the study's shared run environment.
func (s *Study) Env() *engine.Env {
	return &engine.Env{Workers: s.Workers, Seed: s.Spec.Seed}
}

// Run executes the study; cancelling ctx winds it down mid-stage, drains
// the servers it mounted, and returns ctx's error.
func (s *Study) Run(ctx context.Context) (*Result, error) {
	if s.Topology != nil {
		if err := s.Topology.Validate(); err != nil {
			return nil, err
		}
	}
	stages := []engine.Stage[*State]{stageGenerate}
	switch t := s.Topology; {
	case t == nil:
		stages = append(stages, stageAnalyzeModel)
		if s.GrowthSamples >= 0 {
			stages = append(stages, stageGrowth)
		}
	case t.Acquire == topology.LivePush:
		stages = append(stages, stageProvision, stageLivePush)
		if t.Churn > 0 {
			stages = append(stages, stageLiveChurn)
		}
		stages = append(stages, stageLiveReport)
	default:
		stages = append(stages, stageProvision, stageCrawl)
		if t.MirrorWarm {
			stages = append(stages, stageMirrorWarm)
		}
		if t.Acquire == topology.Fused {
			stages = append(stages, stageFused)
		} else {
			stages = append(stages, stageDownload, stageAnalyze)
		}
	}
	return s.run(ctx, append(stages, stageReport))
}

// run executes a stage graph over fresh state and folds the state into a
// Result. Servers the graph mounted are always shut down — drained
// gracefully — whether the run succeeded, failed, or was cancelled.
func (s *Study) run(ctx context.Context, stages []engine.Stage[*State]) (*Result, error) {
	env := s.Env()
	st := &State{Env: env, Spec: s.Spec, GrowthSamples: s.GrowthSamples, Topology: s.Topology}
	runner := &engine.Runner[*State]{Env: env, Stages: stages}

	stageResults, err := runner.Run(ctx, st)
	if st.Servers != nil {
		// A cancelled run must still drain its servers under the drain
		// timeout rather than skip the drain, so the shutdown context
		// drops ctx's cancellation but keeps its lineage; each server
		// bounds its own drain with DrainTimeout.
		if serr := st.Servers.Shutdown(context.WithoutCancel(ctx)); err == nil && serr != nil {
			err = fmt.Errorf("core: shutting down servers: %w", serr)
		}
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Dataset:  st.Dataset,
		Analysis: st.Analysis,
		Source:   st.Source,
		Figures:  st.Figures,
		Stages:   stageResults,
		Crawl:    st.Crawl,
		Download: st.Download,
		Stack:    st.Stack,
	}, nil
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
