package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analyzer"
	"repro/internal/dedup"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/topology"
)

// study builds a Study at 4 workers; a nil topo is the model study.
func study(spec synth.Spec, topo *topology.Topology) *Study {
	return &Study{Spec: spec, Workers: 4, Topology: topo}
}

// run executes the study to completion.
func run(t *testing.T, s *Study) *Result {
	t.Helper()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wire is the plain wire topology: one registry, served directly, pulled.
func wire() *topology.Topology { return &topology.Topology{} }

func TestRunModelProducesAllFigures(t *testing.T) {
	res := run(t, study(synth.DefaultSpec(0.0005), nil))
	// Model mode: every figure except the wire-only methodology table.
	wantIDs := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
		"fig25", "fig26", "fig27", "fig28", "fig29",
	}
	got := map[string]bool{}
	for _, f := range res.Figures {
		got[f.ID] = true
		if f.Title == "" {
			t.Errorf("figure %s has no title", f.ID)
		}
		if len(f.Metrics) == 0 {
			t.Errorf("figure %s has no metrics", f.ID)
		}
		if !strings.Contains(f.String(), f.ID) {
			t.Errorf("figure %s String() missing ID", f.ID)
		}
	}
	for _, id := range wantIDs {
		if !got[id] {
			t.Errorf("figure %s missing from model run", id)
		}
	}
	if got["tabM"] {
		t.Error("methodology table present in model mode")
	}
	if len(res.Source.Growth) < 3 {
		t.Errorf("growth samples = %d, want >= 3", len(res.Source.Growth))
	}
}

func TestRunWireFullPipeline(t *testing.T) {
	res := run(t, study(synth.MaterializeSpec(0.0001), wire()))
	if res.Crawl == nil || res.Download == nil {
		t.Fatal("wire run missing crawl/download results")
	}
	// Crawl found every repo.
	if len(res.Crawl.Repos) != len(res.Dataset.Repos) {
		t.Errorf("crawled %d repos, dataset has %d", len(res.Crawl.Repos), len(res.Dataset.Repos))
	}
	// Download got every public latest image.
	if res.Download.Stats.Downloaded != len(res.Dataset.Images) {
		t.Errorf("downloaded %d, want %d", res.Download.Stats.Downloaded, len(res.Dataset.Images))
	}
	if res.Download.Stats.AuthFailures == 0 || res.Download.Stats.NoLatest == 0 {
		t.Errorf("failure modes not exercised: %+v", res.Download.Stats)
	}
	// Analysis covers all unique layers.
	if len(res.Analysis.Layers) != len(res.Dataset.Layers) {
		t.Errorf("analyzed %d layers, want %d", len(res.Analysis.Layers), len(res.Dataset.Layers))
	}
	// The methodology table exists in wire mode.
	found := false
	for _, f := range res.Figures {
		if f.ID == "tabM" {
			found = true
		}
	}
	if !found {
		t.Error("methodology table missing from wire run")
	}
}

func TestWireAndModelAgreeOnDedup(t *testing.T) {
	spec := synth.MaterializeSpec(0.0001)
	model := run(t, &Study{Spec: spec})
	wired := run(t, study(spec, wire()))
	mr := model.Analysis.Index.Ratios()
	wr := wired.Analysis.Index.Ratios()
	if mr.TotalFiles != wr.TotalFiles || mr.UniqueFiles != wr.UniqueFiles {
		t.Errorf("dedup counts disagree: model %d/%d wire %d/%d",
			mr.TotalFiles, mr.UniqueFiles, wr.TotalFiles, wr.UniqueFiles)
	}
	if mr.TotalBytes != wr.TotalBytes {
		t.Errorf("total bytes disagree: model %d wire %d", mr.TotalBytes, wr.TotalBytes)
	}
}

// TestDedupGrowthMonotonicSamples: the curve's samples grow, its last is
// the whole dataset, and every point has files, so both spans are finite.
// At scale 0.0001 and seed 3 the first nested sample is one empty layer.
func TestDedupGrowthMonotonicSamples(t *testing.T) {
	tiny := synth.DefaultSpec(0.0001)
	tiny.Seed = 3
	for _, spec := range []synth.Spec{synth.DefaultSpec(0.0005), tiny} {
		d, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		growth := DedupGrowth(d)
		if len(growth) < 2 {
			t.Fatalf("scale %v seed %d: growth points = %d", spec.Scale, spec.Seed, len(growth))
		}
		for i, g := range growth {
			if g.Files <= 0 {
				t.Errorf("scale %v seed %d: point %d has no files: %+v", spec.Scale, spec.Seed, i, g)
			}
			if i > 0 && g.Layers <= growth[i-1].Layers {
				t.Fatalf("scale %v seed %d: sample sizes not increasing: %+v", spec.Scale, spec.Seed, growth)
			}
		}
		first, last := growth[0], growth[len(growth)-1]
		if last.CountRatio <= first.CountRatio {
			t.Errorf("scale %v seed %d: count dedup ratio did not grow: %v -> %v", spec.Scale, spec.Seed, first.CountRatio, last.CountRatio)
		}
		for _, span := range []float64{last.CountRatio / first.CountRatio, last.CapacityRatio / first.CapacityRatio} {
			if math.IsInf(span, 0) || math.IsNaN(span) {
				t.Errorf("scale %v seed %d: ratio span %v: %+v", spec.Scale, spec.Seed, span, growth)
			}
		}
		if last.Layers != len(d.Layers) {
			t.Errorf("scale %v seed %d: final sample %d != all layers %d", spec.Scale, spec.Seed, last.Layers, len(d.Layers))
		}
	}
}

// censusGrowth is the reference Fig. 25 curve: one fresh census per
// nested sample, with a point for every sample, empty ones included.
func censusGrowth(d *synth.Dataset) []report.GrowthPoint {
	const samples = 4
	total := len(d.Layers)
	sizes := make([]int, 0, samples+1)
	for i := samples; i > 0; i-- {
		n := total
		for j := 0; j < i; j++ {
			n = n * 22 / 100
		}
		sizes = append(sizes, max(n, 1))
	}
	sizes = append(sizes, total)
	perm := rand.New(rand.NewSource(d.Spec.Seed + 25)).Perm(total)

	var out []report.GrowthPoint
	var obs []dedup.FileObs
	prev := -1
	for _, n := range sizes {
		if n == prev {
			continue
		}
		prev = n
		idx := dedup.NewIndexSized(0)
		var files int64
		for _, li := range perm[:n] {
			obs = obs[:0]
			for _, f := range d.LayerFiles(synth.LayerID(li)) {
				obs = append(obs, dedup.FileObs{Key: uint64(f), Size: d.Files[f].Size, Type: d.Files[f].Type})
			}
			idx.AddLayer(d.Layers[li].Refs, obs)
			files += int64(len(obs))
		}
		r := idx.Ratios()
		out = append(out, report.GrowthPoint{Layers: n, Files: files, CountRatio: r.CountRatio, CapacityRatio: r.CapacityRatio})
	}
	return out
}

// TestDedupGrowthMatchesCensuses: the one-pass curve equals, bit for bit,
// a census built per sample, and its last point equals the model
// analysis's own census. Seed 0 is the default spec's seed.
func TestDedupGrowthMatchesCensuses(t *testing.T) {
	for _, seed := range []int64{0, 1, 7} {
		spec := synth.DefaultSpec(0.0005)
		if seed != 0 {
			spec.Seed = seed
		}
		d, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		growth := DedupGrowth(d)
		want := slices.DeleteFunc(censusGrowth(d), func(g report.GrowthPoint) bool { return g.Files == 0 })
		if !slices.Equal(growth, want) {
			t.Errorf("seed %d: one pass %+v, censuses %+v", seed, growth, want)
		}
		a, err := analyzer.AnalyzeModel(d)
		if err != nil {
			t.Fatal(err)
		}
		r, last := a.Index.Ratios(), growth[len(growth)-1]
		if last.Files != r.TotalFiles || last.CountRatio != r.CountRatio || last.CapacityRatio != r.CapacityRatio {
			t.Errorf("seed %d: last point %+v, model census %d files %vx %vx", seed, last, r.TotalFiles, r.CountRatio, r.CapacityRatio)
		}
	}
}

func TestDedupGrowthEmptyDataset(t *testing.T) {
	d := &synth.Dataset{}
	if growth := DedupGrowth(d); growth != nil {
		t.Fatalf("empty dataset: %v", growth)
	}
}

// TestStageResultsRecorded: a run records the results of the steps its
// path ran and only those — no crawl, download or stack for the model
// study; crawl, download and stack for every pulled topology, with the
// pull's accounting in the figure source.
func TestStageResultsRecorded(t *testing.T) {
	model := run(t, study(synth.DefaultSpec(0.0002), nil))
	if model.Crawl != nil || model.Download != nil || model.Stack != nil {
		t.Error("model run recorded pull results")
	}
	if model.Analysis == nil || len(model.Source.Growth) == 0 {
		t.Error("model run recorded no analysis or growth curve")
	}

	spec := synth.MaterializeSpec(0.0001)
	for _, topo := range []topology.Topology{{}, {Nodes: 2, MirrorBytes: 8 << 20, MirrorWarm: true}} {
		res := run(t, study(spec, &topo))
		if res.Crawl == nil || res.Download == nil || res.Stack == nil || res.Analysis == nil {
			t.Fatalf("%+v: pulled run missing results: %+v", topo, res)
		}
		if res.Source.Crawl != res.Crawl || res.Source.Download != &res.Download.Stats {
			t.Errorf("%+v: figure source lacks the pull accounting", topo)
		}
	}
}

// TestWireFiguresWorkerInvariant: the rendered figures are bit-identical
// at every worker count — scheduling must not leak into the science.
func TestWireFiguresWorkerInvariant(t *testing.T) {
	spec := synth.MaterializeSpec(0.0001)
	render := func(workers int) string {
		return figureText(run(t, &Study{Spec: spec, Workers: workers, Topology: wire()}))
	}
	base := render(1)
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != base {
			t.Errorf("wire figures differ between 1 and %d workers", workers)
		}
	}
}

// TestRunCancelledMidRun: a ctx cancelled once the stack is provisioned
// stops the pull with the context's error before it records a crawl or a
// download, and every mounted server still drains.
func TestRunCancelledMidRun(t *testing.T) {
	s := study(synth.MaterializeSpec(0.0001), wire())
	d, err := synth.Generate(s.Spec)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Dataset: d}
	g := &serve.Group{}
	search, err := s.provision(g, res, synth.Repositories(d))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	if err := s.pull(ctx, res, search); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	if res.Crawl != nil || res.Download != nil {
		t.Fatal("cancelled run recorded a crawl or download")
	}
	if err := g.Shutdown(context.WithoutCancel(ctx)); err != nil {
		t.Fatalf("server drain after cancellation: %v", err)
	}
	if err := res.Stack.Client.Ping(); err == nil {
		t.Fatal("registry still answers after the drain")
	}
	if resp, err := search.HTTP.Get(search.Base); err == nil {
		resp.Body.Close()
		t.Fatal("search API still answers after the drain")
	}
}

// TestRunWireContextPreCancelled: the public entry point returns the
// context error without doing any work.
func TestRunWireContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := study(synth.MaterializeSpec(0.0001), wire()).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// BenchmarkModelAnalysis times model mode's census work, the model
// analysis and the Fig. 25 curve, over one dataset generated outside the
// timer.
func BenchmarkModelAnalysis(b *testing.B) {
	d, err := synth.Generate(synth.DefaultSpec(0.0005))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.AnalyzeModel(d); err != nil {
			b.Fatal(err)
		}
		benchGrowth = DedupGrowth(d)
	}
}

var benchGrowth []report.GrowthPoint
