package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
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

// wire is the plain wire topology: one registry, served directly, pulled
// in two phases.
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

func TestRunModelGrowthDisabled(t *testing.T) {
	res := run(t, &Study{Spec: synth.DefaultSpec(0.0002), GrowthSamples: -1})
	if len(res.Source.Growth) != 0 {
		t.Fatal("growth computed despite being disabled")
	}
	for _, f := range res.Figures {
		if f.ID == "fig25" {
			t.Fatal("fig25 present without growth samples")
		}
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
	model := run(t, &Study{Spec: spec, GrowthSamples: -1})
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

func TestDedupGrowthMonotonicSamples(t *testing.T) {
	d, err := synth.Generate(synth.DefaultSpec(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	growth, err := DedupGrowth(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(growth) < 2 {
		t.Fatalf("growth points = %d", len(growth))
	}
	for i := 1; i < len(growth); i++ {
		if growth[i].Layers <= growth[i-1].Layers {
			t.Fatalf("sample sizes not increasing: %+v", growth)
		}
	}
	first, last := growth[0], growth[len(growth)-1]
	if last.CountRatio <= first.CountRatio {
		t.Errorf("count dedup ratio did not grow: %v -> %v", first.CountRatio, last.CountRatio)
	}
	if last.Layers != len(d.Layers) {
		t.Errorf("final sample %d != all layers %d", last.Layers, len(d.Layers))
	}
}

func TestDedupGrowthEmptyDataset(t *testing.T) {
	d := &synth.Dataset{}
	growth, err := DedupGrowth(d, 4)
	if err != nil || growth != nil {
		t.Fatalf("empty dataset: %v %v", growth, err)
	}
}

func TestStageResultsRecorded(t *testing.T) {
	res := run(t, study(synth.DefaultSpec(0.0002), nil))
	want := []string{"generate", "analyze", "dedup-growth", "report"}
	if len(res.Stages) != len(want) {
		t.Fatalf("model stages = %v, want %v", stageNames(res.Stages), want)
	}
	for i, sr := range res.Stages {
		if sr.Name != want[i] {
			t.Errorf("stage[%d] = %s, want %s", i, sr.Name, want[i])
		}
		if sr.Err != nil {
			t.Errorf("stage %s failed: %v", sr.Name, sr.Err)
		}
		if sr.Wall < 0 {
			t.Errorf("stage %s wall time negative: %v", sr.Name, sr.Wall)
		}
	}

	// Whatever the topology stands up is one provision stage; only the
	// acquisition path changes the graph.
	spec := synth.MaterializeSpec(0.0001)
	for _, c := range []struct {
		topo topology.Topology
		want []string
	}{
		{topology.Topology{},
			[]string{"generate", "provision", "crawl", "download", "analyze", "report"}},
		{topology.Topology{Acquire: topology.Fused},
			[]string{"generate", "provision", "crawl", "download+analyze", "report"}},
		{topology.Topology{Nodes: 2, MirrorBytes: 8 << 20, MirrorWarm: true},
			[]string{"generate", "provision", "crawl", "mirror-warm", "download", "analyze", "report"}},
	} {
		if got := stageNames(run(t, study(spec, &c.topo)).Stages); !equalStrings(got, c.want) {
			t.Errorf("%+v: stages = %v, want %v", c.topo, got, c.want)
		}
	}
}

func stageNames(srs []engine.StageResult) []string {
	names := make([]string, len(srs))
	for i, sr := range srs {
		names[i] = sr.Name
	}
	return names
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWireFiguresWorkerInvariant: the rendered figures are bit-identical
// at every worker count — the stage refactor must not let scheduling leak
// into the science.
func TestWireFiguresWorkerInvariant(t *testing.T) {
	spec := synth.MaterializeSpec(0.0001)
	render := func(workers int, acquire topology.Acquire) string {
		return figureText(run(t, &Study{Spec: spec, Workers: workers, Topology: &topology.Topology{Acquire: acquire}}))
	}
	base := render(1, topology.TwoPhase)
	for _, workers := range []int{4, 8} {
		if got := render(workers, topology.TwoPhase); got != base {
			t.Errorf("wire figures differ between 1 and %d workers", workers)
		}
	}
	if got := render(4, topology.Fused); got != base {
		t.Error("fused figures differ from two-phase figures")
	}
}

// TestRunCancelledMidRun: cancelling between stages aborts the graph with
// the context's error, runs nothing further, and still tears the servers
// down. The cancel stage fires after crawl, so the download stage sees a
// dead context.
func TestRunCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s := study(synth.MaterializeSpec(0.0001), wire())
	env := s.Env()
	st := &State{Env: env, Spec: s.Spec, Topology: s.Topology}
	runner := &engine.Runner[*State]{Env: env, Stages: []engine.Stage[*State]{
		stageGenerate, stageProvision, stageCrawl,
		engine.NewStage("cancel", func(ctx context.Context, st *State) error {
			cancel()
			return nil
		}),
		stageDownload, stageAnalyze, stageReport,
	}}

	start := time.Now()
	results, err := runner.Run(ctx, st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	for _, sr := range results {
		if sr.Name == "download" || sr.Name == "analyze" || sr.Name == "report" {
			t.Errorf("stage %s ran despite cancellation", sr.Name)
		}
	}
	if st.Servers == nil {
		t.Fatal("provision stage never ran")
	}
	if err := st.Servers.Shutdown(context.Background()); err != nil {
		t.Fatalf("server drain after cancellation: %v", err)
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
