package repro_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro"
)

func TestRunRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1} {
		if _, err := repro.Run(repro.Options{Scale: scale}); err == nil {
			t.Errorf("Scale=%v accepted", scale)
		}
	}
}

func TestRunModelSmall(t *testing.T) {
	res, err := repro.Run(repro.Options{Scale: 0.0002})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) < 25 {
		t.Fatalf("got %d figures, want >= 25", len(res.Figures))
	}
	if res.Crawl != nil || res.Download != nil {
		t.Fatal("model run has wire-mode results")
	}
	// Every figure renders without panicking and mentions its ID.
	for _, fig := range res.Figures {
		s := fig.String()
		if !strings.Contains(s, fig.ID) || !strings.Contains(s, "paper=") {
			t.Errorf("figure %s rendered badly", fig.ID)
		}
	}
}

func TestRunWireSmall(t *testing.T) {
	res, err := repro.Run(repro.Options{Scale: 0.0001, Workers: 4, Topology: &repro.Topology{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawl == nil || res.Download == nil || res.Stack == nil {
		t.Fatal("wire run missing pipeline results")
	}
	if res.Download.Stats.Downloaded == 0 {
		t.Fatal("wire run downloaded nothing")
	}
}

// TestRunWireStageAccounting: a pulled run records what its crawl and
// download did — the accounting the methodology table renders.
func TestRunWireStageAccounting(t *testing.T) {
	res, err := repro.Run(repro.Options{Scale: 0.0001, Workers: 4, Topology: &repro.Topology{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crawl == nil || res.Download == nil {
		t.Fatal("pulled run recorded no crawl or download")
	}
	if st := res.Download.Stats; st.Attempted != len(res.Crawl.Repos) || st.Downloaded == 0 {
		t.Fatalf("download accounting %+v over %d crawled repos", st, len(res.Crawl.Repos))
	}
	if served := res.Stack.Stats().Origin.Registry.BlobGets; served == 0 {
		t.Fatal("the registry served no blobs to the pull")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, topo := range []*repro.Topology{nil, {}} {
		_, err := repro.RunContext(ctx, repro.Options{Scale: 0.0001, Topology: topo})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("topology %v: err = %v, want context.Canceled", topo, err)
		}
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	// Cancel shortly after the run starts: generation alone outlasts the
	// delay, so cancellation lands mid-run. The run must come back
	// promptly with a clean context error, servers drained.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := repro.RunContext(ctx, repro.Options{Scale: 0.0005, Workers: 4, Topology: &repro.Topology{}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run took %v to return", elapsed)
	}
}

func TestRunSeedOverride(t *testing.T) {
	a, err := repro.Run(repro.Options{Scale: 0.0002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.Run(repro.Options{Scale: 0.0002, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset.TotalFLS() == b.Dataset.TotalFLS() {
		t.Fatal("different seeds produced identical datasets")
	}
	c, err := repro.Run(repro.Options{Scale: 0.0002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset.TotalFLS() != c.Dataset.TotalFLS() {
		t.Fatal("same seed produced different datasets")
	}
}

func TestRunLiveSmall(t *testing.T) {
	res, err := repro.Run(repro.Options{Scale: 0.0001, Workers: 4,
		Topology: &repro.Topology{Acquire: repro.LivePush, Ingest: true, Churn: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stack == nil || res.Stack.Origin.Live == nil {
		t.Fatal("live run missing analytics results")
	}
	if ingest := res.Stack.Stats().Origin.Ingest; ingest.BlobsWalked == 0 || ingest.TagDeletes == 0 {
		t.Fatalf("live run ingest counters: %+v", ingest)
	}
	if len(res.Figures) == 0 {
		t.Fatal("live run rendered no figures")
	}
	if res.Crawl != nil || res.Download != nil {
		t.Fatal("live run has wire-pipeline results")
	}
}

// TestRunLiveOptionValidation: every combination that cannot work is
// refused before any work is done. The first rows were rejected by hand
// in RunContext before Topology; the rest ran a different study than the
// options said and reported success (a warm-up with no mirror to warm,
// replicas of no nodes), or pushed into a registry with no index to
// report from.
func TestRunLiveOptionValidation(t *testing.T) {
	live := func(t repro.Topology) repro.Topology {
		t.Acquire, t.Ingest = repro.LivePush, true
		return t
	}
	bad := []repro.Topology{
		live(repro.Topology{Nodes: 2}),
		live(repro.Topology{MirrorBytes: 1 << 20}),
		{Churn: 0.5},
		live(repro.Topology{Churn: 1.5}),
		live(repro.Topology{Churn: -0.1}),
		{MirrorWarm: true},
		{Replicas: 2},
		{Acquire: repro.LivePush},
		{Nodes: -1},
		{MirrorBytes: -1},
	}
	for i, topo := range bad {
		if _, err := repro.Run(repro.Options{Scale: 0.0001, Topology: &topo}); err == nil {
			t.Errorf("topology %d (%+v) accepted", i, topo)
		}
	}
}
