package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/blobstore"
	"repro/internal/crawler"
	"repro/internal/downloader"
	"repro/internal/hubapi"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/topology"
)

// hub stands up a materialized registry and the Hub search API beside it,
// the in-process equivalent of hubgen + hubregistry.
func hub(t *testing.T) (registryURL, searchURL string) {
	t.Helper()
	d, err := synth.Generate(synth.MaterializeSpec(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	repos := synth.Repositories(d)
	g := &serve.Group{}
	t.Cleanup(func() { g.Shutdown(context.Background()) })
	stack, err := topology.Provision(g, topology.Topology{}, topology.Site{
		Repos: repos,
		Fill: func(reg *registry.Registry) error {
			_, err := synth.Materialize(d, reg)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	search := &serve.Server{Name: "search", Handler: hubapi.NewServer(repos, d.Spec.CrawlDupFactor, d.Spec.Seed, 0)}
	if err := g.Start(search); err != nil {
		t.Fatal(err)
	}
	return stack.URL, search.URL()
}

func analyze(t *testing.T, regURL, searchURL string, workers int) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-search", searchURL, "-registry", regURL, "-out", t.TempDir(), "-workers", strconv.Itoa(workers)}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze -workers %d exited %d: %s", workers, code, stderr.String())
	}
	return stdout.String()
}

// TestAnalyzeMatchesTwoPhase pins the fused command to the two-phase
// reference the old download → analyze pair produced: every layer, image
// and file figure block is byte-equal to report.All over AnalyzeStore of
// the same images, and the output does not depend on the worker count.
func TestAnalyzeMatchesTwoPhase(t *testing.T) {
	regURL, searchURL := hub(t)
	got := analyze(t, regURL, searchURL, 1)
	if got8 := analyze(t, regURL, searchURL, 8); got8 != got {
		t.Fatal("analyze output differs between -workers 1 and -workers 8")
	}

	cres, err := (&crawler.Crawler{Client: &hubapi.Client{Base: searchURL}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	sink := blobstore.NewMemory()
	dres, err := (&downloader.Downloader{Client: &registry.Client{Base: regURL}, Store: sink}).Run(cres.Repos)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := analyzer.AnalyzeStore(sink, dres.Images, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Layers) == 0 {
		t.Fatal("the reference download found no layers")
	}
	var want strings.Builder
	for _, fig := range report.All(&report.Source{Analysis: ref}) {
		fmt.Fprintln(&want, fig)
	}
	methodology, figures, ok := strings.Cut(got, "\n\n")
	if !ok || !strings.Contains(methodology, "tabM") {
		t.Fatalf("analyze output does not open with the methodology table:\n%.300s", got)
	}
	if figures != want.String() {
		t.Fatal("analyze figures differ from report.All over AnalyzeStore of the same images")
	}
	if !strings.Contains(methodology, fmt.Sprintf("%d attempted, %d downloaded", dres.Stats.Attempted, dres.Stats.Downloaded)) {
		t.Fatalf("methodology table lacks the download accounting:\n%s", methodology)
	}
}

func TestAnalyzeUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"-registry", "http://localhost:1"}, {"-no-such-flag"}} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("analyze %q exited %d, want 2", args, code)
		}
	}
}
