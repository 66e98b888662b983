package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/topology"
)

// live is the live-service topology, optionally with churn.
func live(churn float64) *topology.Topology {
	return &topology.Topology{Acquire: topology.LivePush, Ingest: true, Churn: churn}
}

func figFingerprint(figs []report.Figure) string {
	h := sha256.New()
	for i := range figs {
		fmt.Fprint(h, figs[i].String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunLiveMatchesBatch: a live run's figures — rendered from the
// incrementally maintained index, never a batch pass — must be
// bit-identical to batch-analyzing the registry the run left behind, on
// the plain store and on the deduplicating one.
func TestRunLiveMatchesBatch(t *testing.T) {
	plain := ""
	for _, storage := range []topology.Storage{topology.Plain, topology.Dedup} {
		topo := live(0)
		topo.Storage = storage
		res := run(t, study(synth.MaterializeSpec(0.0002), topo))
		if res.Stack.Origin.Live == nil {
			t.Fatal("live run missing analytics service")
		}
		ingest := res.Stack.Stats().Origin.Ingest
		if ingest.BlobsWalked == 0 {
			t.Fatal("no blobs walked on the wire")
		}
		if ingest.FallbackWalks != 0 || ingest.SkippedLayers != 0 {
			t.Fatalf("degraded ingest: %+v", ingest)
		}
		got := figFingerprint(res.Figures)
		batch, err := LiveBatchFigures(res, 4)
		if err != nil {
			t.Fatal(err)
		}
		if ref := figFingerprint(batch); ref != got {
			t.Fatalf("storage %d: live run != batch reference:\n live %s\nbatch %s", storage, got, ref)
		}
		// The store under the registry must be invisible to the index:
		// over dedupstore the census observes the store's own walk, over
		// a plain store the byte tee, and the figures agree.
		if plain == "" {
			plain = got
		} else if got != plain {
			t.Fatalf("live figures over dedup storage differ from plain: %s vs %s", got, plain)
		}
	}
}

// TestRunLiveChurnInvariant: deleting and re-pushing part of the
// population mid-run must leave the final figures identical to a
// churn-free run — the rollup path is exact, not approximate.
func TestRunLiveChurnInvariant(t *testing.T) {
	base := run(t, study(synth.MaterializeSpec(0.0002), live(0)))
	got := run(t, study(synth.MaterializeSpec(0.0002), live(0.3)))
	if got.Stack.Stats().Origin.Ingest.TagDeletes == 0 {
		t.Fatal("churn stage deleted nothing")
	}
	if figFingerprint(got.Figures) != figFingerprint(base.Figures) {
		t.Fatal("churned run's figures differ from churn-free run")
	}
	batch, err := LiveBatchFigures(got, 2)
	if err != nil {
		t.Fatal(err)
	}
	if figFingerprint(batch) != figFingerprint(got.Figures) {
		t.Fatal("churned live run != batch reference")
	}
}

// TestRunLiveStageGraph: a live run pushes, churns and reports from the
// live index — every layer walked on the wire, the churned tags deleted,
// nothing pulled — and renders model mode's figure set minus growth (no
// batch pass, no crawl/download → no tabM, no fig25).
func TestRunLiveStageGraph(t *testing.T) {
	res := run(t, &Study{Spec: synth.MaterializeSpec(0.0001), Workers: 2, Topology: live(0.5)})
	if ingest := res.Stack.Stats().Origin.Ingest; ingest.BlobsWalked == 0 || ingest.TagDeletes == 0 {
		t.Fatalf("live run ingest counters: %+v", ingest)
	}
	if res.Crawl != nil || res.Download != nil {
		t.Fatal("live run recorded a crawl or download")
	}
	ids := map[string]bool{}
	for _, f := range res.Figures {
		ids[f.ID] = true
	}
	if ids["tabM"] || ids["fig25"] {
		t.Fatal("live run rendered figures that need crawl/download/growth inputs")
	}
	if !ids["fig24"] || !ids["fig3"] {
		t.Fatal("live run missing core figures")
	}
}
