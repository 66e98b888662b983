package analytics

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/synth"
)

// TestSnapshotIsolation is the satellite invariant: a long-running figure
// render observes one consistent epoch while pushes land mid-read. The
// snapshot is taken, writes land, and the snapshot must keep rendering
// the pre-write bytes while a fresh snapshot sees the new epoch.
func TestSnapshotIsolation(t *testing.T) {
	e := newEnv(t, 0.0002)
	manifests := e.pushAll(t)

	snap := e.live.Snapshot()
	before, err := snap.Figures()
	if err != nil {
		t.Fatal(err)
	}
	beforeFP := fingerprint(before)
	beforeEpoch := snap.Epoch

	// Writes land "mid-read": delete a tag and re-render the old snapshot
	// concurrently from several goroutines — the race detector guards the
	// shared walks, and the bytes must not move.
	var names []string
	for name := range manifests {
		names = append(names, name)
	}
	if err := e.client.DeleteManifestContext(context.Background(), names[0], "latest"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			figs, err := snap.Figures()
			if err != nil {
				t.Error(err)
				return
			}
			if fingerprint(figs) != beforeFP {
				t.Error("snapshot render changed under concurrent writes")
			}
		}()
	}
	wg.Wait()

	fresh := e.live.Snapshot()
	if fresh.Epoch <= beforeEpoch {
		t.Fatalf("epoch did not advance: %d -> %d", beforeEpoch, fresh.Epoch)
	}
	figs, err := fresh.Figures()
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(figs) == beforeFP {
		t.Fatal("fresh snapshot did not observe the delete")
	}
}

// TestSnapshotIsolationUnderConcurrentPushes renders one snapshot while a
// full dataset's pushes land concurrently — the render must neither race
// (detector) nor waver (fingerprint).
func TestSnapshotIsolationUnderConcurrentPushes(t *testing.T) {
	e := newEnv(t, 0.0001)
	e.pushAll(t)
	snap := e.live.Snapshot()
	first, err := snap.Figures()
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprint(first)

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Constant writes while the main goroutine re-reads the snapshot.
		for ri := range e.ds.Repos {
			r := &e.ds.Repos[ri]
			if !r.Downloadable() {
				continue
			}
			if err := e.client.DeleteManifestContext(context.Background(), r.Name, "latest"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		figs, err := snap.Figures()
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(figs) != fp {
			t.Fatal("snapshot bytes moved under concurrent deletes")
		}
	}
	<-done
}

// TestHandlerEndpoints exercises the query API over HTTP: summary, dedup,
// figure index, one figure body, unknown-figure error envelope, and the
// epoch header advancing across writes.
func TestHandlerEndpoints(t *testing.T) {
	e := newEnv(t, 0.0001)
	manifests := e.pushAll(t)
	api := httptest.NewServer(e.live.Handler())
	defer api.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(api.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/analytics/summary")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary status %d", resp.StatusCode)
	}
	var sum Summary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("summary not JSON: %v\n%s", err, body)
	}
	if sum.Images != len(manifests) || sum.Layers == 0 {
		t.Fatalf("summary: %+v, want %d images", sum, len(manifests))
	}
	epoch1 := resp.Header.Get("X-Analytics-Epoch")
	if epoch1 == "" {
		t.Fatal("no epoch header")
	}

	resp, body = get("/analytics/dedup")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "CountRatio") {
		t.Fatalf("dedup: status %d body %s", resp.StatusCode, body)
	}

	resp, body = get("/analytics/figures")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "fig24") {
		t.Fatalf("figures index: status %d body %.200s", resp.StatusCode, body)
	}

	resp, body = get("/analytics/figure/fig24")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "fig24") {
		t.Fatalf("figure fig24: status %d body %.200s", resp.StatusCode, body)
	}

	resp, body = get("/analytics/figure/nope")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "FIGURE_UNKNOWN") {
		t.Fatalf("unknown figure: status %d body %s", resp.StatusCode, body)
	}

	// A write advances the served epoch.
	var name string
	for n := range manifests {
		name = n
		break
	}
	if err := e.client.DeleteManifestContext(context.Background(), name, "latest"); err != nil {
		t.Fatal(err)
	}
	resp, _ = get("/analytics/summary")
	if resp.Header.Get("X-Analytics-Epoch") == epoch1 {
		t.Fatal("epoch header did not advance after delete")
	}
}

// TestFallbackWalks: layers tagged via administrative SetTag (never seen
// on the wire) are backfilled from the store, and the resulting figures
// still match batch.
func TestFallbackWalks(t *testing.T) {
	e := newEnv(t, 0.0001)
	// Materialize directly into the registry (direct store writes + hook
	// notifications from PushManifest) — no blob is uploaded over the wire.
	if _, err := synth.Materialize(e.ds, e.reg); err != nil {
		t.Fatal(err)
	}
	if got := e.batchFingerprint(t, 4); got != e.liveFingerprint(t) {
		t.Fatal("live != batch for store-backfilled layers")
	}
	if st := e.live.Stats(); st.FallbackWalks == 0 {
		t.Fatalf("expected fallback walks, got %+v", st)
	}
}
