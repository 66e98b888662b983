package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 240)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want float64
		past int
	}{{50, 120, 120}, {95, 228, 12}, {99, 238, 2}, {100, 240, 0}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%v of 1..240 = %v, want %v", tc.p, got, tc.want)
		}
		if got := beyond(len(s), tc.p); got != tc.past {
			t.Errorf("samples beyond p%v of 240 = %d, want %d", tc.p, got, tc.past)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of an odd count = %v, want 5", got)
	}
}

// ramp returns n samples base+1 .. base+n.
func ramp(n int, base float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = base + float64(i+1)
	}
	return s
}

func TestRoundPercentileRule(t *testing.T) {
	// Rounds of 200 stand alone: per-round p95, then the median of those.
	big := [][]float64{ramp(200, 0), ramp(200, 1000), ramp(200, 100)}
	q := roundPercentile(big, 95)
	if q.Pooled || q.Samples != 200 || q.Beyond != 10 {
		t.Errorf("200-op rounds: pooled=%v samples=%d beyond=%d, want per-round over 200 with 10 beyond", q.Pooled, q.Samples, q.Beyond)
	}
	if want := []float64{190, 1190, 290}; !reflect.DeepEqual(q.PerRound, want) || q.Value != 290 {
		t.Errorf("200-op rounds: per-round %v value %v, want %v and their median 290", q.PerRound, q.Value, want)
	}
	// One round short of 200 pools everything: 8 x 30 = 240 samples.
	var small [][]float64
	for i := 0; i < 8; i++ {
		small = append(small, ramp(30, float64(30*i)))
	}
	q = roundPercentile(small, 95)
	if !q.Pooled || q.Samples != 240 || q.Beyond != 12 || q.Value != 228 || q.PerRound != nil {
		t.Errorf("30-op rounds: %+v, want pooled p95 of 1..240 = 228 with 12 beyond", q)
	}
	mixed := [][]float64{ramp(200, 0), ramp(199, 0)}
	if q := roundPercentile(mixed, 50); !q.Pooled || q.Samples != 399 {
		t.Errorf("a 199-op round must pool: %+v", q)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spanOp, Parent: -1, Start: 0, End: 100},
		{Name: spanHTTPFront, Parent: 0, Start: 10, End: 60},
		{Name: spanRegistry, Parent: 1, Start: 20, End: 70},     // outlives its parent: clipped at 60
		{Name: spanStorePut, Parent: 2, Start: 25, End: 45},     // overlaps the tee below
		{Name: spanBlobStream, Parent: 2, Start: 30, End: 50},   // sibling under the handler
		{Name: spanHTTPFront, Parent: 0, Start: 70, End: 90},    // second request of the op
		{Name: spanStoreGet, Parent: 2, Start: 65, End: 80},     // runs past the handler's end
		{Name: spanManifest, Parent: 2, Start: 1000, End: 1001}, // wholly outside: covers nothing
	}
	want := []int64{
		100 - 50 - 20, // op minus its two requests
		50 - 40,       // request minus the handler clipped to [20,60]
		50 - 25 - 5,   // handler minus union [25,50] and [65,70]
		20, 20, 20, 15, 1,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	sums := sumLayers(spans, func(int) bool { return true })
	if sums.SelfNs[spanHTTPFront] != 30 || sums.Count[spanHTTPFront] != 2 || sums.DurNs[spanHTTPFront] != 70 {
		t.Errorf("http.front sums: self %d count %d dur %d, want 30, 2, 70",
			sums.SelfNs[spanHTTPFront], sums.Count[spanHTTPFront], sums.DurNs[spanHTTPFront])
	}
}

func TestTracerParentsByLayerDepth(t *testing.T) {
	tr := newTracer()
	if id := tr.begin(spanOp); id != -1 {
		t.Fatalf("span recorded outside a round: %d", id)
	}
	tr.startRound(1)
	op := tr.begin(spanOp)
	req := tr.begin(spanHTTPFront)
	reg := tr.begin(spanRegistry)
	tee := tr.begin(spanBlobStream) // the tee starts first and stays open ...
	put := tr.begin(spanStorePut)   // ... yet the put is its sibling, not its child
	tr.end(put)
	tr.end(tee)
	tr.end(req) // the client is done before the handler returns
	tr.end(op)
	op2 := tr.begin(spanOp) // the next op opens while the old handler is still open
	req2 := tr.begin(spanHTTPFront)
	tr.end(reg)
	tr.end(req2)
	tr.end(op2)
	tr.endRound()

	s := tr.snapshot()
	for _, tc := range []struct {
		name      string
		id, wantP int
	}{
		{"op", op, -1}, {"request", req, op}, {"handler", reg, req},
		{"tee", tee, reg}, {"put", put, reg}, {"second op", op2, -1}, {"second request", req2, op2},
	} {
		if s[tc.id].Parent != tc.wantP {
			t.Errorf("%s: parent %d, want %d", tc.name, s[tc.id].Parent, tc.wantP)
		}
	}
	if s[op].Op != 0 || s[put].Op != 0 || s[req2].Op != 1 {
		t.Errorf("op ids: %d %d %d, want 0 0 1", s[op].Op, s[put].Op, s[req2].Op)
	}
	for i, sp := range s {
		if sp.End < sp.Start {
			t.Errorf("span %d (%s) left open", i, sp.Name)
		}
	}
}

func TestOpListDeterminism(t *testing.T) {
	c, err := newCorpus("materialize", smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"skewed", "uniform", "passes"} {
		a, err := opList(kind, c, 7, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := opList(kind, c, 7, 64)
		other, _ := opList(kind, c, 8, 64)
		if len(a) != 64 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different op lists", kind)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", kind)
		}
	}
	// A uniform list is whole permutations: every image equally often.
	n := len(c.images)
	ops, _ := opList("uniform", c, 3, 3*n)
	seen := map[int64]int{}
	for _, o := range ops {
		seen[o]++
	}
	for i := 0; i < n; i++ {
		if seen[int64(i)] != 3 {
			t.Fatalf("uniform list requests image %d %d times, want 3", i, seen[int64(i)])
		}
	}
}

func TestBenchmarkFileNamesTheProgramsMetrics(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	got, want = nil, nil
	hasSetup := false
	for _, m := range bf.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) || !hasSetup {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v (setup_s present: %v)", got, want, hasSetup)
	}
	got, want = nil, nil
	for _, m := range bf.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, want)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
}

// smokeScale is the smallest corpus synth renders (10 repositories).
const smokeScale = 0.00002

// TestSmokeAllWorkloads runs every workload end to end and traced on a
// tiny corpus — one round of 20 ops, outputs verified — and checks that
// the traced runs attribute work to the layers each workload is meant to
// load and to no layer it bypasses.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	layers := map[string]map[string]metric{}
	for _, w := range workloads {
		wl := w
		wl.scale = smokeScale
		for _, traced := range []bool{false, true} {
			cfg := &runConfig{wl: &wl, seed: 5, rounds: 1, roundOps: 20, setups: 1, sha256Burst: 5 * time.Millisecond, floorBurst: 5 * time.Millisecond, trace: traced}
			var rec *record
			var err error
			names := endToEnd
			if traced {
				var spans []span
				rec, spans, err = runTraced(context.Background(), cfg)
				names = perLayer
				if err == nil && len(roundSpans(spans, 1)) == 0 {
					t.Errorf("%s: traced round recorded no span", wl.name)
				}
			} else {
				rec, err = runEndToEnd(context.Background(), cfg)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 20 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: %s",
					wl.name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Error)
			}
			for _, n := range names {
				m, ok := rec.Metrics[n.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not finite (%v)", wl.name, traced, n.name, m.Value)
				}
			}
			if traced {
				layers[wl.name] = rec.Metrics
				continue
			}
			for _, name := range []string{"throughput_per_s", "latency_p50_ms", "alloc_kb_per_op", "stored_bytes_per_user_byte"} {
				if rec.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", wl.name, name, rec.Metrics[name].Value)
				}
			}
		}
	}
	t.Logf("smoke took %v", time.Since(start))

	v := func(workload, name string) float64 { return layers[workload][name].Value }
	if got := v("pull-hot", "cache.hit_ratio"); got < 0.95 {
		t.Errorf("pull-hot cache.hit_ratio = %v, want >= 0.95 after the warm-up round", got)
	}
	if v("pull-hot", "fanout.calls") == 0 || v("pull-hot", "fanout.failovers") != 0 {
		t.Errorf("pull-hot fan-out: calls %v failovers %v, want by-tag manifests through the fan-out and no failover",
			v("pull-hot", "fanout.calls"), v("pull-hot", "fanout.failovers"))
	}
	if v("pull-cold-dedup", "store.get_calls") == 0 || v("pull-cold-dedup", "dedupstore.unique_files") == 0 {
		t.Errorf("pull-cold-dedup: store gets %v, pool files %v, want both > 0",
			v("pull-cold-dedup", "store.get_calls"), v("pull-cold-dedup", "dedupstore.unique_files"))
	}
	for _, wl := range []string{"pull-hot", "pull-cold-dedup", "study-fused"} {
		if v(wl, "analytics.blobs_walked") != 0 || v(wl, "analytics.blobstream_ms_per_op") != 0 {
			t.Errorf("%s: analytics spans outside push-dedup-live", wl)
		}
	}
	if v("push-dedup-live", "analytics.blobs_walked") == 0 || v("push-dedup-live", "analytics.blobstream_ms_per_op") == 0 ||
		v("push-dedup-live", "store.put_calls") == 0 {
		t.Errorf("push-dedup-live: walked %v, blobstream ms %v, puts %v, want all > 0",
			v("push-dedup-live", "analytics.blobs_walked"), v("push-dedup-live", "analytics.blobstream_ms_per_op"),
			v("push-dedup-live", "store.put_calls"))
	}
	if v("study-fused", "pipeline.ms_per_pass") <= 0 || v("study-fused", "serve.router_requests") != 0 || v("study-fused", "cache.fills") != 0 {
		t.Errorf("study-fused must run the pipeline and bypass router and cache: pipeline %v ms, router requests %v, cache fills %v",
			v("study-fused", "pipeline.ms_per_pass"), v("study-fused", "serve.router_requests"), v("study-fused", "cache.fills"))
	}
}
