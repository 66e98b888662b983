package main

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/dedupstore"
)

// layerCounters are the program's own counters over one traced round (or,
// summed with add, over several). Counts are deltas; Dedup is the store's
// accounting when the round ended.
type layerCounters struct {
	CacheHits, CacheFills, CacheCoalesced, CacheEvictions int64
	ReconHits, ReconFills                                 int64
	BlobsWalked, WalkErrors                               int64
	SnapshotNs                                            int64
	Dedup                                                 *dedupstore.Stats
}

func (a *layerCounters) add(b layerCounters) {
	a.CacheHits += b.CacheHits
	a.CacheFills += b.CacheFills
	a.CacheCoalesced += b.CacheCoalesced
	a.CacheEvictions += b.CacheEvictions
	a.ReconHits += b.ReconHits
	a.ReconFills += b.ReconFills
	a.BlobsWalked += b.BlobsWalked
	a.WalkErrors += b.WalkErrors
	a.SnapshotNs += b.SnapshotNs
	a.Dedup = b.Dedup
}

// cacheDelta is a cache's activity since prev, and the new prev.
func cacheDelta(now cache.Stats, prev *cache.Stats) (hits, fills, coalesced, evictions int64) {
	hits, fills = now.Hits-prev.Hits, now.Misses-prev.Misses
	coalesced, evictions = now.Coalesced-prev.Coalesced, now.Evictions-prev.Evictions
	*prev = now
	return
}

// perLayer lists every per-layer metric and its unit, in report order.
// BENCHMARK.json's per_layer block must name exactly these.
var perLayer = []struct{ name, unit string }{
	{"client.op_ms_mean", "ms"},
	{"client.throughput_per_s", "1/s"},
	{"client.latency_p50_ms", "ms"},
	{"client.latency_p95_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.latency_max_ms", "ms"},
	{"client.verify_ms_per_op", "ms"},
	{"client.idle_share", "share"},
	{"serve.router_requests", "count"},
	{"serve.node_requests", "count"},
	{"serve.handler_ms_per_op", "ms"},
	{"serve.wire_ms_per_op", "ms"},
	{"router.self_ms_per_op", "ms"},
	{"cache.hit_ratio", "share"},
	{"cache.fills", "count"},
	{"cache.coalesced", "count"},
	{"cache.evictions", "count"},
	{"cache.self_ms_per_op", "ms"},
	{"fanout.calls", "count"},
	{"fanout.warmup_calls", "count"},
	{"fanout.failovers", "count"},
	{"fanout.self_ms_per_op", "ms"},
	{"registry.requests", "count"},
	{"registry.self_ms_per_op", "ms"},
	{"registry.status_5xx", "count"},
	{"store.get_calls", "count"},
	{"store.get_ms_per_op", "ms"},
	{"store.get_mb", "MB"},
	{"store.put_calls", "count"},
	{"store.put_ms_per_op", "ms"},
	{"store.put_mb", "MB"},
	{"store.op_time_share", "share"},
	{"dedupstore.recon_cache_hit_ratio", "share"},
	{"dedupstore.unique_files", "count"},
	{"dedupstore.dup_file_share", "share"},
	{"dedupstore.pool_mb", "MB"},
	{"dedupstore.recipe_mb", "MB"},
	{"dedupstore.raw_blobs", "count"},
	{"analytics.blobstream_ms_per_op", "ms"},
	{"analytics.manifest_ms_per_op", "ms"},
	{"analytics.blobs_walked", "count"},
	{"analytics.walk_errors", "count"},
	{"analytics.snapshot_ms", "ms"},
	{"analytics.op_time_share", "share"},
	{"crawler.ms_per_pass", "ms"},
	{"pipeline.ms_per_pass", "ms"},
	{"analyzer.ms_per_pass", "ms"},
	{"report.ms_per_pass", "ms"},
	{"downloader.requests_per_pass", "count"},
	{"downloader.mb_per_pass", "MB"},
	{"floor.sha256_mb_per_cpu_s", "MB/s"},
	{"floor.gunzip_mb_per_cpu_s", "MB/s"},
	{"floor.gzip_mb_per_cpu_s", "MB/s"},
	{"floor.memcpy_mb_per_cpu_s", "MB/s"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.cpu_x_sha256_floor", "x"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.goroutines_peak", "count"},
	{"trace.overhead_share", "share"},
}

// endToEnd lists the end-to-end metrics BENCHMARK.json gates and their
// units, in report order: the ones that repeat on the sandbox whatever its
// host is doing.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"stored_bytes_per_user_byte", "x"},
}

// ungated lists what the end-to-end run measures, records and prints beside
// them on its two clients but BENCHMARK.json does not gate: every time the
// sandbox reports moves with its host by more than any bound (README, "How
// the bounds were set"). The traced run reports the same quantities for
// its one client as client.* and runtime.* per-layer metrics.
var ungated = []struct{ name, unit string }{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills rec.Metrics with every per-layer metric a traced run
// derives from its spans and counters. Counts are per round of the op
// list; times are per op. A layer the workload bypasses reports zeros.
func layerMetrics(rec *record, spans []span, bare, traced []roundResult, counts layerCounters, sha256Floor float64) {
	measured := sumLayers(spans, func(r int) bool { return r >= 1 })
	warmup := sumLayers(spans, func(r int) bool { return r == 0 })
	rounds := float64(len(traced))
	var ops, mallocs, gcCycles, cpuNs, tracedWall, bareWall float64
	var gcCPU float64
	var verifyNs int64
	goroutines := 0
	for _, rr := range traced {
		ops += float64(rr.Ops)
		mallocs += float64(rr.Mallocs)
		gcCycles += float64(rr.GCCycles)
		cpuNs += float64(rr.CPUNs)
		gcCPU += rr.GCCPUS
		tracedWall += float64(rr.WallNs)
		verifyNs += rr.VerifyNs
		goroutines = max(goroutines, rr.Goroutine)
	}
	var bareLat, bareOpsPerS, bareCPUMs, bareFloorX []float64
	for _, rr := range bare {
		bareWall += float64(rr.WallNs)
		bareLat = append(bareLat, rr.latMs...)
		bareOpsPerS = append(bareOpsPerS, float64(rr.Ops)/(float64(rr.WallNs)/1e9))
		bareCPUMs = append(bareCPUMs, float64(rr.CPUNs)/1e6/float64(rr.Ops))
		bareFloorX = append(bareFloorX, float64(rr.CPUNs)/float64(max(rr.Bytes, 1))/sha256Floor)
	}
	sort.Float64s(bareLat)

	set := func(name string, v float64) { rec.set(perLayer, name, metric{Value: v}) }
	selfMs := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += measured.SelfNs[n]
		}
		return ratio(float64(ns)/1e6, ops)
	}
	durMs := func(name string) float64 { return ratio(float64(measured.DurNs[name])/1e6, ops) }
	perRound := func(n int64) float64 { return ratio(float64(n), rounds) }
	opNs := float64(measured.DurNs[spanOp])

	set("client.op_ms_mean", durMs(spanOp))
	set("client.throughput_per_s", median(bareOpsPerS))
	set("client.latency_p50_ms", percentile(bareLat, 50))
	set("client.latency_p95_ms", percentile(bareLat, 95))
	set("client.latency_p99_ms", percentile(bareLat, 99))
	set("client.latency_max_ms", percentile(bareLat, 100))
	set("client.verify_ms_per_op", ratio(float64(verifyNs)/1e6, ops))
	set("client.idle_share", rec.ClientIdleShare)

	set("serve.router_requests", perRound(measured.Count[spanRouter]))
	set("serve.node_requests", perRound(measured.Count[spanRegistry]))
	set("serve.handler_ms_per_op", durMs(spanRouter)+durMs(spanRegistry))
	set("serve.wire_ms_per_op", selfMs(spanHTTPFront, spanHTTPNode))
	set("router.self_ms_per_op", selfMs(spanRouter))

	served := float64(counts.CacheHits + counts.CacheCoalesced)
	set("cache.hit_ratio", ratio(served, served+float64(counts.CacheFills)))
	set("cache.fills", perRound(counts.CacheFills))
	set("cache.coalesced", perRound(counts.CacheCoalesced))
	set("cache.evictions", perRound(counts.CacheEvictions))
	set("cache.self_ms_per_op", selfMs(spanCacheGet, spanCachePut))

	set("fanout.calls", perRound(measured.Count[spanFanout]))
	set("fanout.warmup_calls", float64(warmup.Count[spanFanout]))
	// Each fan-out call needs one node round trip; any more were replicas
	// tried after the first one failed.
	set("fanout.failovers", perRound(max(measured.Count[spanHTTPNode]-measured.Count[spanFanout], 0)))
	set("fanout.self_ms_per_op", selfMs(spanFanout))

	var status5xx int64
	for _, s := range spans {
		if s.Round >= 1 && s.Name == spanRegistry && s.Status >= 500 {
			status5xx++
		}
	}
	set("registry.requests", perRound(measured.Count[spanRegistry]))
	set("registry.self_ms_per_op", selfMs(spanRegistry))
	set("registry.status_5xx", perRound(status5xx))

	set("store.get_calls", perRound(measured.Count[spanStoreGet]))
	set("store.get_ms_per_op", selfMs(spanStoreGet))
	set("store.get_mb", perRound(measured.Bytes[spanStoreGet])/1e6)
	set("store.put_calls", perRound(measured.Count[spanStorePut]))
	set("store.put_ms_per_op", selfMs(spanStorePut))
	set("store.put_mb", perRound(measured.Bytes[spanStorePut])/1e6)
	set("store.op_time_share", ratio(float64(measured.SelfNs[spanStoreGet]+measured.SelfNs[spanStorePut]), opNs))

	set("dedupstore.recon_cache_hit_ratio", ratio(float64(counts.ReconHits), float64(counts.ReconHits+counts.ReconFills)))
	var ds dedupstore.Stats
	if counts.Dedup != nil {
		ds = *counts.Dedup
	}
	set("dedupstore.unique_files", float64(ds.UniqueFiles))
	set("dedupstore.dup_file_share", ratio(float64(ds.TotalFiles-int64(ds.UniqueFiles)), float64(ds.TotalFiles)))
	set("dedupstore.pool_mb", float64(ds.FileBytes)/1e6)
	set("dedupstore.recipe_mb", float64(ds.RecipeBytes)/1e6)
	set("dedupstore.raw_blobs", float64(ds.RawBlobs))

	set("analytics.blobstream_ms_per_op", selfMs(spanBlobStream))
	set("analytics.manifest_ms_per_op", selfMs(spanManifest))
	set("analytics.blobs_walked", perRound(counts.BlobsWalked))
	set("analytics.walk_errors", perRound(counts.WalkErrors))
	set("analytics.snapshot_ms", ratio(float64(counts.SnapshotNs)/1e6, rounds))
	set("analytics.op_time_share", ratio(float64(measured.SelfNs[spanBlobStream]+measured.SelfNs[spanManifest]), opNs))

	set("crawler.ms_per_pass", durMs(spanCrawler))
	set("pipeline.ms_per_pass", durMs(spanPipeline)-durMs(spanAnalyzer))
	set("analyzer.ms_per_pass", durMs(spanAnalyzer))
	set("report.ms_per_pass", durMs(spanReport))
	if measured.Count[spanPipeline] > 0 {
		set("downloader.requests_per_pass", ratio(float64(measured.Count[spanRegistry]), ops))
		var moved float64
		for _, rr := range traced {
			moved += float64(rr.Bytes)
		}
		set("downloader.mb_per_pass", ratio(moved/1e6, ops))
	} else {
		set("downloader.requests_per_pass", 0)
		set("downloader.mb_per_pass", 0)
	}

	set("runtime.cpu_ms_per_op", median(bareCPUMs))
	set("runtime.cpu_x_sha256_floor", median(bareFloorX))
	set("runtime.gc_cpu_share", ratio(gcCPU*1e9, cpuNs))
	set("runtime.gc_cycles", ratio(gcCycles, rounds))
	set("runtime.mallocs_per_op", ratio(mallocs, ops))
	set("runtime.goroutines_peak", float64(goroutines))
	// 1 - traced/bare throughput; both ran the same op list, so the ratio
	// of throughputs is the inverse ratio of wall times.
	set("trace.overhead_share", 1-ratio(bareWall, tracedWall))
}
