package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	wl       *workload
	seed     int64
	seconds  float64 // measured window; rounds run until it is filled
	rounds   int     // when positive: exactly this many rounds, untimed
	roundOps int     // when positive: overrides the workload's ops per round
	setups   int     // set-ups (build + warm-up round) of the end-to-end run
	// sha256Burst and floorBurst are the lengths of the calibrations.
	sha256Burst, floorBurst time.Duration
	trace                   bool
}

// clients is the run's closed-loop client count: the traced run keeps one
// op in flight so that every span recorded while it is open is its own.
func (cfg *runConfig) clients() int {
	if cfg.trace {
		return 1
	}
	return clients
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// PerRound holds the per-round values Value is the median of.
	PerRound []float64 `json:"per_round,omitempty"`
	// Quantile describes what a latency percentile was taken over.
	Quantile *quantileStat `json:"quantile,omitempty"`
}

// record is the one schema every run writes (bench/out/result.json keeps
// the latest record per workload and mode).
type record struct {
	Workload    string  `json:"workload"`
	Why         string  `json:"why"`
	Traced      bool    `json:"traced"`
	Seed        int64   `json:"seed"`
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	GOGC        string  `json:"gogc"`
	Clients     int     `json:"clients"`
	OpsPerRound int     `json:"ops_per_round"`
	Rounds      int     `json:"rounds"`
	MeasuredS   float64 `json:"measured_s"`

	CorpusSpec   string           `json:"corpus_spec"`
	CorpusScale  float64          `json:"corpus_scale"`
	CorpusImages int              `json:"corpus_images"`
	CorpusS      float64          `json:"corpus_render_s"`
	Sizes        map[string]int64 `json:"sizes_bytes"`
	SetupS       []float64        `json:"setup_s_each,omitempty"`

	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Correct   bool   `json:"correct"`
	Error     string `json:"error,omitempty"`
	// FailedOpsShare is failed or digest-mismatched ops over attempted; a
	// refused op counts as failed. Any value above 0 fails the run.
	FailedOpsShare float64 `json:"failed_ops_share"`
	// ClientIdleShare is generator health: client time outside an op.
	// Above 2 % the harness, not the program, is the bottleneck.
	ClientIdleShare float64 `json:"client_idle_share"`

	Metrics map[string]metric `json:"metrics"`
	Raw     []roundResult     `json:"rounds_raw"`
}

func newRecord(cfg *runConfig, c *corpus, ops int) *record {
	return &record{
		Workload: cfg.wl.name, Why: cfg.wl.why, Traced: cfg.trace, Seed: cfg.seed,
		Commit: commitID(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GOGC: gogc(),
		Clients: cfg.clients(), OpsPerRound: ops,
		CorpusSpec: c.specName, CorpusScale: c.scale, CorpusImages: len(c.images), CorpusS: c.renderS,
		Metrics: map[string]metric{},
	}
}

// set records a metric under the unit its table (endToEnd or perLayer)
// lists it with, so that a metric the tables do not name cannot be
// reported.
func (r *record) set(table []struct{ name, unit string }, name string, m metric) {
	for _, t := range table {
		if t.name == name {
			m.Unit = t.unit
			r.Metrics[name] = m
			return
		}
	}
	panic("metric " + name + " is not in the benchmark's metric tables")
}

// fail notes a correctness failure; the first one is kept as the reason.
func (r *record) fail(err error) {
	if r.Error == "" {
		r.Error = err.Error()
	}
}

// count folds a round's ops into the attempted/failed totals.
func (r *record) count(rr roundResult) {
	r.Attempted += rr.Ops
	r.Failed += rr.Failed
	if rr.firstErr != nil {
		r.fail(rr.firstErr)
	}
}

func (r *record) finish() {
	if r.Error != "" && r.Failed == 0 {
		r.Failed = 1 // a failed check outside an op still fails the run
	}
	r.Correct = r.Failed == 0
	if r.Attempted > 0 {
		r.FailedOpsShare = float64(r.Failed) / float64(r.Attempted)
	}
}

// prepare draws a run's inputs.
func (cfg *runConfig) prepare() (*corpus, []int64, error) {
	c, err := newCorpus(cfg.wl.spec, cfg.wl.scale)
	if err != nil {
		return nil, nil, err
	}
	n := cfg.wl.roundOps
	if n == 0 {
		n = len(c.images)
	}
	if cfg.roundOps > 0 {
		n = cfg.roundOps
	}
	ops, err := opList(cfg.wl.opKind, c, cfg.seed, n)
	return c, ops, err
}

// more reports whether another round is due after done rounds.
func (cfg *runConfig) more(done, atLeast int, since time.Time) bool {
	if cfg.rounds > 0 {
		return done < cfg.rounds
	}
	if done < atLeast {
		return true
	}
	return done < maxRounds && time.Since(since).Seconds() < cfg.seconds
}

// oneRound runs prepare, the round and its check on st.
func oneRound(ctx context.Context, st stack, ops []int64, tr *tracer, round int) (roundResult, error) {
	if err := st.prepare(); err != nil {
		return roundResult{}, fmt.Errorf("round %d prepare: %w", round, err)
	}
	// Start every round from a collected heap so a round's allocation and
	// GC work are its own, not its predecessor's leftovers.
	runtime.GC()
	tr.startRound(round)
	rr := runRound(ctx, st, ops, st.opClients(), tr)
	tr.endRound()
	if rr.Failed == 0 {
		if err := st.check(round); err != nil {
			return rr, fmt.Errorf("round %d check: %w", round, err)
		}
	}
	return rr, nil
}

// runEndToEnd is the untraced run: cfg.setups × (build + warm-up round), then
// measured rounds of the identical op list on the last topology built.
// Every rate and cost is computed per round and reported as the median
// across rounds.
func runEndToEnd(ctx context.Context, cfg *runConfig) (*record, error) {
	c, ops, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	rec := newRecord(cfg, c, len(ops))
	var st stack
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		st, err = cfg.wl.build(&buildEnv{c: c, clients: cfg.clients()})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm, err := oneRound(ctx, st, ops, nil, 0)
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
		if err != nil {
			rec.fail(err)
		}
		rec.count(warm)
	}
	defer st.close()

	var rounds []roundResult
	start := time.Now()
	for r := 1; cfg.more(r-1, minRounds, start); r++ {
		rr, err := oneRound(ctx, st, ops, nil, r)
		if err != nil {
			rec.fail(err)
		}
		rec.count(rr)
		rounds = append(rounds, rr)
		rec.MeasuredS += float64(rr.WallNs) / 1e9
	}
	rec.Rounds, rec.Raw = len(rounds), rounds
	rec.Sizes = st.sizes()
	rec.ClientIdleShare = idleShare(rounds)

	lats := make([][]float64, len(rounds))
	for i, rr := range rounds {
		lats[i] = rr.latMs
	}
	// perRound is a per-round value and its median across rounds.
	perRound := func(f func(roundResult) float64) metric {
		var each []float64
		for _, rr := range rounds {
			each = append(each, f(rr))
		}
		return metric{Value: median(each), PerRound: each}
	}
	quantile := func(p float64) metric {
		q := roundPercentile(lats, p)
		return metric{Value: q.Value, PerRound: q.PerRound, Quantile: &q}
	}
	held, user := st.storage()

	rec.set(endToEnd, "setup_s", metric{Value: median(rec.SetupS), PerRound: rec.SetupS})
	rec.set(ungated, "throughput_per_s", perRound(func(r roundResult) float64 {
		return float64(r.Ops) / (float64(r.WallNs) / 1e9)
	}))
	rec.set(ungated, "latency_p50_ms", quantile(50))
	rec.set(ungated, "latency_tail_ms", quantile(95))
	rec.set(ungated, "cpu_ms_per_op", perRound(func(r roundResult) float64 {
		return float64(r.CPUNs) / 1e6 / float64(r.Ops)
	}))
	rec.set(endToEnd, "alloc_kb_per_op", perRound(func(r roundResult) float64 {
		return float64(r.Alloc) / 1024 / float64(r.Ops)
	}))
	rec.set(endToEnd, "peak_rss_mb", metric{Value: peakRSSMB()})
	rec.set(endToEnd, "stored_bytes_per_user_byte", metric{Value: float64(held) / float64(max(user, 1))})
	rec.finish()
	return rec, nil
}

// runTraced is the per-layer run: one client, so the spans recorded while
// an op is open are that op's. Two topologies are built, one bare and one
// with a decorator at every layer boundary; rounds alternate between them,
// and the throughput gap is the tracing overhead.
func runTraced(ctx context.Context, cfg *runConfig) (*record, []span, error) {
	c, ops, err := cfg.prepare()
	if err != nil {
		return nil, nil, err
	}
	rec := newRecord(cfg, c, len(ops))
	fl := newFloors(cfg.sha256Burst, cfg.floorBurst)
	sha256Floor := fl.sha256NsPerByte()
	rec.set(perLayer, "floor.sha256_mb_per_cpu_s", metric{Value: mbPerCPUSecond(sha256Floor)})
	rec.set(perLayer, "floor.gunzip_mb_per_cpu_s", metric{Value: mbPerCPUSecond(fl.gunzipNsPerByte())})
	rec.set(perLayer, "floor.gzip_mb_per_cpu_s", metric{Value: mbPerCPUSecond(fl.gzipNsPerByte())})
	rec.set(perLayer, "floor.memcpy_mb_per_cpu_s", metric{Value: mbPerCPUSecond(fl.memcpyNsPerByte())})

	tr := newTracer()
	bare, err := cfg.wl.build(&buildEnv{c: c, clients: cfg.clients()})
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer bare.close()
	traced, err := cfg.wl.build(&buildEnv{c: c, clients: cfg.clients(), tr: tr})
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer traced.close()

	var bareRounds, tracedRounds []roundResult
	var counts layerCounters
	run := func(st stack, t *tracer, round int) roundResult {
		rr, err := oneRound(ctx, st, ops, t, round)
		if err != nil {
			rec.fail(err)
		}
		rec.count(rr)
		return rr
	}
	run(bare, nil, 0)
	run(traced, tr, 0)
	traced.roundCounters() // the warm-up's counts are not the measured rounds'
	start := time.Now()
	for p := 1; cfg.more(p-1, minTracePairs, start); p++ {
		bareRounds = append(bareRounds, run(bare, nil, p))
		rr := run(traced, tr, p)
		tracedRounds = append(tracedRounds, rr)
		counts.add(traced.roundCounters())
		rec.MeasuredS += float64(rr.WallNs) / 1e9
	}
	rec.Rounds, rec.Raw = len(tracedRounds), tracedRounds
	rec.Sizes = traced.sizes()
	rec.ClientIdleShare = idleShare(bareRounds)

	spans := tr.snapshot()
	layerMetrics(rec, spans, bareRounds, tracedRounds, counts, sha256Floor)
	rec.finish()
	return rec, spans, nil
}
