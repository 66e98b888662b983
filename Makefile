# Build / verification entry points. `make ci` is the pre-merge gate: it
# vets, runs the full suite, race-checks the concurrent machinery,
# fingerprints the whole figure matrix, and smoke-runs the streaming
# benchmarks and the load generator so they cannot bit-rot.

GO ?= go

.PHONY: all build vet lint lines test race race-full golden bench bench-scaling bench-smoke fuzz-smoke bench-traffic benchmark ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static hygiene: vet, a gofmt check that fails loudly on any
# unformatted file instead of silently printing names, and the project's
# own analyzers (internal/lintrules via cmd/repolint) — determinism,
# transport, context, and error-envelope conventions enforced
# mechanically. See DESIGN.md, "Enforced invariants".
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/repolint ./...

# Lines of non-test Go outside bench/, testdata included: the one count
# ROADMAP's line ceiling is stated in.
lines:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs cat | wc -l

test:
	$(GO) test ./...

# Race-check the packages with concurrent machinery. Kept narrower than
# ./... so the gate stays fast enough to run on every change.
race:
	$(GO) test -race ./internal/core ./internal/crawler ./internal/analyzer ./internal/tarutil ./internal/stats ./internal/blobstore ./internal/httpx ./internal/downloader ./internal/registry ./internal/pipeline ./internal/engine ./internal/serve ./internal/cache ./internal/mirror ./internal/cluster ./internal/topology ./internal/dedupstore ./internal/analytics ./internal/trafficsim

# Race-check everything, including the root package's streaming
# benchmarks' fixtures (slower; not part of `make ci`).
race-full:
	$(GO) test -race ./...

# Fingerprint all 10 rows of the figure matrix (model, wire, mirror,
# cluster, dedup, live, live over dedup) at two worker counts; exits
# non-zero when any wire-path or live mode diverges from its reference.
# `go test ./cmd/goldencheck` pins each row to the committed fingerprints.
golden:
	$(GO) run ./cmd/goldencheck -workers 1,4

# Full benchmark sweep (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Pipeline-scaling benchmarks only: worker sweep over the wire fixture
# (see EXPERIMENTS.md, "pipeline scaling").
bench-scaling:
	$(GO) test -run '^$$' -bench AnalyzeStoreWorkers -benchmem .

# One-iteration pass over the streaming/fused benchmarks plus one short
# trafficsim run per dispatch loop (open, closed): catches benchmark bit-rot in CI without paying the full
# bench cost. Smoke runs write nowhere (-json /dev/null), so the target
# leaves `git status` clean; the committed BENCH_traffic.json changes only
# through `make bench-traffic`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'DownloadStreaming|FusedPipeline' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'CacheHitServe|CacheHitParallel|CacheMissFill|CacheScan' -benchtime=1x -benchmem ./internal/cache
	$(GO) test -run '^$$' -bench 'DedupPutStream(Packed|PackedSmall)?$$|DedupGet(Sink|Packed|PackedSmall)?$$|DedupIngestSequential$$' -benchtime=1x -benchmem ./internal/dedupstore
	$(GO) test -run '^$$' -bench 'SizeQuantiles$$' -benchtime=1x -benchmem ./internal/dedup
	$(GO) test -run '^$$' -bench 'ModelAnalysis$$' -benchtime=1x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BuildLayer$$|WalkLayer$$' -benchtime=1x -benchmem ./internal/tarutil
	$(GO) test -run '^$$' -bench 'HTTPPull$$|HTTPPush$$' -benchtime=1x -benchmem ./internal/registry
	$(GO) test -run '^$$' -bench 'LivePush$$' -benchtime=1x -benchmem ./internal/analytics
	$(GO) run ./cmd/trafficsim -scenarios flash-crowd -rates 120 -n 150 -scale 0.002 -json /dev/null
	$(GO) run ./cmd/trafficsim -scenarios flash-crowd -arrivals closed -workers 8 -n 150 -scale 0.002 -json /dev/null

# Five seconds of native fuzzing per target, starting from the seed
# corpus committed under the package's testdata/fuzz/<target>/. A failing
# input is written there too, so it becomes a regression test. Go fuzzes
# one target per run, so each target has its own line. Each new
# interesting input is minimized for at most 10 executions: Go's default
# of 60 s per input spends the whole budget minimizing the first one.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRange$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/registry
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/manifest
	$(GO) test -run '^$$' -fuzz '^FuzzWalk$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/tarutil
	$(GO) test -run '^$$' -fuzz '^FuzzBuild$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/tarutil
	$(GO) test -run '^$$' -fuzz '^FuzzRecipe$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/dedupstore
	$(GO) test -run '^$$' -fuzz '^FuzzStoreTape$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/dedupstore
	$(GO) test -run '^$$' -fuzz '^FuzzCacheTape$$' -fuzztime 5s -fuzzminimizetime 10x ./internal/cache

# Regenerate the committed open-loop tail-latency record
# (BENCH_traffic.json): the scenario × rate sweep with
# coordinated-omission-safe percentiles and SLO verdicts, the bisection
# for max sustainable rate under the SLO on the unpaced pull-storm
# cluster, and the closed-vs-open-loop p99 comparison at overload. Runs
# are 2000 requests so an overloaded probe builds a backlog past the
# SLO: with n requests the open-loop p99 cannot exceed about n/capacity,
# and at 400 that sits at the 500ms bound. The bracket's top must fail.
bench-traffic:
	$(GO) run ./cmd/trafficsim \
		-scenarios pull-storm,mixed,flash-crowd,slow-clients \
		-rates 60,120,240 -n 2000 -scale 0.003 \
		-slo-p99 500ms -slo-errors 0.01 \
		-search pull-storm -search-lo 100 -search-hi 4000 -search-iters 6 \
		-compare pull-storm -workers 8 \
		-json BENCH_traffic.json

# The repository's one gated benchmark (BENCHMARK.json): four fixed
# workloads, each in its own process; see bench/README.md.
benchmark:
	bash bench/run.sh

ci: lint test race golden bench-smoke fuzz-smoke
