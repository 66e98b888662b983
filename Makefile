# Build / verification entry points. `make ci` is the pre-merge gate: it
# vets, runs the full suite, race-checks the concurrent machinery,
# fingerprints the whole figure matrix, and smoke-runs the streaming
# benchmarks and the load generator so they cannot bit-rot.

GO ?= go

.PHONY: all build vet lint test race race-full golden bench bench-scaling bench-smoke bench-traffic benchmark ci

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

test:
	$(GO) test ./...

# Race-check the packages with concurrent machinery. Kept narrower than
# ./... so the gate stays fast enough to run on every change.
race:
	$(GO) test -race ./internal/core ./internal/dedup ./internal/analyzer ./internal/tarutil ./internal/stats ./internal/blobstore ./internal/sema ./internal/httpx ./internal/downloader ./internal/registry ./internal/pipeline ./internal/engine ./internal/serve ./internal/cache ./internal/mirror ./internal/cluster ./internal/topology ./internal/dedupstore ./internal/analytics ./internal/trafficsim

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

# Pipeline-scaling benchmarks only: worker sweep over the wire fixture and
# the concurrent census microbench (see EXPERIMENTS.md, "pipeline scaling").
bench-scaling:
	$(GO) test -run '^$$' -bench AnalyzeStoreWorkers -benchmem .
	$(GO) test -run '^$$' -bench IndexObserveParallel -benchmem ./internal/dedup

# One-iteration pass over the streaming/fused benchmarks plus one short
# trafficsim run per dispatch loop (open, closed): catches benchmark bit-rot in CI without paying the full
# bench cost. Smoke runs write nowhere (-json /dev/null), so the target
# leaves `git status` clean; the committed BENCH_traffic.json changes only
# through `make bench-traffic`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'DownloadStreaming|FusedPipeline' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'CacheHitServe|CacheMissFill' -benchtime=1x -benchmem ./internal/cache
	$(GO) test -run '^$$' -bench 'DedupPutStream$$|DedupGet(Sink)?$$' -benchtime=1x -benchmem ./internal/dedupstore
	$(GO) run ./cmd/trafficsim -scenarios flash-crowd -rates 120 -n 150 -scale 0.002 -json /dev/null
	$(GO) run ./cmd/trafficsim -scenarios flash-crowd -arrivals closed -workers 8 -n 150 -scale 0.002 -json /dev/null

# Regenerate the committed open-loop tail-latency record
# (BENCH_traffic.json): the scenario × rate sweep with
# coordinated-omission-safe percentiles and SLO verdicts, the bisection
# for max sustainable rate under the SLO on the paced pull-storm
# cluster, and the closed-vs-open-loop p99 comparison at overload.
bench-traffic:
	$(GO) run ./cmd/trafficsim \
		-scenarios pull-storm,mixed,flash-crowd,slow-clients \
		-rates 60,120,240 -n 400 -scale 0.003 -node-bw 2097152 \
		-slo-p99 500ms -slo-errors 0.01 \
		-search pull-storm -search-lo 40 -search-hi 600 -search-iters 5 \
		-compare pull-storm -workers 8 \
		-json BENCH_traffic.json

# The repository's one gated benchmark (BENCHMARK.json): four fixed
# workloads, each in its own process; see bench/README.md.
benchmark:
	bash bench/run.sh

ci: lint test race golden bench-smoke
