#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. The Go build cache is kept under .bench_build so nothing is
# written outside the checkout; the first run compiles the standard library
# into it, later runs reuse it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/bench" ]; then
	echo "bench/run.sh: run from the repository root (no go.mod here)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
