#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source into
# .bench_build/ (inside the checkout: build cache, temp files and the
# binary all stay there) and run it. Every argument passes through.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "bench: $root has no go.mod; the harness builds the program from a full checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
go build -ldflags "-X main.commit=$commit" -o "$build/mscope-bench" ./bench
exec "$build/mscope-bench" "$@"
