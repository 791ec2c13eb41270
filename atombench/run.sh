#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash atombench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; the first
# build compiles the standard library into that cache. The commit is
# recorded when the checkout is itself a git work tree; the benchmark
# always records a hash of the Go sources as well.
set -euo pipefail

root="$(pwd -P)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
# Keep every file the toolchain writes (build cache, module cache,
# temporaries, telemetry counters) inside the build directory.
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

commit=unknown
if top="$(git rev-parse --show-toplevel 2>/dev/null)" && [ "$(cd "$top" && pwd -P)" = "$root" ]; then
	commit="$(git rev-parse HEAD)"
fi

(cd atombench && go build -buildvcs=false -o "$out/atombench" .) >&2
ATOMBENCH_COMMIT="$commit" exec "$out/atombench" "$@"
