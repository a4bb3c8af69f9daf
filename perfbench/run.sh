#!/usr/bin/env bash
# Builds the vdm benchmark from the sources of this checkout and runs one
# workload:
#
#   bash perfbench/run.sh --workload join-storm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (Go build cache, temp
# files, the binary) goes under .bench_build/ at the root of the checkout.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" ]]; then
	echo "perfbench: no vdm sources next to the benchmark (need go.mod and internal/ at $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$bench" && go build -o "$out/perfbench" .) >&2

# One workload per process, on at most two cores, at the Go default GC
# target: the report records all three.
cores="$(nproc 2>/dev/null || echo 1)"
procs=$((cores < 2 ? cores : 2))
export GOMAXPROCS="$procs" GOGC=100
exec "$out/perfbench" "$@"
