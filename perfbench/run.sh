#!/bin/sh
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   sh perfbench/run.sh --workload stream --seed 1 --seconds 16 --trace 0
#
# Build caches and the binary stay under .bench_build at the checkout root;
# the traced run writes under .bench_trace. A failed build exits non-zero
# without printing a result.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
