#!/usr/bin/env bash
# Builds the paper-workload benchmark from the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash paperbench/run.sh --workload itinerary --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary, the go
# command's own config and telemetry files, and every file a run writes
# stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$root/paperbench" && go build -o "$out/paperbench" .)
exec "$out/paperbench" "$@"
