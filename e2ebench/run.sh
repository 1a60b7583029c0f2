#!/usr/bin/env bash
# Builds the deck-to-result benchmark from the checkout it sits in and
# runs it with the given arguments, from the checkout root:
#
#   bash e2ebench/run.sh --workload noh-2rank --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build in
# the checkout: the Go build cache, the binary, the serve state dirs and
# the trace files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C e2ebench build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" "$@"
