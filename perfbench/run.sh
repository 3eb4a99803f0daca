#!/usr/bin/env bash
# Builds `ceer` and the benchmark from the tree under test, then runs
# one workload. From the repository root:
#
#   bash perfbench/run.sh --workload serve-zoo --seed 1 --seconds 60 --trace 0
#
# Everything the build and the run write stays in .bench_build/ at the
# root: the Go build cache, temporary files, binaries, model files,
# journals and span files. The last line of standard output is the
# result as one JSON object.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
    GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
# The commit stamp comes from this tree's git checkout, never from a
# repository that happens to enclose it.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
go build -o "$out/ceer" ./cmd/ceer
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ceer "$out/ceer" -work "$out/work" "$@"
