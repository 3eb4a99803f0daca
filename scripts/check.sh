#!/usr/bin/env bash
# Tier-1+ verification gate (see README "Verification"): formatting,
# vet, build, the full test suite, a race-detector pass over the whole
# module, the ceer-lint static-analysis suite, the escape-analysis
# cross-check, the calibration golden gate, the paper-fidelity gate
# (experiment report byte-identity), the chaos determinism gate, and a
# bench smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "${unformatted}" ]]; then
    echo "gofmt gate FAILED: files need gofmt -w:" >&2
    echo "${unformatted}" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== ceer-lint"
# The AST/type-aware invariant suite (internal/lint): device
# genericity in core packages, determinism on the result path, error
# hygiene, float-comparison discipline, and the hot-path proof layer
# (allocfree, atomics, hotpath, poolpair over the //hot:path call
# graph). Any diagnostic fails the gate; intentional exceptions carry
# //lint:ignore directives with a reason, in the source, where
# reviewers can see them.
go run ./cmd/ceer-lint

echo "== lint-escape cross-check"
# The compiler's escape analysis replayed against the hot-path call
# graph: any "escapes to heap" inside a //hot:path-reachable function
# fails (scripts/lint-escape.sh; CEER_SKIP_ESCAPE=1 skips).
./scripts/lint-escape.sh >/dev/null

echo "== calibration golden gate"
# The observe→predict→calibrate replay over the committed observation
# fixture must render its drift/refit report byte-identically to
# internal/ceer/testdata/calib_report_golden.txt, and two replays of
# the same log must agree byte-for-byte. Regenerate after intentional
# report changes with:
#   go test ./internal/ceer -run TestCalibrateGoldenReport -update-calib-golden
go test ./internal/ceer -count=1 \
    -run 'TestCalibrateGoldenReport|TestCalibrateDeterministicReplay' >/dev/null

echo "== paper-fidelity gate"
# The full experiment report (every paper figure, table and extension,
# default flags) is deterministic; it must match the committed
# experiments_report.txt byte for byte, so a refactor cannot drift a
# paper-level result unnoticed. Regenerate after an intentional change
# with:
#   go run ./cmd/ceer-experiments > experiments_report.txt
report=$(mktemp)
go run ./cmd/ceer-experiments 2>/dev/null >"${report}"
if ! cmp -s "${report}" experiments_report.txt; then
    echo "paper-fidelity gate FAILED: ceer-experiments output differs from experiments_report.txt:" >&2
    diff experiments_report.txt "${report}" | head -40 >&2 || true
    rm -f "${report}"
    exit 1
fi
rm -f "${report}"

echo "== chaos determinism gate"
# Campaigns under the canned fault spec must be byte-reproducible at
# any worker count and leave no residue in the trained models
# (scripts/chaos.sh).
./scripts/chaos.sh >/dev/null

echo "== live-daemon chaos suite"
# A daemon built with -tags chaosserve under real faults: kill -9
# mid-calibration replays the write-ahead journal to a byte-identical
# predictor, torn journal tails are trimmed on boot, corrupt reloads
# under prediction load answer 422 with zero 5xx and an unchanged
# generation, and injected handler panics degrade then heal the daemon
# (scripts/chaos-serve.sh; CEER_SKIP_CHAOS_SERVE=1 skips).
if [[ "${CEER_SKIP_CHAOS_SERVE:-}" != "1" ]]; then
    ./scripts/chaos-serve.sh >/dev/null
fi

echo "== serving-path bench regression gate"
# A moderate-depth bench run (enough iterations to average out timer
# noise) written to a scratch file and gated against the committed
# BENCH_predict.json: >20% ns/op or any allocs/op regression fails
# (see scripts/bench.sh).
BENCH_COUNT=2 BENCH_TIME=500x BENCH_OUT="$(mktemp)" ./scripts/bench.sh >/dev/null

echo "== serve daemon bench regression gate"
# The daemon's hot-path benches gated against the committed
# BENCH_serve.json. Only the zero-alloc handler benches gate here, at
# the compiled batch and off it (the loadgen benches measure wall-clock
# percentiles and are recorded, not gated, by `make bench-serve`). Any
# allocs/op above the committed baseline of 0 fails — the
# zero-allocation contract of DESIGN.md §13.
BENCH_COUNT=2 BENCH_TIME=500x BENCH_PKG=./internal/serve \
    BENCH_REGEX='ServePredict(OffBatch)?$|ServeRecommend(OffBatch)?$|ServeEncodePredict$' \
    BENCH_BASELINE=BENCH_serve.json BENCH_OUT="$(mktemp)" \
    ./scripts/bench.sh >/dev/null

echo "== serve daemon smoke"
# Boots `ceer serve` on an ephemeral port, hits all five endpoints,
# byte-compares the daemon's /v1/predict body against `ceer predict
# -json`, hot-reloads, and drains (scripts/serve-smoke.sh).
./scripts/serve-smoke.sh >/dev/null

echo "check: OK"
