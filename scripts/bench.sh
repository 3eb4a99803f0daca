#!/usr/bin/env bash
# Serving-path benchmark runner (see DESIGN.md "Serving-path
# performance"): runs the predict/recommend benches with -benchmem,
# writes the headline numbers to BENCH_predict.json, and gates fresh
# results against the committed baseline (fail on a >20% ns/op
# regression or any allocs/op increase).
#
# Environment overrides:
#   BENCH_COUNT     repetitions per bench (default 3; smoke runs use 1)
#   BENCH_TIME      -benchtime value (default 100x; e.g. 2s, 500x)
#   BENCH_PKG       package to benchmark (default .; the serve daemon
#                   suite uses ./internal/serve)
#   BENCH_REGEX     -bench selector (default: the predict/recommend
#                   serving-path benches)
#   BENCH_OUT       output JSON path (default BENCH_predict.json)
#   BENCH_BASELINE  committed baseline to gate against (default
#                   BENCH_predict.json; the gate is skipped when the
#                   baseline is missing or is the output file itself,
#                   i.e. when regenerating the baseline)
#   BENCH_GATE      set to 0 to skip the regression gate
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-3}"
TIME="${BENCH_TIME:-100x}"
PKG="${BENCH_PKG:-.}"
REGEX="${BENCH_REGEX:-PredictIteration(Unfolded|Compiled)|CompileZoo|RecommendSweep}"
OUT="${BENCH_OUT:-BENCH_predict.json}"
BASELINE="${BENCH_BASELINE:-BENCH_predict.json}"
GATE="${BENCH_GATE:-1}"

echo "== serving-path benches (pkg=${PKG}, count=${COUNT}, benchtime=${TIME})"
raw=$(go test -run '^$' \
    -bench "${REGEX}" \
    -benchmem -count "${COUNT}" -benchtime "${TIME}" "${PKG}" | tee /dev/stderr)

# Fold the repeated runs into one JSON document: ns/op and custom
# metrics are averaged across -count repetitions, B/op and allocs/op
# taken verbatim from the last run (they are deterministic).
echo "${raw}" | awk -v out="${OUT}" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip the GOMAXPROCS suffix
    ns[name] += $3; runs[name]++
    # Fields: name iters ns "ns/op" [value unit]...
    for (i = 5; i < NF; i += 2) {
        v = $i; unit = $(i + 1)
        if (unit == "B/op")           { bop[name] = v }
        else if (unit == "allocs/op") { aop[name] = v }
        else { metric[name "|" unit] += v; mruns[name "|" unit]++ }
    }
    if (!(name in order)) { order[name] = ++n; names[n] = name }
}
END {
    printf "{\n" > out
    for (j = 1; j <= n; j++) {
        name = names[j]
        printf "  \"%s\": {\n", name >> out
        printf "    \"ns_per_op\": %.1f,\n", ns[name] / runs[name] >> out
        printf "    \"bytes_per_op\": %d,\n", bop[name] >> out
        printf "    \"allocs_per_op\": %d", aop[name] >> out
        for (key in metric) {
            split(key, kv, "|")
            if (kv[1] == name) {
                m = kv[2]
                gsub(/[^A-Za-z0-9._-]/, "_", m)
                printf ",\n    \"%s\": %.4f", m, metric[key] / mruns[key] >> out
            }
        }
        printf "\n  }%s\n", (j < n ? "," : "") >> out
    }
    printf "}\n" >> out
}
'
echo "== wrote ${OUT}"

# Regression gate: compare the fresh numbers against the committed
# baseline. A benchmark regresses when its ns/op grows by more than 20%
# or its allocs/op grows at all; benchmarks absent from the baseline
# (newly added) pass. Skipped when regenerating the baseline in place.
if [[ "${GATE}" != "1" ]]; then
    echo "== regression gate skipped (BENCH_GATE=${GATE})"
elif [[ ! -f "${BASELINE}" ]]; then
    echo "== regression gate skipped (no baseline ${BASELINE})"
elif [[ "$(cd "$(dirname "${OUT}")" && pwd)/$(basename "${OUT}")" == \
        "$(cd "$(dirname "${BASELINE}")" && pwd)/$(basename "${BASELINE}")" ]]; then
    echo "== regression gate skipped (regenerating baseline ${BASELINE} in place)"
else
    echo "== regression gate: ${OUT} vs baseline ${BASELINE}"
    awk -v fresh="${OUT}" -v base="${BASELINE}" '
    function load(path, ns, aop,    name, key, val) {
        name = ""
        while ((getline line < path) > 0) {
            if (match(line, /^  "[^"]+": \{/)) {
                name = line
                sub(/^  "/, "", name); sub(/": \{.*/, "", name)
            } else if (match(line, /^    "(ns_per_op|allocs_per_op)": /)) {
                key = line
                sub(/^    "/, "", key); sub(/":.*/, "", key)
                val = line
                sub(/^[^:]*: /, "", val); sub(/,$/, "", val)
                if (key == "ns_per_op")     { ns[name]  = val + 0 }
                if (key == "allocs_per_op") { aop[name] = val + 0 }
            }
        }
        close(path)
    }
    BEGIN {
        load(fresh, fns, faop)
        load(base,  bns, baop)
        bad = 0
        for (name in fns) {
            if (!(name in bns)) {
                printf "   new  %-34s %.0f ns/op, %d allocs/op (no baseline)\n", \
                    name, fns[name], faop[name]
                continue
            }
            nsfail = (fns[name] > bns[name] * 1.20)
            aopfail = (faop[name] > baop[name])
            verdict = (nsfail || aopfail) ? "FAIL" : "ok"
            printf "   %-4s %-34s ns/op %.0f -> %.0f (%+.1f%%), allocs/op %d -> %d\n", \
                verdict, name, bns[name], fns[name], \
                (fns[name] / bns[name] - 1) * 100, baop[name], faop[name]
            if (nsfail) {
                printf "        ns/op regressed more than 20%% over the baseline\n"
                bad = 1
            }
            if (aopfail) {
                printf "        allocs/op regressed (any increase fails)\n"
                bad = 1
            }
        }
        exit bad
    }' || { echo "== BENCH REGRESSION: see above (baseline ${BASELINE})"; exit 1; }
    echo "== regression gate passed"
fi
