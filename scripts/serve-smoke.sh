#!/usr/bin/env bash
# End-to-end smoke test of the serving daemon (`ceer serve`): boots the
# daemon on an ephemeral port against a freshly trained model file,
# hits every endpoint, byte-compares the daemon's /v1/predict body with
# `ceer predict -json` for the same query, at the compiled batch and
# off it (the CLI renders through the daemon's own encoder, so any
# divergence is a bug), exercises the hot-reload admin endpoint, and
# drains with SIGTERM.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    if [[ -n "${srv_pid:-}" ]] && kill -0 "${srv_pid}" 2>/dev/null; then
        kill -9 "${srv_pid}" 2>/dev/null || true
    fi
    rm -rf "${tmp}"
}
trap cleanup EXIT

echo "== serve smoke: build"
go build -o "${tmp}/ceer" ./cmd/ceer

echo "== serve smoke: train"
"${tmp}/ceer" train -out "${tmp}/models.json" -iters 25 -seed 1 >/dev/null

echo "== serve smoke: boot"
"${tmp}/ceer" serve -models "${tmp}/models.json" -addr 127.0.0.1:0 -warmup \
    >"${tmp}/serve.log" 2>&1 &
srv_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^ceer serve: listening on \([^ ]*\).*/\1/p' "${tmp}/serve.log")
    [[ -n "${addr}" ]] && break
    if ! kill -0 "${srv_pid}" 2>/dev/null; then
        echo "serve smoke FAILED: daemon exited during startup" >&2
        cat "${tmp}/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [[ -z "${addr}" ]]; then
    echo "serve smoke FAILED: daemon never reported its address" >&2
    cat "${tmp}/serve.log" >&2
    exit 1
fi
base="http://${addr}"
echo "   daemon at ${base}"

fetch() { # fetch <path-with-query> <outfile>
    curl -fsS --max-time 10 "${base}$1" -o "$2"
}

echo "== serve smoke: endpoints"
fetch "/healthz" "${tmp}/healthz.json"
grep -q '"status": *"healthy"' "${tmp}/healthz.json"

fetch "/v1/predict?model=resnet-50&config=2xP3" "${tmp}/predict.json"
grep -q '"predictions"' "${tmp}/predict.json"

fetch "/v1/recommend?model=resnet-50&objective=cost" "${tmp}/recommend.json"
grep -q '"best"' "${tmp}/recommend.json"

fetch "/v1/explain?model=resnet-50&gpu=v100&k=2" "${tmp}/explain.json"
grep -q '"contributions"' "${tmp}/explain.json"

# Explain off the compiled batch reads the same per-batch tables as
# predict and recommend.
fetch "/v1/explain?model=resnet-50&gpu=v100&k=2&batch=64" "${tmp}/explain64.json"
grep -q '"contributions"' "${tmp}/explain64.json"

fetch "/metrics" "${tmp}/metrics.json"
grep -q '"predict"' "${tmp}/metrics.json"

echo "== serve smoke: CLI/daemon byte equivalence"
"${tmp}/ceer" predict -json -models "${tmp}/models.json" \
    -model resnet-50 -config 2xP3 >"${tmp}/predict_cli.json"
if ! cmp -s "${tmp}/predict.json" "${tmp}/predict_cli.json"; then
    echo "serve smoke FAILED: daemon /v1/predict and 'ceer predict -json' diverge" >&2
    diff "${tmp}/predict.json" "${tmp}/predict_cli.json" >&2 || true
    exit 1
fi

# Off the compiled batch the daemon compiles tables for batch 64 on the
# first request; they must match the CLI's server compiled at 64.
fetch "/v1/predict?model=resnet-50&config=2xP3&batch=64" "${tmp}/predict64.json"
"${tmp}/ceer" predict -json -models "${tmp}/models.json" -batch 64 \
    -model resnet-50 -config 2xP3 >"${tmp}/predict64_cli.json"
if ! cmp -s "${tmp}/predict64.json" "${tmp}/predict64_cli.json"; then
    echo "serve smoke FAILED: daemon batch=64 /v1/predict and 'ceer predict -json -batch 64' diverge" >&2
    diff "${tmp}/predict64.json" "${tmp}/predict64_cli.json" >&2 || true
    exit 1
fi

echo "== serve smoke: rejected reload keeps the old generation"
cp "${tmp}/models.json" "${tmp}/models.good.json"
echo '{torn mid-write' >"${tmp}/models.json"
code=$(curl -sS --max-time 30 -X POST "${base}/admin/reload" \
    -o "${tmp}/reload_rejected.json" -w '%{http_code}')
if [[ "${code}" != "422" ]]; then
    echo "serve smoke FAILED: reload of a corrupt file answered ${code}, want 422" >&2
    cat "${tmp}/reload_rejected.json" >&2
    exit 1
fi
grep -q '"status": *"rejected"' "${tmp}/reload_rejected.json"
grep -q '"cause"' "${tmp}/reload_rejected.json"
fetch "/v1/predict?model=resnet-50&config=2xP3" "${tmp}/predict_rejected.json"
cmp -s "${tmp}/predict.json" "${tmp}/predict_rejected.json" || {
    echo "serve smoke FAILED: prediction changed after a rejected reload" >&2
    exit 1
}
fetch "/healthz" "${tmp}/healthz_rejected.json"
grep -q '"status": *"healthy"' "${tmp}/healthz_rejected.json"
cp "${tmp}/models.good.json" "${tmp}/models.json"

echo "== serve smoke: hot reload"
curl -fsS --max-time 10 -X POST "${base}/admin/reload" -o "${tmp}/reload.json"
grep -q '"generation": *1' "${tmp}/reload.json"
fetch "/v1/predict?model=resnet-50&config=2xP3" "${tmp}/predict_after.json"
cmp -s "${tmp}/predict.json" "${tmp}/predict_after.json" || {
    echo "serve smoke FAILED: prediction changed after reloading identical models" >&2
    exit 1
}

echo "== serve smoke: graceful drain"
kill -TERM "${srv_pid}"
for _ in $(seq 1 100); do
    kill -0 "${srv_pid}" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "${srv_pid}" 2>/dev/null; then
    echo "serve smoke FAILED: daemon did not drain within 10s" >&2
    exit 1
fi
wait "${srv_pid}" 2>/dev/null || true
grep -q "drained, bye" "${tmp}/serve.log"

echo "serve smoke: OK"
