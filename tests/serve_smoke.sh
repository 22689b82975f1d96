#!/bin/sh
# End-to-end serve smoke: boot the daemon on an ephemeral port, drive it
# with ssr_client (single run, concurrent sweep, cached replay, traced +
# profiled run, metrics scrape, 8-client hammer), check the cache actually
# served the replay, check the wire telemetry round trip (trace artifact
# byte-identical client/server, the traced job's run bundle verifies,
# trace_stats parses the trace, events.jsonl journal, metrics.prom
# snapshot), validate the emitted BENCH_SERVE.json, and shut down cleanly.
#
#   serve_smoke.sh <ssr_serve> <ssr_client> <report_trend> <ssr_cli> \
#                  [trace_stats]
#
# Run by ctest (serve_e2e) and by the CI serve leg; exits non-zero on the
# first failed step.  SERVE_SMOKE_OUT_DIR / SERVE_SMOKE_HISTORY_DIR, when
# set, redirect the hammer's BENCH_SERVE.json into the caller's report and
# bench-history directories (CI does this so report_trend gates the serve
# latency, cache-hit-rate, and telemetry-overhead rows); by default
# everything stays in a scratch directory that is removed on exit.
# SERVE_SMOKE_TELEMETRY_DIR, when set, keeps the daemon's telemetry
# directory (journal, per-job run bundles, metrics.prom) for upload.
set -eu

SERVE=$1
CLIENT=$2
REPORT_TREND=$3
SSR_CLI=$4
TRACE_STATS=${5:-}

WORK=$(mktemp -d serve_smoke.XXXXXX)
PORT_FILE=$WORK/port
DAEMON_LOG=$WORK/daemon.log
DAEMON_PID=

cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

TELEMETRY_DIR=${SERVE_SMOKE_TELEMETRY_DIR:-$WORK/telemetry}
"$SERVE" --port=0 --workers=4 --queue-depth=32 --cache=64 \
  --port-file="$PORT_FILE" \
  --telemetry-dir="$TELEMETRY_DIR" --stats-period-s=1 \
  >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!

# Wait (up to ~5s) for the daemon to publish its port.
tries=0
while [ ! -s "$PORT_FILE" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 50 ]; then
    echo "FAIL: daemon never wrote $PORT_FILE" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
  fi
  kill -0 "$DAEMON_PID" 2>/dev/null || {
    echo "FAIL: daemon exited early" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
  }
  sleep 0.1
done

echo "== ping"
"$CLIENT" --port-file="$PORT_FILE" --ping

echo "== single run"
"$CLIENT" --port-file="$PORT_FILE" --protocol=optimal --n=32 --trials=2 \
  --seed=7 >"$WORK/run1.json"
grep -q '"ok": true' "$WORK/run1.json"
grep -q '"cached": false' "$WORK/run1.json"

echo "== cached replay must be served from the cache, bit-identical"
"$CLIENT" --port-file="$PORT_FILE" --protocol=optimal --n=32 --trials=2 \
  --seed=7 >"$WORK/run2.json"
grep -q '"cached": true' "$WORK/run2.json"
# Strip the per-request envelope fields (cached flag, request id, and the
# executed job's bundle block, with the commas it leaves behind) and
# compare the rest -- the result payload must be bit-identical.
strip_envelope() {
  sed '/^  "bundle": {/,/^  }/d; s/"cached": [a-z]*//
       s/"request_id": "job-[0-9]*"//; s/,$//' "$1"
}
strip_envelope "$WORK/run1.json" >"$WORK/run1.stripped"
strip_envelope "$WORK/run2.json" >"$WORK/run2.stripped"
cmp "$WORK/run1.stripped" "$WORK/run2.stripped"

echo "== concurrent sweep fan-out"
"$CLIENT" --port-file="$PORT_FILE" --sweep-n=16,24,32 --trials=2 --seed=7

echo "== traced + profiled run, artifacts pulled client-side"
"$CLIENT" --port-file="$PORT_FILE" --protocol=optimal --n=32 --trials=2 \
  --seed=7 --trace-out="$WORK/trace.jsonl" \
  --profile-out="$WORK/profile.json" >"$WORK/run3.json"
grep -q '"ok": true' "$WORK/run3.json"
# Telemetry bypasses the cache lookup: the earlier identical spec is
# cached, but this request must execute to produce artifacts.
grep -q '"cached": false' "$WORK/run3.json"
grep -q '"request_id"' "$WORK/run3.json"
grep -q '"event":"trace_header"' "$WORK/trace.jsonl"
grep -q '"schema": "ssr.profile"' "$WORK/profile.json"

echo "== client trace matches the daemon's bundle byte for byte"
REQUEST_ID=$(sed -n 's/.*"request_id": "\(job-[0-9]*\)".*/\1/p' \
  "$WORK/run3.json" | head -n1)
cmp "$WORK/trace.jsonl" "$TELEMETRY_DIR/$REQUEST_ID/trace.jsonl"
test -s "$TELEMETRY_DIR/$REQUEST_ID/profile.json"

echo "== the traced job's run bundle verifies"
"$SSR_CLI" bundle verify "$TELEMETRY_DIR/$REQUEST_ID"

if [ -n "$TRACE_STATS" ]; then
  echo "== trace_stats parses the served trace unchanged"
  "$TRACE_STATS" "$WORK/trace.jsonl"
fi

echo "== events.jsonl journal recorded the job lifecycle"
grep -q '"event":"journal_header"' "$TELEMETRY_DIR/events.jsonl"
grep -q '"event":"admit"' "$TELEMETRY_DIR/events.jsonl"
grep -q '"event":"cache_hit"' "$TELEMETRY_DIR/events.jsonl"
grep -q "\"event\":\"complete\".*\"request_id\":\"$REQUEST_ID\"" \
  "$TELEMETRY_DIR/events.jsonl"

echo "== live metrics exposition scrapes"
"$CLIENT" --port-file="$PORT_FILE" --metrics >"$WORK/metrics.prom"
grep -q '# TYPE ssr_serve_jobs_completed counter' "$WORK/metrics.prom"
grep -q '# TYPE ssr_serve_cache_hit_rate gauge' "$WORK/metrics.prom"
grep -q 'ssr_serve_job_seconds{quantile="0.99"}' "$WORK/metrics.prom"

echo "== periodic metrics.prom snapshot appears"
tries=0
while [ ! -s "$TELEMETRY_DIR/metrics.prom" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 50 ]; then
    echo "FAIL: no metrics.prom snapshot after 5s" >&2
    exit 1
  fi
  sleep 0.1
done
grep -q 'ssr_serve_jobs_completed' "$TELEMETRY_DIR/metrics.prom"

echo "== hammer: 8 concurrent clients + telemetry overhead probe"
OUT_DIR=${SERVE_SMOKE_OUT_DIR:-$WORK/reports}
if [ -n "${SERVE_SMOKE_HISTORY_DIR:-}" ]; then
  "$CLIENT" --port-file="$PORT_FILE" --hammer=8 --requests=4 \
    --protocol=optimal --n=256 --trials=2 --seed=7 --overhead-probe=3 \
    --out-dir="$OUT_DIR" --history-dir="$SERVE_SMOKE_HISTORY_DIR"
else
  "$CLIENT" --port-file="$PORT_FILE" --hammer=8 --requests=4 \
    --protocol=optimal --n=256 --trials=2 --seed=7 --overhead-probe=3 \
    --out-dir="$OUT_DIR"
fi
"$REPORT_TREND" --validate "$OUT_DIR/BENCH_SERVE.json"
grep -q '"telemetry_overhead"' "$OUT_DIR/BENCH_SERVE.json"

echo "== stats: the cache must have served hits by now"
"$CLIENT" --port-file="$PORT_FILE" --stats --raw >"$WORK/stats.json"
grep -q '"hits"' "$WORK/stats.json"
if grep -q '"hits": 0,' "$WORK/stats.json"; then
  echo "FAIL: cache never hit" >&2
  cat "$WORK/stats.json" >&2
  exit 1
fi
# The default (pretty) stats rendering carries the same sections.
"$CLIENT" --port-file="$PORT_FILE" --stats | grep -q 'hit_rate:'

echo "== graceful shutdown drains"
"$CLIENT" --port-file="$PORT_FILE" --shutdown
wait "$DAEMON_PID"
DAEMON_PID=
grep -q "drained; bye" "$DAEMON_LOG"

echo "serve smoke: PASS"
