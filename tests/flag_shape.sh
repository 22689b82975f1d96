#!/bin/sh
# Every front end names a known flag typed in the wrong shape: a value flag
# without "=value" gets "<flag> needs a value (<flag>=...)", a switch given a
# value gets "<flag> takes no value", and both exit 2 without suggesting the
# flag itself.  ssr_serve runs under timeout, so a regression that starts
# listening fails the check instead of hanging it.
#
#   flag_shape.sh <ssr_cli> <ssr_serve> <ssr_client> <protocol_lint> \
#                 <report_trend> <trace_stats> <bench_dir>
#
# <bench_dir> holds only bench binaries (build/bench/); every one goes
# through the shared bench flag parser.
set -u

CLI=$1
SERVE=$2
CLIENT=$3
LINT=$4
TREND=$5
STATS=$6
BENCH_DIR=$7

ERR=flag_shape.err
failed=0
check() {
  want=$1
  shift
  timeout 10 "$@" >/dev/null 2>"$ERR"
  status=$?
  if [ "$status" -ne 2 ] || ! grep -qF -- "$want" "$ERR" ||
     grep -q 'did you mean' "$ERR"; then
    echo "FAIL (exit $status): $*"
    cat "$ERR"
    failed=1
  fi
}

check '--protocol needs a value (--protocol=...)' "$CLI" --protocol optimal
check '--show-agents takes no value' "$CLI" --show-agents=1
check '--workers needs a value (--workers=...)' "$SERVE" --workers 2
check '--port needs a value (--port=...)' "$CLIENT" --port 7
check '--raw takes no value' "$CLIENT" --raw=1
check '--json needs a value (--json=...)' "$LINT" --json x
check '--strict takes no value' "$LINT" --strict=1
check '--out needs a value (--out=...)' "$TREND" --out x
check '--markdown takes no value' "$TREND" --markdown=1
check '--format needs a value (--format=...)' "$STATS" --format json
for bench in "$BENCH_DIR"/bench_*; do
  check '--trials needs a value (--trials=...)' "$bench" --trials 2
  check '--no-json takes no value' "$bench" --no-json=1
done
exit $failed
