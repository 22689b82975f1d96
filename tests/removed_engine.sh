#!/bin/sh
# The engines are direct and batched on every front end.  One case per
# check of the front ends that read flags or files (ServeService.* checks
# the wire); each case is the name of its ctest:
#
#   cli_shards_without_sharded   ssr_cli's flag mode: --shards is an
#                                unknown argument, exit 2 before any run
#   cli_sharded_zero_shards      ssr_cli's flag mode: --engine=sharded is
#                                the engine field's unknown-name error;
#                                with --shards (=0, or =100000 at n=1e5,
#                                the command that once aborted with
#                                std::bad_alloc) --shards is an unknown
#                                argument, exit 2 before any run
#   bench_shards_error           a bench: --shards is an unknown argument
#                                and --engine=sharded the engine error
#   cli_removed_engine_scenario  `ssr_cli run` on a scenario file:
#                                "engine": "sharded" is the same field
#                                error and "shards" an unknown scenario
#                                field, exit 2 and no bundle
#
#   removed_engine.sh <ssr_cli> <bench binary> <case>
#
# Exits non-zero on the first failed check.
set -eu

CLI=$1
BENCH=$2
CASE=$3

WORK=$(mktemp -d removed_engine.XXXXXX)
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT INT TERM

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# expect_error <line> <command...>: the command exits 2 and prints <line>
# on stderr.
expect_error() {
  line=$1
  shift
  status=0
  "$@" > "$WORK/out" 2> "$WORK/err" || status=$?
  [ "$status" -eq 2 ] || fail "'$*' exited $status, not 2"
  grep -qxF -- "$line" "$WORK/err" || {
    cat "$WORK/err" >&2
    fail "'$*' does not print '$line'"
  }
  echo "ok   $*"
}

engine_error="unknown engine 'sharded' (did you mean batched?)"

case $CASE in
cli_shards_without_sharded)
  expect_error "error: unknown argument '--shards' (did you mean --seed?)" \
    "$CLI" --protocol=optimal --n=8 --shards=2
  ;;
cli_sharded_zero_shards)
  expect_error "error: engine: $engine_error" \
    "$CLI" --protocol=optimal --n=8 --engine=sharded
  grep -qF -- "--engine=direct|batched" "$WORK/err" ||
    fail "ssr_cli's usage does not list --engine=direct|batched"
  expect_error "error: unknown argument '--shards' (did you mean --seed?)" \
    "$CLI" --protocol=optimal --n=8 --engine=sharded --shards=0
  expect_error "error: unknown argument '--shards' (did you mean --seed?)" \
    "$CLI" --protocol=baseline --n=100000 --engine=sharded --shards=100000 \
    --max-time=1
  ;;
bench_shards_error)
  expect_error "error: unknown argument '--shards' (did you mean --seed?)" \
    "$BENCH" --shards=2 --no-json
  expect_error "error: --engine: $engine_error" \
    "$BENCH" --engine=sharded --no-json
  ;;
cli_removed_engine_scenario)
  printf '%s\n' \
    '{"schema":"ssr.scenario","schema_version":1,"name":"gone",' \
    ' "protocol":"optimal","n":8,"engine":"sharded","shards":2}' \
    > "$WORK/gone.json"
  expect_error "  engine: $engine_error" \
    "$CLI" run "$WORK/gone.json" --out "$WORK/bundle"
  grep -qxF "  shards: unknown scenario field 'shards' (did you mean seed?)" \
    "$WORK/err" || fail "\"shards\" is not an unknown scenario field"
  [ ! -e "$WORK/bundle" ] || fail "the refused scenario wrote $WORK/bundle"
  ;;
*)
  fail "unknown case '$CASE'"
  ;;
esac
