#!/bin/sh
# Checks on ssr_cli's flag mode (`ssr_cli --protocol=...`), one per case:
#
#   same-answer  the flag mode's --json parallel_time equals samples[0] of
#                the run.json `ssr_cli run` writes for the one-trial
#                scenario with the same fields, and both exit 0 iff the
#                trial converged (baseline on direct is the exception:
#                `ssr_cli run` uses the exact jump simulator there)
#   observers    --trace-out, --profile and --json leave the `stabilized
#                at` line unchanged
#   large-n      optimal at n=1e6 with --max-time=1 exits 1 with "did NOT
#                stabilize" on direct, batched and sharded(2)
#   bad-values   malformed or out-of-range flag values are usage errors:
#                exit 2 with the flag named
#
#   cli_flag_mode.sh <ssr_cli> <case>
#
# Run by ctest (cli_flag_mode_*); exits non-zero on the first failed check.
set -eu

CLI=$1
CASE=$2

WORK=$(mktemp -d cli_flag_mode.XXXXXX)
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT INT TERM

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# The value of the one-line JSON field "$2" in file $1.
json_field() {
  sed -n "s/^ *\"$2\": \\(.*\\),\$/\\1/p" "$1" | head -n 1
}

# The first sample of a run.json.
first_sample() {
  sed -n '/"samples": \[/{n;s/^ *\([^ ,]*\),*$/\1/p;}' "$1"
}

# same_answer <name> <scenario fields as JSON> <flag-mode flags...>
same_answer() {
  name=$1
  fields=$2
  shift 2
  printf '{"schema":"ssr.scenario","schema_version":1,"name":"%s",%s,"trials":1}\n' \
    "$name" "$fields" > "$WORK/$name.json"
  run_status=0
  "$CLI" run "$WORK/$name.json" --out "$WORK/$name.bundle" \
    > /dev/null 2>&1 || run_status=$?
  flag_status=0
  "$CLI" "$@" --json="$WORK/$name.summary.json" \
    > "$WORK/$name.out" 2>&1 || flag_status=$?
  if [ "$run_status" -eq 0 ]; then
    [ "$flag_status" -eq 0 ] ||
      fail "$name: ssr_cli run converged, the flag mode exited $flag_status"
    sample=$(first_sample "$WORK/$name.bundle/run.json")
    time=$(json_field "$WORK/$name.summary.json" parallel_time)
    [ -n "$sample" ] && [ "$sample" = "$time" ] ||
      fail "$name: flag mode parallel_time '$time' != samples[0] '$sample'"
    echo "ok   $name: $time"
  else
    [ "$flag_status" -eq 1 ] ||
      fail "$name: ssr_cli run failed, the flag mode exited $flag_status"
    grep -q "did NOT stabilize" "$WORK/$name.out" ||
      fail "$name: no 'did NOT stabilize' line"
    echo "ok   $name: neither converged"
  fi
}

# The `stabilized at` line of one flag-mode run.
stabilized_line() {
  "$CLI" "$@" > "$WORK/observed.out" 2>&1 ||
    fail "$* exited non-zero"
  grep "stabilized at" "$WORK/observed.out"
}

case $CASE in
same-answer)
  for engine in direct batched; do
    if [ "$engine" = batched ]; then
      same_answer "baseline_$engine" \
        "\"protocol\":\"baseline\",\"n\":12,\"seed\":5,\"engine\":\"$engine\"" \
        --protocol=baseline --n=12 --seed=5 --engine=$engine
    fi
    same_answer "optimal_$engine" \
      "\"protocol\":\"optimal\",\"scenario\":\"no_leader\",\"n\":24,\"seed\":3,\"engine\":\"$engine\"" \
      --protocol=optimal --scenario=no_leader --n=24 --seed=3 --engine=$engine
    same_answer "optimal_uniform_$engine" \
      "\"protocol\":\"optimal\",\"n\":200,\"seed\":8,\"engine\":\"$engine\"" \
      --protocol=optimal --n=200 --seed=8 --engine=$engine
    same_answer "sublinear_$engine" \
      "\"protocol\":\"sublinear\",\"scenario\":\"single_collision\",\"n\":8,\"h\":2,\"seed\":7,\"engine\":\"$engine\"" \
      --protocol=sublinear --scenario=single_collision --n=8 --h=2 --seed=7 \
      --engine=$engine
    same_answer "sublinear_uniform_$engine" \
      "\"protocol\":\"sublinear\",\"n\":16,\"seed\":2,\"engine\":\"$engine\"" \
      --protocol=sublinear --n=16 --seed=2 --engine=$engine
    same_answer "loose_$engine" \
      "\"protocol\":\"loose\",\"scenario\":\"dead_configuration\",\"n\":32,\"seed\":9,\"engine\":\"$engine\"" \
      --protocol=loose --n=32 --seed=9 --engine=$engine
    same_answer "loose_tmax_$engine" \
      "\"protocol\":\"loose\",\"scenario\":\"dead_configuration\",\"n\":64,\"t_max\":12,\"seed\":5,\"engine\":\"$engine\"" \
      --protocol=loose --n=64 --t-max=12 --seed=5 --engine=$engine
    same_answer "optimal_short_$engine" \
      "\"protocol\":\"optimal\",\"scenario\":\"no_leader\",\"n\":24,\"seed\":3,\"max_time\":1,\"engine\":\"$engine\"" \
      --protocol=optimal --scenario=no_leader --n=24 --seed=3 --max-time=1 \
      --engine=$engine
  done
  ;;
observers)
  # --profile falls back to wall time only, wherever the host allows perf.
  export SSR_PERF_DISABLE=1
  for flags in \
      "--protocol=optimal --n=24 --scenario=no_leader --seed=3" \
      "--protocol=optimal --n=24 --scenario=no_leader --seed=3 --engine=batched" \
      "--protocol=baseline --n=12 --seed=5" \
      "--protocol=sublinear --n=8 --h=2 --scenario=single_collision --seed=7 --engine=batched" \
      "--protocol=loose --n=32 --seed=9 --engine=sharded --shards=2"; do
    # Word splitting of $flags is intended.
    # shellcheck disable=SC2086
    plain=$(stabilized_line $flags)
    # shellcheck disable=SC2086
    for observed in \
        "$(stabilized_line $flags --trace-out="$WORK/run.jsonl")" \
        "$(stabilized_line $flags --profile)" \
        "$(stabilized_line $flags --json="$WORK/run.json")"; do
      [ "$observed" = "$plain" ] ||
        fail "$flags: '$observed' != '$plain'"
    done
    echo "ok   $flags: $plain"
  done
  ;;
large-n)
  for engine in direct batched "sharded --shards=2"; do
    status=0
    # shellcheck disable=SC2086
    "$CLI" --protocol=optimal --n=1000000 --max-time=1 --engine=$engine \
      > "$WORK/large.out" 2>&1 || status=$?
    [ "$status" -eq 1 ] || fail "n=1e6 on $engine exited $status"
    grep -q "did NOT stabilize" "$WORK/large.out" ||
      fail "n=1e6 on $engine: no 'did NOT stabilize' line"
    echo "ok   n=1e6 on $engine"
  done
  ;;
bad-values)
  printf 'not a configuration\n' > "$WORK/bad.cfg"
  while read -r flag args; do
    status=0
    # shellcheck disable=SC2086
    "$CLI" $args > "$WORK/bad.out" 2>&1 || status=$?
    [ "$status" -eq 2 ] || fail "'$args' exited $status, not 2"
    grep -q -- "$flag" "$WORK/bad.out" || fail "'$args' does not name $flag"
    echo "ok   $args"
  done <<EOF
--trace-every --protocol=optimal --n=8 --trace-every=abc
--trace-every --protocol=optimal --n=8 --trace-every=-5
--graph-p --protocol=optimal --n=8 --graph=gnp --graph-p=x
--graph-p --protocol=optimal --n=8 --graph=gnp --graph-p=2
--trace-sample-every --protocol=optimal --n=8 --trace-sample-every=x
--trace-cap --protocol=optimal --n=8 --trace-cap=-1
--graph=ring --protocol=baseline --n=2 --graph=ring
graph --protocol=baseline --n=8 --graph=rign
--ks-alpha compare $WORK/none --against $WORK/none --ks-alpha=abc
--mean-tolerance compare $WORK/none --against $WORK/none --mean-tolerance=-1
$WORK/bad.cfg --protocol=optimal --n=8 --load=$WORK/bad.cfg
EOF
  ;;
*)
  fail "unknown case '$CASE'"
  ;;
esac
