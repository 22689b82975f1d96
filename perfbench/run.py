#!/usr/bin/env python3
"""Converged-trial benchmark: four fixed workloads through `ssr_cli run`.

    python3 perfbench/run.py --workload optimal-direct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload loose-batched --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke        # every workload at tiny n, < 1 s
    python3 perfbench/run.py --capture      # rewrite perfbench/reference/

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the library, ssr_cli and perf_layers) into
.bench_build/perfbench; later runs only re-check the build.

--trace 0 times `ssr_cli run <scenario.json> --out <fresh dir>` processes back
to back for --seconds and prints the end-to-end metrics.  --trace 1 runs the
same processes for a third of --seconds, then replays every trial of every
bundle through perf_layers, which times the library's layers one by one, and
prints the per-layer metrics.  Both modes check the outputs; README.md has the
metric definitions.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
SSR_CLI = os.path.join(BUILD_DIR, "ssr", "ssr_cli")
PERF_LAYERS = os.path.join(BUILD_DIR, "perf_layers")

# Each workload is one ssr.scenario v1 spec.  Every timed `ssr_cli run`
# process runs one trial, so its run.json counters and its journal give that
# trial's interactions and wall time exactly.  A run cycles over `distinct`
# scenario seeds (README.md, "Noise"): few on workloads whose trials all run
# at one rate but which other tenants of the host slow by up to 2x, so each
# trial runs often and its fastest run is the least disturbed; many on
# workloads whose rate differs from trial to trial, so a run averages over
# many trials.  optimal-direct is not in BENCHMARK.json: no choice steadied
# it on a shared host.
WORKLOADS = {
    "optimal-direct": {
        "spec": {"protocol": "optimal", "scenario": "uniform_random",
                 "n": 2000, "max_time": 1e7, "engine": "direct"},
        "distinct": 4, "smoke_n": 24,
    },
    "baseline-batched": {
        "spec": {"protocol": "baseline", "scenario": "uniform_random",
                 "n": 30000, "max_time": 1e11, "engine": "batched"},
        "distinct": 1000, "smoke_n": 24,
    },
    "loose-batched": {
        "spec": {"protocol": "loose", "scenario": "dead_configuration",
                 "n": 700, "max_time": 1e7, "engine": "batched"},
        "distinct": 4, "smoke_n": 24,
    },
    "sublinear-direct": {
        "spec": {"protocol": "sublinear", "scenario": "uniform_random",
                 "n": 512, "h": 1, "max_time": 1e7, "engine": "direct"},
        "distinct": 1000, "smoke_n": 16,
    },
}
# The reference run: one process of REFERENCE_TRIALS trials at
# REFERENCE_SEED.  Twelve trials a side let the two-sample KS test reach
# p < KS_ALPHA (it needs D >= 2/3); three or four never could.
REFERENCE_SEED = 7
REFERENCE_TRIALS = 12
KS_ALPHA = 0.01
# Seconds of one set-up timing window (perf_layers setup).
SETUP_WINDOW_S = 0.01
PROCESS_TIMEOUT_S = 120
# The end-to-end metrics BENCHMARK.json gates.  run_s, trial_s.p50,
# trial_s.tail, interactions_per_s.all and failed_trial_ratio are printed
# too, but not gated (README.md, "Metrics").
E2E_METRICS = {"interactions_per_s": "1/s", "setup_s": "s",
               "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources next to perfbench/ (src/ is "
                         "missing); run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs,
               "--target", "ssr_cli", "perf_layers"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


# --------------------------------------------------------------------------
# Scenarios and ssr_cli processes

def scenario_doc(workload, seed, trials=1, smoke=False):
    """The ssr.scenario v1 document of one ssr_cli run process."""
    config = WORKLOADS[workload]
    spec = dict(config["spec"])
    name = workload
    if smoke:
        spec["n"] = config["smoke_n"]
        name = "smoke-" + workload
    check_budget(spec)
    doc = {"schema": "ssr.scenario", "schema_version": 1, "name": name}
    doc.update(spec)
    doc.update({"trials": trials, "seed": seed})
    return doc


def check_budget(spec):
    """The spec validator accepts budgets whose interaction cap
    max_time * n overflows 64 bits; such a run fails at once with "did not
    converge" (README.md, "Known bugs")."""
    if spec["max_time"] * spec["n"] >= 2.0 ** 64:
        raise BenchError(f"max_time * n = {spec['max_time'] * spec['n']:g} "
                         f"must stay below 2^64")


def process_seed(workload, seed, index):
    """Scenario seed of the index-th process of a run with --seed `seed`."""
    return (seed << 16) + index % WORKLOADS[workload]["distinct"]


def fresh_dir(parent):
    """A new, empty directory: ssr_cli run appends to an existing
    events.jsonl, so a reused --out would mix two runs' trial timestamps."""
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    if os.listdir(path):
        raise BenchError(f"{path} is not empty")
    return path


def run_cli(args):
    proc = subprocess.run([SSR_CLI] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_process(doc, work_dir):
    """One `ssr_cli run` process, timed from launch to exit, plus the output
    check of its bundle.  Returns the process record."""
    base = fresh_dir(work_dir)
    scenario_path = os.path.join(base, "scenario.json")
    with open(scenario_path, "w") as f:
        json.dump(doc, f)
    out = os.path.join(base, "bundle")
    record = {"trials": doc["trials"], "seed": doc["seed"],
              "scenario": scenario_path, "out": out, "ok": False,
              "problem": None}
    with open(os.path.join(base, "cli.log"), "w") as cli_log:
        start = time.perf_counter()
        proc = subprocess.Popen([SSR_CLI, "run", scenario_path, "--out", out],
                                stdout=cli_log, stderr=cli_log)
        # wait4 rather than Popen.wait: its rusage is this process's own
        # peak RSS, where RUSAGE_CHILDREN would give the maximum so far.
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        record["wall_s"] = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        record["problem"] = f"ssr_cli run exited {proc.returncode}"
        return record
    record["problem"] = check_bundle(out, doc["trials"], record)
    record["ok"] = record["problem"] is None
    return record


def check_bundle(out, trials, record):
    """Output check of one bundle; returns None or a problem string.  Fills
    the record's trial walls, samples and engine counters."""
    code, text = run_cli(["bundle", "verify", out])
    if code != 0:
        return "bundle verify failed: " + text.strip()
    with open(os.path.join(out, "run.json")) as f:
        run_doc = json.load(f)
    samples = run_doc["result"]["samples"]
    if len(samples) != trials or not all(
            isinstance(s, (int, float)) and math.isfinite(s)
            for s in samples):
        return f"run.json holds {len(samples)} samples, not {trials} finite"
    stamps = []
    with open(os.path.join(out, "events.jsonl")) as f:
        for line in f:
            event = json.loads(line)
            if event["event"] in ("start", "progress"):
                stamps.append(event["ts_ms"])
    if len(stamps) != trials + 1:
        return f"events.jsonl has {len(stamps) - 1} trial marks, not {trials}"
    counters = run_doc["engine_counters"]
    record["samples"] = samples
    record["counters"] = counters
    record["trial_walls"] = [(b - a) / 1000.0
                             for a, b in zip(stamps, stamps[1:])]
    record["span_s"] = (stamps[-1] - stamps[0]) / 1000.0
    record["simulated"] = (counters["interactions_executed"]
                           + counters["certain_nulls_skipped"])
    return None


def ks_p_value(a, b):
    """Two-sided two-sample Kolmogorov-Smirnov p-value, computed as
    src/analysis/ks_test.cpp does (asymptotic, Stephens' correction)."""
    a, b = sorted(a), sorted(b)
    ia = ib = 0
    d = 0.0
    while ia < len(a) and ib < len(b):
        x = min(a[ia], b[ib])
        while ia < len(a) and a[ia] <= x:
            ia += 1
        while ib < len(b) and b[ib] <= x:
            ib += 1
        d = max(d, abs(ia / len(a) - ib / len(b)))
    ne = len(a) * len(b) / (len(a) + len(b))
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    if lam < 1e-8:
        return 1.0
    q = sum(2.0 * (-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
            for j in range(1, 101))
    return min(max(q, 0.0), 1.0)


def reference_check(workload, work_dir, smoke=False):
    """Runs the workload at the reference seed and gates it against the
    stored ssr.baseline: `ssr_cli compare` must pass, and unless the samples
    are identical, a two-sided KS test must not reject them (compare flags
    only a slowdown).  Returns (ok, samples_match, trials, detail)."""
    doc = scenario_doc(workload, REFERENCE_SEED, REFERENCE_TRIALS, smoke)
    record = run_process(doc, work_dir)
    if not record["ok"]:
        return False, False, doc["trials"], record["problem"]
    reference = os.path.join(REFERENCE_DIR, doc["name"] + ".json")
    code, text = run_cli(["compare", record["out"], "--against", reference])
    if code != 0:
        return False, False, doc["trials"], "compare failed: " + text.strip()
    with open(reference) as f:
        expected = json.load(f)["run"]["result"]["samples"]
    if record["samples"] == expected:
        return True, True, doc["trials"], ""
    p = ks_p_value(record["samples"], expected)
    if p < KS_ALPHA:
        return False, False, doc["trials"], (
            f"samples differ from the reference in distribution "
            f"(two-sided KS p = {p:.3g} < {KS_ALPHA})")
    return True, False, doc["trials"], ""


def check_repeat(record, records):
    """A trial is deterministic: a repeat of a scenario seed must give the
    samples its first good run gave."""
    if not record["ok"]:
        return
    for earlier in records:
        if earlier["ok"] and earlier["seed"] == record["seed"]:
            if earlier["samples"] != record["samples"]:
                record["ok"] = False
                record["problem"] = (f"seed {record['seed']} gave samples "
                                     f"{record['samples']}, earlier "
                                     f"{earlier['samples']}")
            return


def run_window(workload, seed, seconds, work_dir, smoke, between=None):
    """ssr_cli run processes back to back until `seconds` have passed (at
    least one).  `between` runs after each process, inside the window."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        doc = scenario_doc(workload,
                           process_seed(workload, seed, len(records)),
                           smoke=smoke)
        record = run_process(doc, work_dir)
        check_repeat(record, records)
        records.append(record)
        if between is not None:
            between(record)
        # Smoke runs five processes, so a four-seed cycle repeats one.
        if time.perf_counter() >= deadline and (
                not smoke or len(records) >= 5):
            return records


# --------------------------------------------------------------------------
# perf_layers

def perf_layers(args):
    """Runs perf_layers; returns its JSON document, with the process's
    launch-to-exit wall time under "process_wall_s"."""
    start = time.perf_counter()
    proc = subprocess.run([PERF_LAYERS] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("perf_layers " + " ".join(args) + ": "
                         + proc.stderr.strip())
    doc = json.loads(proc.stdout)
    doc["process_wall_s"] = time.perf_counter() - start
    return doc


def setup_window(record):
    """Seconds per trial set-up of the record's scenario, from one
    perf_layers timing window."""
    return perf_layers(["setup", record["scenario"],
                        str(SETUP_WINDOW_S)])["setup_s"]


# --------------------------------------------------------------------------
# Metrics

def tail_quantile(values):
    """(quantile, value) of the highest quantile with at least 10 values
    beyond it, or None below 20 values."""
    if len(values) < 20:
        return None
    return (len(values) - 10) / len(values), sorted(values)[-11]


def end_to_end(records, setups, attempted, failed):
    good = [r for r in records if r["ok"]]
    walls = [w for r in good for w in r["trial_walls"]]
    trial_wall = sum(walls)
    # Every timed process runs one trial; keep each trial's fastest run.  A
    # trial shorter than the journal's 1 ms tick (smoke sizes only) counts
    # as one tick.
    fastest, simulated = {}, {}
    for r in good:
        span = max(r["span_s"], 0.001)
        fastest[r["seed"]] = min(fastest.get(r["seed"], span), span)
        simulated[r["seed"]] = r["simulated"]
    values = {
        "interactions_per_s": (sum(simulated.values())
                               / sum(fastest.values())),
        "setup_s": min(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    tail = tail_quantile(walls)
    lines = [
        ("run_s", statistics.median(r["wall_s"] for r in good), "s",
         f"median of {len(good)} ssr_cli run processes"),
        ("trial_s.p50", statistics.median(walls), "s",
         f"{len(walls)} trials"),
        ("trial_s.tail", tail[1] if tail else None, "s",
         f"p{tail[0] * 100:.3g} of {len(walls)} trials" if tail
         else f"omitted: {len(walls)} trials, fewer than 20"),
        ("interactions_per_s", values["interactions_per_s"], "1/s",
         f"{len(fastest)} distinct trials in {len(good)} runs, each "
         f"trial's fastest run"),
        ("interactions_per_s.all", (sum(r["simulated"] for r in good)
                                    / trial_wall if trial_wall > 0 else 0.0),
         "1/s", f"every run: {trial_wall:.3f} s summed trial wall"),
        ("setup_s", values["setup_s"], "s",
         f"fastest of {len(setups)} timing windows"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB",
         "median over processes"),
        ("failed_trial_ratio", failed / attempted, "ratio",
         f"{failed}/{attempted}"),
    ]
    return values, lines


def count_trials(records, reference):
    attempted = sum(r["trials"] for r in records) + reference[2]
    failed = sum(r["trials"] for r in records if not r["ok"])
    if not reference[0]:
        failed += reference[2]
    return attempted, failed


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(records, traces, reference):
    """Per-trial means of the layer split; every trial's layers plus
    trial.unattributed_s sum to its ssr_cli wall time."""
    trials = []
    for record, trace in zip(records, traces):
        for wall, t in zip(record["trial_walls"], trace["trials"]):
            ok = t["replay_ok"]
            run_s = t["run_s"] if ok else 0.0
            harness = t["hooked_s"] - t["run_s"] if ok else 0.0
            sample = t["sample_s"] if ok else 0.0
            split = {
                "wall": wall, "config": t["config_s"], "build": t["build_s"],
                "run": run_s, "harness": harness, "sample": sample,
                "transition": run_s - sample, "ok": ok,
            }
            split["unattributed"] = (wall - split["config"] - split["build"]
                                     - run_s - harness)
            split.update({k: t[k] for k in (
                "executed", "skipped", "changed", "fenwick_updates",
                "geometric_draws", "batches_drawn")})
            trials.append(split)
    wall = mean(t["wall"] for t in trials)
    harness = mean(t["harness"] for t in trials)
    run_s = mean(t["run"] for t in trials)
    executed = mean(t["executed"] for t in trials)
    ok_trials = [t for t in trials if t["ok"]]
    metrics = {
        "tools.frontend_s": mean(r["wall_s"] - r["span_s"] for r in records),
        "obs.bundle_write_s": mean(t["bundle_write_s"] for t in traces),
        "protocols.config_s": mean(t["config"] for t in trials),
        "engine.build_s": mean(t["build"] for t in trials),
        "engine.run_s": run_s,
        "scheduler.sample_s": mean(t["sample"] for t in trials),
        "protocols.transition_s": mean(t["transition"] for t in trials),
        "protocols.state_bytes": traces[0]["state_bytes"],
        "harness.self_s": harness,
        "harness.share": harness / wall if wall else 0.0,
        "trial.wall_s": wall,
        "trial.unattributed_s": mean(t["unattributed"] for t in trials),
        "engine.executed": executed,
        "engine.skipped": mean(t["skipped"] for t in trials),
        "engine.executed_per_s": (
            sum(t["executed"] for t in ok_trials)
            / sum(t["run"] for t in ok_trials)
            if ok_trials and sum(t["run"] for t in ok_trials) > 0 else 0.0),
        "engine.changed_ratio": (mean(t["changed"] for t in trials) / executed
                                 if executed else 0.0),
        "engine.fenwick_updates": mean(t["fenwick_updates"] for t in trials),
        "engine.geometric_draws": mean(t["geometric_draws"] for t in trials),
        "engine.batches_drawn": mean(t["batches_drawn"] for t in trials),
        "layers.replay_ok_ratio": len(ok_trials) / len(trials),
        "trace.overhead_s": mean(t["process_wall_s"] - r["wall_s"]
                                 for r, t in zip(records, traces)),
        "check.samples_match": 1.0 if reference[1] else 0.0,
    }
    notes = []
    if len(ok_trials) < len(trials):
        notes.append(f"layer split unavailable for "
                     f"{len(trials) - len(ok_trials)} of {len(trials)} "
                     f"trials (replay diverged); their time is in "
                     f"trial.unattributed_s")
    return metrics, notes


PER_LAYER_UNITS = {
    "protocols.state_bytes": "bytes", "harness.share": "ratio",
    "engine.executed": "count", "engine.skipped": "count",
    "engine.executed_per_s": "1/s", "engine.changed_ratio": "ratio",
    "engine.fenwick_updates": "count", "engine.geometric_draws": "count",
    "engine.batches_drawn": "count", "layers.replay_ok_ratio": "ratio",
    "check.samples_match": "bool",
}


def unit_of(name):
    return PER_LAYER_UNITS.get(name, "s")


# --------------------------------------------------------------------------
# One benchmark run

def bench(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (result object, human-readable lines)."""
    work_dir = fresh_dir(RUNS_DIR)
    try:
        reference = reference_check(workload, work_dir, smoke)
        lines = [f"workload {workload}  seed {seed}  trace {trace}"
                 + ("  (smoke)" if smoke else "")]
        if not reference[0]:
            lines.append(f"  reference check FAILED: {reference[3]}")
        if trace:
            records = run_window(workload, seed, seconds / 3.0, work_dir,
                                 smoke)
            good, traces = [], []
            for record in records:
                if not record["ok"]:
                    continue
                try:
                    traces.append(perf_layers(
                        ["trace", record["out"], fresh_dir(work_dir)]))
                    good.append(record)
                except BenchError as e:
                    # The bundle disagrees with its replay: count its
                    # trials as failed.
                    record["ok"], record["problem"] = False, str(e)
            attempted, failed = count_trials(records, reference)
            if not good:
                return failure(lines, records, attempted, failed)
            metrics, notes = per_layer(good, traces, reference)
            for name, value in metrics.items():
                lines.append(f"  {name:24s} {value:<14.6g} {unit_of(name)}")
            lines.extend("  note: " + n for n in notes)
            units = {name: unit_of(name) for name in metrics}
        else:
            setups = []
            records = run_window(
                workload, seed, seconds, work_dir, smoke,
                between=lambda record: setups.append(setup_window(record)))
            attempted, failed = count_trials(records, reference)
            if not any(r["ok"] for r in records):
                return failure(lines, records, attempted, failed)
            metrics, table = end_to_end(records, setups, attempted, failed)
            for name, value, unit, detail in table:
                shown = "-" if value is None else f"{value:.6g}"
                lines.append(f"  {name:20s} {shown:<14s} {unit:6s} "
                             f"({detail})")
            units = E2E_METRICS
        lines.append(f"  samples_match        "
                     f"{'yes' if reference[1] else 'no'} (reference seed "
                     f"{REFERENCE_SEED}; when no, trial_s.* compare a "
                     f"resample and interactions_per_s is the metric to "
                     f"read)")
        for r in records:
            if not r["ok"]:
                lines.append(f"  FAILED process: {r['problem']}")
        result = {
            "correct": reference[0] and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }
        return result, lines
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def failure(lines, records, attempted, failed):
    for r in records:
        lines.append(f"  FAILED process: {r['problem']}")
    return {"correct": False, "attempted": attempted, "failed": failed,
            "metrics": {}}, lines


# --------------------------------------------------------------------------
# Maintenance modes

def capture():
    """Rewrites perfbench/reference/ from the current build: one
    ssr.baseline per workload at the reference seed, full size and smoke."""
    work_dir = fresh_dir(RUNS_DIR)
    try:
        for smoke in (False, True):
            for workload in WORKLOADS:
                doc = scenario_doc(workload, REFERENCE_SEED,
                                   REFERENCE_TRIALS, smoke)
                record = run_process(doc, work_dir)
                if not record["ok"]:
                    raise BenchError(f"{doc['name']}: {record['problem']}")
                code, text = run_cli(["baseline", "capture", record["out"],
                                      "--baselines", REFERENCE_DIR])
                if code != 0:
                    raise BenchError(text)
                log(text.strip())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def smoke():
    """Every workload at tiny n through both modes, checked against the
    metric lists of BENCHMARK.json, plus the budget guard."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    expected = {trace: {m["name"]: m["unit"] for m in declared[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = bench(workload, 1, 0.0, trace, smoke=True)
            log("\n".join(lines))
            metrics = {name: m["unit"] for name, m in
                       result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: check failed")
            elif metrics != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics and "
                                f"units differ from BENCHMARK.json")
            elif not all(math.isfinite(m["value"])
                         for m in result["metrics"].values()):
                problems.append(f"{workload} trace {trace}: non-finite")
    try:
        check_budget({"max_time": 1e15, "n": 30000})
        problems.append("max_time * n >= 2^64 was not rejected")
    except BenchError:
        pass
    for problem in problems:
        log("SMOKE FAILED: " + problem)
    log("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--capture", action="store_true")
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2^32)")
    if args.workload is None and not (args.smoke or args.capture):
        parser.error("--workload is required")
    try:
        build()
        if args.smoke:
            return smoke()
        if args.capture:
            capture()
            return 0
        result, lines = bench(args.workload, args.seed, args.seconds,
                              args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
