// Shared measurement plumbing for the experiment binaries (DESIGN.md §3).
//
// Every experiment measures stabilization times over many seeded trials and
// prints paper-style rows; the helpers here own the repetitive parts:
// per-protocol trial helpers, summary formatting, a banner that ties
// each binary back to the table/figure it reproduces, and the --engine
// flag every bench accepts.
//
// The trial helpers run trials the way `ssr_cli run` does: each trial is
// the runner's trial recipe (serve/trial_recipe.hpp: the protocol, a start
// configuration drawn from the trial seed, the salted engine seed) run by
// serve::run_trial, through the one run_trials (pp/trial.hpp).  A bench's
// own inputs are set on the recipe's fields: E1's and E2's confirmation
// windows, E5's lower-bound start.  A trial that does not converge throws
// the recipe's failure text.
//
// Engine selection (pp/engine.hpp): each trial helper takes an engine_spec.
// `direct` steps every interaction, except for the Protocol 1 baseline
// whose "direct" path has always been the protocol-specialized exact jump
// simulator (accelerated_silent_n_state, run by serve::run_trial) -- truly
// direct stepping of a Theta(n^2)-time protocol is Theta(n^3) interactions
// and infeasible at bench sizes.  `batched` routes through the
// unified batched engine, which is distribution-equivalent
// (tests/engine_equivalence_test.cpp) and the only way to the n >= 10^6
// regime; bench_engine_scaling quantifies the gap.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/statistics.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"

namespace ssr::bench {

/// Prints the experiment banner: id, paper artifact, and what is measured.
void banner(const std::string& experiment, const std::string& artifact,
            const std::string& claim);

/// The uniform bench command line (parse_bench_args):
///
///   --engine=direct|batched   engine selection (default direct)
///   --trials=N                override every row's trial count
///   --seed=S                  override every row's base seed
///   --out-dir=DIR             where BENCH_<id>.json is written (default .)
///   --no-json                 skip the JSON artifact
///   --history-dir=DIR         also append the report under
///                             DIR/<git_rev>/ for report_trend
///   --progress                periodic heartbeat (trials done, rate, ETA)
///                             on stderr during every run_trials sweep
///   --profile                 hierarchical section profiling: hardware
///                             counters when available (wall time always),
///                             a PROFILE_<id>.folded flamegraph next to the
///                             JSON artifact, a "profile" block in it
///                             (schema 2.1), and derived
///                             instructions/cycles-per-interaction rows.
///                             Forces sequential trials (parallel_for_index).
///
/// Trial counts and seeds are per-row constants chosen by each bench, so
/// the overrides are optional: row code asks args.trials_or(default) /
/// args.seed_or(default).
struct bench_args {
  engine_spec engine = engine_kind::direct;
  std::optional<std::uint64_t> trials;
  std::optional<std::uint64_t> seed;
  std::string out_dir;
  std::string history_dir;
  bool write_json = true;
  bool profile = false;
  std::string binary;             // argv[0] basename, for the report
  std::vector<std::string> argv;  // original arguments, for the report

  std::size_t trials_or(std::size_t default_trials) const {
    return trials ? static_cast<std::size_t>(*trials) : default_trials;
  }
  std::uint64_t seed_or(std::uint64_t default_seed) const {
    return seed ? *seed : default_seed;
  }
};

/// Parses the uniform flags above, prints the engine choice, and rejects
/// unknown arguments with the offending flag named and the nearest valid
/// flag suggested.  Every bench main routes its argv through this so the
/// sweep driver can flip engines / trial counts / output uniformly.
bench_args parse_bench_args(int argc, char** argv);

/// Collects rows and metrics during a bench run and emits the machine-
/// readable artifact next to the human tables: finish() stamps git rev,
/// wall time and the metrics snapshot into a versioned bench_report
/// (obs/report.hpp) and writes <out_dir>/BENCH_<experiment>.json unless
/// --no-json was given.
class reporter {
 public:
  reporter(const bench_args& args, std::string experiment,
           std::string title);

  /// Adds a per-trial sample row (stabilization times etc.).
  obs::report_row& add_samples(std::string section, std::string protocol,
                               std::uint64_t n, std::string params,
                               std::uint64_t trials, std::uint64_t seed,
                               std::string unit, std::vector<double> samples);
  /// Adds a single derived value row (rates etc.).
  obs::report_row& add_value(std::string section, std::string metric,
                             std::string protocol, std::uint64_t n,
                             std::string params, double value,
                             std::string unit, bool higher_is_better = true);

  /// Registry for this run, snapshotted into the report by finish().  A
  /// bench that calls run_trials itself lands its trial accounting here
  /// with {.metrics = &metrics()}; engine counters land here through
  /// absorb().
  obs::metrics_registry& metrics() { return metrics_; }

  /// Non-null while --profile is active (between construction and
  /// finish()); also installed as the process default profiler.
  obs::timeline_profiler* profiler() {
    return profiler_.has_value() ? &*profiler_ : nullptr;
  }

  /// Writes the artifact (prints the path) and returns the path, or ""
  /// when JSON output is disabled or the write failed (failure also prints
  /// a warning).  With --history-dir the report is additionally written
  /// under <history_dir>/<git_rev>/, the layout report_trend consumes.
  /// Idempotent: later calls rewrite the same file(s).
  std::string finish();

 private:
  bench_args args_;
  obs::bench_report report_;
  obs::metrics_registry metrics_;
  std::chrono::steady_clock::time_point start_;
  // --profile state: a counter group (gracefully degraded where perf is
  // restricted), the section collector rooted at "bench", and the root id
  // so finish() can close it.  Construction installs the profiler as the
  // process default; finish() uninstalls and finalizes it.
  std::optional<obs::perf_counter_group> perf_;
  std::optional<obs::timeline_profiler> profiler_;
  std::uint32_t root_section_ = 0;
};

/// Stabilization times (parallel) of the baseline from uniform random
/// configurations.
std::vector<double> baseline_times(std::uint32_t n, std::size_t trials,
                                   std::uint64_t seed,
                                   engine_spec engine = engine_kind::direct);

/// Stabilization times of the baseline from the paper's Omega(n^2)
/// lower-bound configuration.
std::vector<double> baseline_lower_bound_times(
    std::uint32_t n, std::size_t trials, std::uint64_t seed,
    engine_spec engine = engine_kind::direct);

/// Convergence times of Optimal-Silent-SSR from a scenario.
std::vector<double> optimal_silent_times(
    std::uint32_t n, std::size_t trials, std::uint64_t seed,
    optimal_silent_scenario scenario,
    engine_spec engine = engine_kind::direct);

/// Convergence times of Sublinear-Time-SSR from a scenario.  `confirm` is
/// the extra parallel time correctness must hold (the protocol is
/// non-silent); it replaces the recipe's window.
/// `parallel` controls multi-threaded trials: large-(n, H) history trees
/// need hundreds of MB per live simulation, so big points run sequentially.
std::vector<double> sublinear_times(std::uint32_t n, std::uint32_t h,
                                    std::size_t trials, std::uint64_t seed,
                                    sublinear_scenario scenario,
                                    double confirm, bool parallel = true,
                                    engine_spec engine = engine_kind::direct);

/// Detection latency of Sublinear-Time-SSR: parallel time from the
/// single_collision configuration until any agent triggers a reset.  This
/// isolates Detect-Name-Collision from the (constant-heavy) reset and
/// re-ranking phases; Section 5.2 predicts Theta(H * n^{1/(H+1)}).
std::vector<double> detection_latencies(
    std::uint32_t n, std::uint32_t h, std::size_t trials, std::uint64_t seed,
    bool parallel = true, engine_spec engine = engine_kind::direct);

/// "mean ± ci  p90  p99" cells for a sample.
std::vector<std::string> time_cells(const summary& s);

}  // namespace ssr::bench
