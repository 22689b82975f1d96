#include "common.hpp"

#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "analysis/table.hpp"
#include "obs/progress.hpp"
#include "pp/convergence.hpp"
#include "pp/trial.hpp"
#include "protocols/silent_n_state.hpp"
#include "serve/trial_recipe.hpp"
#include "util/edit_distance.hpp"
#include "util/flag_shape.hpp"
#include "util/request_spec.hpp"

namespace ssr::bench {
namespace {

constexpr std::string_view bench_flags[] = {
    "--engine",      "--trials",   "--seed",    "--out-dir", "--no-json",
    "--history-dir", "--progress", "--profile",
};
constexpr std::string_view bench_switches[] = {"--no-json", "--progress",
                                               "--profile"};

[[noreturn]] void reject_flag(std::string_view arg) {
  const std::string shape = flag_shape_error(arg, bench_flags, bench_switches);
  if (!shape.empty()) {
    std::cerr << "error: " << shape;
  } else {
    const std::string_view name = arg.substr(0, arg.find('='));
    std::cerr << "error: unknown argument '" << name << "'";
    const std::string_view suggestion = nearest_candidate(name, bench_flags);
    if (!suggestion.empty())
      std::cerr << " (did you mean " << suggestion << "?)";
  }
  std::cerr << "\nbenches accept --engine=direct|batched --trials=N"
               " --seed=S --out-dir=DIR --no-json --history-dir=DIR"
               " --progress --profile\n";
  std::exit(2);
}

// Runs the spec.trials trials of the recipe `spec` names through the
// runner's trial function, as `ssr_cli run` would.  `confirm`, when given,
// replaces the recipe's confirmation window.
std::vector<double> recipe_times(const util::sim_request_spec& spec,
                                 bool parallel = true,
                                 std::optional<double> confirm = {}) {
  const convergence_options opt{.max_parallel_time = spec.max_time};
  return run_trials(
      static_cast<std::size_t>(spec.trials), spec.seed,
      [&](std::uint64_t s) {
        return serve::with_trial_recipe(spec, s, [&](auto recipe) {
          if (confirm) recipe.confirm_parallel_time = *confirm;
          return serve::run_trial(std::move(recipe), spec.engine, opt);
        });
      },
      {.parallel = parallel});
}

}  // namespace

void banner(const std::string& experiment, const std::string& artifact,
            const std::string& claim) {
  std::cout << "==================================================\n"
            << experiment << " -- reproduces " << artifact << "\n"
            << "paper claim: " << claim << "\n"
            << "==================================================\n";
}

bench_args parse_bench_args(int argc, char** argv) {
  bench_args args;
  // --engine validates through the shared request-spec builder
  // (util/request_spec.hpp), so the benches reject an unknown engine with
  // the same diagnostic as ssr_cli and ssr_serve.
  util::spec_builder engine_builder;
  if (argc > 0) {
    const std::string_view program = argv[0];
    args.binary = program.substr(program.find_last_of('/') + 1);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    args.argv.emplace_back(arg);
    const auto value_of = [&](std::string_view prefix)
        -> std::optional<std::string_view> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (const auto v = value_of("--engine=")) {
      engine_builder.set_engine(*v);
      continue;
    }
    if (const auto v = value_of("--trials=")) {
      args.trials = parse_u64_flag("--trials", *v);
      if (*args.trials == 0) {
        std::cerr << "error: --trials must be positive\n";
        std::exit(2);
      }
      continue;
    }
    if (const auto v = value_of("--seed=")) {
      args.seed = parse_u64_flag("--seed", *v);
      continue;
    }
    if (const auto v = value_of("--out-dir=")) {
      args.out_dir = *v;
      continue;
    }
    if (const auto v = value_of("--history-dir=")) {
      args.history_dir = *v;
      continue;
    }
    if (arg == "--no-json") {
      args.write_json = false;
      continue;
    }
    if (arg == "--progress") {
      obs::set_progress_default(true);
      continue;
    }
    if (arg == "--profile") {
      args.profile = true;
      continue;
    }
    reject_flag(arg);
  }
  const std::vector<util::spec_error> errors = engine_builder.finalize();
  for (const util::spec_error& e : errors) {
    // The builder also validates spec fields the benches fix themselves
    // (n, trials, ...); only the flag routed through it can error here.
    if (e.field != "engine") continue;
    std::cerr << "error: --" << e.field << ": " << e.message << '\n';
    std::exit(2);
  }
  args.engine = engine_builder.spec().engine;
  std::cout << "engine: " << to_string(args.engine.kind) << "\n";
  return args;
}

reporter::reporter(const bench_args& args, std::string experiment,
                   std::string title)
    : args_(args), start_(std::chrono::steady_clock::now()) {
  report_.experiment = std::move(experiment);
  report_.title = std::move(title);
  report_.binary = args_.binary.empty() ? "bench" : args_.binary;
  report_.engine = std::string(to_string(args_.engine.kind));
  report_.argv = args_.argv;
  if (args_.profile) {
    perf_.emplace();
    if (!perf_->available()) {
      std::cerr << "profile: hardware counters unavailable ("
                << perf_->status() << "); recording wall time only\n";
    }
    profiler_.emplace(obs::timeline_options{.perf = &*perf_});
    // Root section so even benches that never reach run_trials (e.g.
    // bench_engine_scaling, which drives engines directly) emit a non-empty
    // profile.
    root_section_ = profiler_->enter("bench");
    obs::set_profiler_default(&*profiler_);
  }
}

obs::report_row& reporter::add_samples(std::string section,
                                       std::string protocol, std::uint64_t n,
                                       std::string params,
                                       std::uint64_t trials,
                                       std::uint64_t seed, std::string unit,
                                       std::vector<double> samples) {
  return report_.add_samples(std::move(section), std::move(protocol), n,
                             std::move(params), trials, seed, std::move(unit),
                             std::move(samples));
}

obs::report_row& reporter::add_value(std::string section, std::string metric,
                                     std::string protocol, std::uint64_t n,
                                     std::string params, double value,
                                     std::string unit,
                                     bool higher_is_better) {
  return report_.add_value(std::move(section), std::move(metric),
                           std::move(protocol), n, std::move(params), value,
                           std::move(unit), higher_is_better);
}

std::string reporter::finish() {
  if (profiler_.has_value()) {
    profiler_->exit(root_section_);
    obs::set_profiler_default(nullptr);
    const obs::timeline_profile profile = profiler_->profile();
    report_.profile = profile.to_json();
    const obs::profile_derived derived = obs::derive_hardware_metrics(profile);
    if (derived.valid) {
      // Hardware-stable regression gates: per-interaction rates are far
      // less sensitive to CI-runner load than wall time.
      add_value("profile", "instructions_per_interaction", "all", 0, "",
                derived.instructions_per_unit, "instructions",
                /*higher_is_better=*/false);
      add_value("profile", "cycles_per_interaction", "all", 0, "",
                derived.cycles_per_unit, "cycles",
                /*higher_is_better=*/false);
      add_value("profile", "branch_miss_rate", "all", 0, "",
                derived.branch_miss_rate, "ratio",
                /*higher_is_better=*/false);
    }
    std::string folded_path = args_.out_dir;
    if (!folded_path.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(folded_path), ec);
      if (folded_path.back() != '/') folded_path += '/';
    }
    folded_path += "PROFILE_" + report_.experiment + ".folded";
    std::ofstream os(folded_path, std::ios::trunc);
    if (os) {
      profile.write_folded(os);
      std::cout << "profile: " << folded_path << "\n";
    } else {
      std::cerr << "warning: could not write '" << folded_path << "'\n";
    }
    // Finalize once; the profile block stays in the report for the (
    // idempotent) JSON rewrite below.
    profiler_.reset();
    perf_.reset();
  }
  if (!args_.write_json) return {};
  report_.git_rev = obs::git_revision();
  report_.generated_unix = static_cast<std::int64_t>(std::time(nullptr));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  report_.wall_time_seconds = elapsed.count();
  report_.metrics = metrics_.snapshot();
  const std::string path = obs::write_report(report_, args_.out_dir);
  if (path.empty()) {
    std::cerr << "warning: could not write "
              << obs::report_filename(report_.experiment) << " under '"
              << args_.out_dir << "'\n";
  } else {
    std::cout << "report: " << path << "\n";
  }
  if (!args_.history_dir.empty()) {
    // One directory per revision; report_trend walks these in commit
    // order to build cross-revision trend tables.
    std::string rev_dir = args_.history_dir;
    if (rev_dir.back() != '/') rev_dir += '/';
    rev_dir += report_.git_rev;
    const std::string history_path = obs::write_report(report_, rev_dir);
    if (history_path.empty()) {
      std::cerr << "warning: could not write history copy under '" << rev_dir
                << "'\n";
    } else {
      std::cout << "history: " << history_path << "\n";
    }
  }
  return path;
}

std::vector<double> baseline_times(std::uint32_t n, std::size_t trials,
                                   std::uint64_t seed, engine_spec engine) {
  obs::timeline_scope phase(obs::profiler_default(), "phase.baseline");
  return recipe_times({.protocol = "baseline", .n = n, .trials = trials,
                       .seed = seed, .max_time = 1e9, .engine = engine});
}

std::vector<double> baseline_lower_bound_times(std::uint32_t n,
                                               std::size_t trials,
                                               std::uint64_t seed,
                                               engine_spec engine) {
  obs::timeline_scope phase(obs::profiler_default(),
                            "phase.baseline_lower_bound");
  // E5's own recipe: the paper's lower-bound start, and the trial seed as
  // the engine seed, unsalted.
  const silent_n_state_ssr protocol(n);
  const auto initial = protocol.lower_bound_configuration();
  return run_trials(trials, seed, [&](std::uint64_t s) {
    return serve::run_trial(
        serve::trial_recipe<silent_n_state_ssr>{
            .protocol = protocol,
            .initial = initial,
            .engine_seed = s,
            .failure = "baseline did not converge within max_time"},
        engine, {.max_parallel_time = 1e9});
  });
}

std::vector<double> optimal_silent_times(std::uint32_t n, std::size_t trials,
                                         std::uint64_t seed,
                                         optimal_silent_scenario scenario,
                                         engine_spec engine) {
  obs::timeline_scope phase(obs::profiler_default(), "phase.optimal_silent");
  return recipe_times({.protocol = "optimal", .scenario = to_string(scenario),
                       .n = n, .trials = trials, .seed = seed,
                       .max_time = 1e9, .engine = engine});
}

std::vector<double> sublinear_times(std::uint32_t n, std::uint32_t h,
                                    std::size_t trials, std::uint64_t seed,
                                    sublinear_scenario scenario,
                                    double confirm, bool parallel,
                                    engine_spec engine) {
  obs::timeline_scope phase(obs::profiler_default(), "phase.sublinear");
  return recipe_times({.protocol = "sublinear", .scenario = to_string(scenario),
                       .n = n, .h = h, .trials = trials, .seed = seed,
                       .max_time = 1e8, .engine = engine},
                      parallel, confirm);
}

std::vector<double> detection_latencies(std::uint32_t n, std::uint32_t h,
                                        std::size_t trials,
                                        std::uint64_t seed, bool parallel,
                                        engine_spec engine) {
  obs::timeline_scope phase(obs::profiler_default(), "phase.detection");
  return run_trials(
      trials, seed,
      [=](std::uint64_t s) {
        sublinear_time_ssr p(n, h);
        rng_t rng(s);
        auto init = adversarial_configuration(
            p, sublinear_scenario::single_collision, rng);
        // A Resetting agent can only appear through an interaction it takes
        // part in, so probing the two participants after each state change
        // finds the same interaction index the historical full-configuration
        // scan did.
        const auto detect = [](auto& eng) {
          const bool detected = eng.run(
              2'000'000'000ull, [](const agent_pair&) {},
              [&eng](const agent_pair& pair, bool changed) {
                if (!changed) return false;
                const auto agents = eng.agents();
                return agents[pair.initiator].role ==
                           sublinear_time_ssr::role_t::resetting ||
                       agents[pair.responder].role ==
                           sublinear_time_ssr::role_t::resetting;
              });
          if (!detected)
            throw std::runtime_error("collision never detected");
          return eng.parallel_time();
        };
        return with_engine(engine, p, std::move(init), s ^ 0xc2b2ae35,
                           [&](auto& eng) {
                             eng.attach_profiler(obs::profiler_default());
                             return detect(eng);
                           });
      },
      {.parallel = parallel});
}

std::vector<std::string> time_cells(const summary& s) {
  return {format_mean_ci(s.mean, ci95_halfwidth(s), 2), format_fixed(s.p90, 2),
          format_fixed(s.p99, 2)};
}

}  // namespace ssr::bench
