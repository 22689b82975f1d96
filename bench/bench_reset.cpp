// E7 -- Section 3: Propagate-Reset completes in O(log n) time (for
// D_max = Theta(log n)) and performs a *clean* reset: every agent executes
// Reset exactly once between the trigger and the next fully computing
// configuration.
//
// We drive the component through the same toy harness the unit tests use
// (a computing/resetting flag plus a reset generation counter), measure the
// trigger-to-fully-computing time across n, and verify the phase structure
// (partially triggered -> fully propagating -> fully dormant -> awakening).
#include <iostream>

#include "analysis/regression.hpp"
#include "analysis/statistics.hpp"
#include "analysis/table.hpp"
#include "common.hpp"
#include "pp/convergence.hpp"
#include "pp/scheduler.hpp"
#include "pp/trial.hpp"
#include "protocols/propagate_reset.hpp"

namespace {

using namespace ssr;
using namespace ssr::bench;

struct toy_agent {
  bool resetting = false;
  reset_fields reset;
  int resets = 0;
};

struct toy_hooks {
  bool is_resetting(const toy_agent& a) const { return a.resetting; }
  reset_fields& fields(toy_agent& a) const { return a.reset; }
  void enter_resetting(toy_agent& a) const { a.resetting = true; }
  void reset(toy_agent& a) const {
    a.resetting = false;
    a.reset = reset_fields{};
    ++a.resets;
  }
};

// The toy harness packaged as a population protocol so the run can be
// driven by either simulation engine.  interact() reports "changed"
// whenever a resetting agent took part -- conservative (countdown ticks
// always mutate state anyway) and enough for the incremental counters.
struct toy_reset_protocol {
  using agent_state = toy_agent;

  std::uint32_t n;
  reset_params params;

  std::uint32_t population_size() const { return n; }
  bool interact(toy_agent& x, toy_agent& y, rng_t&) const {
    if (!x.resetting && !y.resetting) return false;
    propagate_reset(x, y, params, toy_hooks{});
    return true;
  }
};

struct reset_run {
  double completion_time = 0.0;
  double dormant_time = 0.0;  // first fully dormant configuration
  bool clean = true;          // every agent reset exactly once
};

reset_run run_reset(std::uint32_t n, std::uint64_t seed, engine_spec spec) {
  std::vector<toy_agent> agents(n);
  const reset_params params{default_r_max(n), default_r_max(n) + 8};
  trigger_reset(agents[0], params, toy_hooks{});
  const toy_reset_protocol p{n, params};

  reset_run out;

  // Phase counters maintained incrementally: a full scan per step would
  // make the n = 8192 sweep quadratic.
  auto is_dormant = [](const toy_agent& a) {
    return a.resetting && a.reset.resetcount == 0;
  };

  const auto drive = [&](auto& eng) {
    bool seen_dormant = false;
    std::int64_t resetting = 1, dormant = 0;
    int reset_before = 0, dorm_before = 0;
    eng.run(
        UINT64_MAX,
        [&](const agent_pair& pr) {
          const auto& x = eng.agents()[pr.initiator];
          const auto& y = eng.agents()[pr.responder];
          reset_before = (x.resetting ? 1 : 0) + (y.resetting ? 1 : 0);
          dorm_before = (is_dormant(x) ? 1 : 0) + (is_dormant(y) ? 1 : 0);
        },
        [&](const agent_pair& pr, bool changed) {
          if (changed) {
            const auto& x = eng.agents()[pr.initiator];
            const auto& y = eng.agents()[pr.responder];
            resetting += (x.resetting ? 1 : 0) + (y.resetting ? 1 : 0) -
                         reset_before;
            dormant += (is_dormant(x) ? 1 : 0) + (is_dormant(y) ? 1 : 0) -
                       dorm_before;
          }
          if (!seen_dormant && dormant == static_cast<std::int64_t>(n)) {
            seen_dormant = true;
            out.dormant_time = eng.parallel_time();
          }
          return resetting == 0;
        });
    out.completion_time = eng.parallel_time();
    for (const auto& a : eng.agents()) out.clean &= a.resets == 1;
  };

  with_engine(spec, p, std::move(agents), seed, drive);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  banner("E7: bench_reset", "Section 3 (Propagate-Reset)",
         "completes in O(log n) time; every agent resets exactly once");
  const bench_args args = parse_bench_args(argc, argv);
  const engine_spec engine = args.engine;
  reporter rep(args, "E7", "Section 3: Propagate-Reset completion");

  text_table t({"n", "trials", "completion mean ± ci", "t/ln n",
                "fully-dormant by", "clean resets"});
  std::vector<double> ns, means;
  for (const std::uint32_t n : {32u, 128u, 512u, 2048u, 8192u}) {
    const std::size_t trials = args.trials_or(n <= 2048 ? 60 : 20);
    const std::uint64_t seed = args.seed_or(77 + n);
    std::vector<double> completion(trials), dormant(trials);
    std::size_t clean = 0;
    for (std::size_t i = 0; i < trials; ++i) {
      const reset_run r = run_reset(n, derive_seed(seed, i), engine);
      completion[i] = r.completion_time;
      dormant[i] = r.dormant_time;
      clean += r.clean ? 1 : 0;
    }
    const summary cs = summarize(completion);
    const summary ds = summarize(dormant);
    t.add_row({std::to_string(n), std::to_string(trials),
               format_mean_ci(cs.mean, ci95_halfwidth(cs), 2),
               format_fixed(cs.mean / std::log(static_cast<double>(n)), 3),
               format_fixed(ds.mean, 2),
               std::to_string(clean) + "/" + std::to_string(trials)});
    ns.push_back(n);
    means.push_back(cs.mean);
    rep.add_samples("completion", "propagate_reset", n, "", trials, seed,
                    "parallel_time", completion);
    rep.add_samples("fully_dormant", "propagate_reset", n, "", trials, seed,
                    "parallel_time", dormant);
    rep.add_value("clean", "clean_reset_fraction", "propagate_reset", n, "",
                  static_cast<double>(clean) / static_cast<double>(trials),
                  "fraction");
  }
  t.print(std::cout);

  const auto fit = loglog_fit(ns, means);
  std::cout << "  log-log exponent: " << format_fixed(fit.slope, 3)
            << " (expected ~0: logarithmic completion)\n"
            << "  (Clean resets at 100%: the dormant delay prevents double "
               "awakenings, as Section 3 argues.)"
            << std::endl;
  rep.finish();
  return 0;
}
