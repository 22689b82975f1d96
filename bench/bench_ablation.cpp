// E8 -- ablations over the constants the paper leaves as Theta-classes
// (DESIGN.md deviation #4).  Four studies:
//
//   A. E_max (Unsettled patience, Optimal-Silent-SSR): too small and healthy
//      ranking runs time out into spurious resets; too large and a
//      leaderless configuration takes that much longer to notice.  The
//      paper needs E_max = Theta(n) with a constant clearing the recruiting
//      tail.
//   B. D_max (dormant delay = slow-leader-election window): the reset ends
//      with a unique leader only if the L,L -> L,F duel finishes inside the
//      window, which needs D_max ≳ a few n (leader elimination runs
//      ~(n-1)^2/n parallel time).  Short windows multiply resets.
//   C. prune_retention (simulation-only memory bound on history trees):
//      too short and the responder side of Check-Path-Consistency loses the
//      records that safety relies on -> false-positive resets that revoke a
//      correct ranking; longer retention buys safety with memory.  This
//      defends DESIGN.md deviation #2 empirically.
//   D. R_max factor: the paper fixes R_max = 60 ln n for proof headroom;
//      reset completion time scales linearly in the constant, which is why
//      end-to-end sublinear times carry a large additive Theta(log n) term.
#include <cmath>
#include <iostream>

#include "analysis/statistics.hpp"
#include "analysis/table.hpp"
#include "common.hpp"
#include "pp/convergence.hpp"
#include "pp/trial.hpp"

namespace {

using namespace ssr;
using namespace ssr::bench;

// --- A/B helpers ----------------------------------------------------------

struct optimal_run {
  double time;
  double losses;  // correctness revocations (spurious resets after ranking)
};

optimal_run optimal_run_with(std::uint32_t n,
                             const optimal_silent_ssr::tuning& t,
                             optimal_silent_scenario scenario,
                             std::size_t trials, std::uint64_t seed,
                             engine_spec engine) {
  std::vector<double> times(trials), losses(trials);
  parallel_for_index(trials, [&](std::size_t i) {
    optimal_silent_ssr p(n, t);
    rng_t rng(derive_seed(seed, i));
    auto init = adversarial_configuration(p, scenario, rng);
    convergence_options opt;
    opt.max_parallel_time = 1e7;
    const auto r =
        measure_convergence_with(engine, p, std::move(init),
                                 derive_seed(seed ^ 0xff, i), opt);
    times[i] = r.converged ? r.convergence_time : opt.max_parallel_time;
    losses[i] = r.correctness_losses;
  });
  return {summarize(times).mean, summarize(losses).mean};
}

}  // namespace

int main(int argc, char** argv) {
  banner("E8: bench_ablation", "design-choice ablations (DESIGN.md §2)",
         "constants hidden in the paper's Theta() terms, made explicit");
  const bench_args args = parse_bench_args(argc, argv);
  const engine_spec engine = args.engine;
  reporter rep(args, "E8", "Design-choice ablations");

  const std::uint32_t n = 64;

  {
    std::cout << "\nA. Unsettled patience E_max (Optimal-Silent-SSR, n = "
              << n << "):\n";
    text_table t({"E_max", "clean start: time", "revocations/run",
                  "no-leader start: time"});
    for (const std::uint32_t factor : {2u, 5u, 20u, 60u}) {
      auto params = optimal_silent_ssr::tuning::defaults(n);
      params.e_max = factor * n;
      const std::size_t ab_trials = args.trials_or(30);
      const auto clean = optimal_run_with(
          n, params, optimal_silent_scenario::valid_ranking, ab_trials,
          args.seed_or(100 + factor), engine);
      const auto noleader = optimal_run_with(
          n, params, optimal_silent_scenario::no_leader, ab_trials,
          args.seed_or(200 + factor), engine);
      const std::string ab_params = "e_max=" + std::to_string(factor) + "n";
      rep.add_value("ablation_e_max", "clean_start_time", "optimal_silent", n,
                    ab_params, clean.time, "parallel_time",
                    /*higher_is_better=*/false);
      rep.add_value("ablation_e_max", "no_leader_time", "optimal_silent", n,
                    ab_params, noleader.time, "parallel_time",
                    /*higher_is_better=*/false);
      t.add_row({std::to_string(factor) + "n",
                 format_fixed(clean.time, 1),
                 format_fixed(clean.losses, 2),
                 format_fixed(noleader.time, 1)});
    }
    t.print(std::cout);
    std::cout << "  (The no-leader start isolates the patience path: the "
                 "lone Unsettled agent must count down ~E_max of its own "
                 "interactions (E_max/2 parallel time) before triggering, "
                 "so detection grows with E_max -- but below ~5n the "
                 "post-reset ranking itself times out and spurious resets "
                 "dominate.  E_max = Theta(n) with a constant clearing the "
                 "recruiting tail is exactly the paper's requirement.)\n";
  }

  {
    std::cout << "\nB. Dormant delay D_max (leader-election window, n = "
              << n << "):\n";
    text_table t(
        {"D_max", "expired start: time", "vs leader-elim (n-1)^2/n"});
    for (const std::uint32_t factor : {1u, 2u, 8u, 32u}) {
      auto params = optimal_silent_ssr::tuning::defaults(n);
      params.d_max = factor * n;
      const auto run = optimal_run_with(
          n, params, optimal_silent_scenario::all_unsettled_expired,
          args.trials_or(30), args.seed_or(300 + factor), engine);
      rep.add_value("ablation_d_max", "expired_start_time", "optimal_silent",
                    n, "d_max=" + std::to_string(factor) + "n", run.time,
                    "parallel_time", /*higher_is_better=*/false);
      t.add_row({std::to_string(factor) + "n", format_fixed(run.time, 1),
                 format_fixed(static_cast<double>(n - 1) * (n - 1) / n, 1)});
    }
    t.print(std::cout);
    std::cout << "  (Expected time grows roughly linearly in D_max -- the "
                 "dormancy itself costs D_max/2 parallel time per reset -- "
                 "while a window below the leader-elimination time only "
                 "means a constant-probability retry, which is cheap.  The "
                 "paper picks D_max = Theta(n) for the WHP guarantee; the "
                 "constant trades worst-case retries against per-reset "
                 "cost.)\n";
  }

  {
    const std::uint32_t sn = 16, sh = 3;
    std::cout << "\nC. History-tree prune retention (Sublinear-Time-SSR, "
              << "n = " << sn << ", H = " << sh << "):\n";
    text_table t({"retention", "false-positive resets / 20k steps",
                  "max nodes/agent"});
    auto base = sublinear_time_ssr::tuning::defaults(sn, sh);
    for (const std::int64_t retention :
         {std::int64_t{0}, base.t_h / std::int64_t{2}, std::int64_t{base.t_h},
          2 * std::int64_t{base.t_h}, std::int64_t{-1}}) {
      auto params = base;
      params.prune_retention = retention;
      // From a clean valid ranking, any reset is a false positive.
      std::size_t false_positives = 0;
      std::size_t max_nodes = 0;
      const std::size_t trials = 8;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        sublinear_time_ssr p(sn, params);
        rng_t rng(derive_seed(400, trial));
        auto init = adversarial_configuration(
            p, sublinear_scenario::valid_ranking, rng);
        // Scan the population every 500 interactions for 20k interactions;
        // any non-collecting role from this clean start is a false positive.
        const auto probe = [&](auto& eng) {
          bool reset_seen = false;
          while (eng.interactions() < 20000) {
            eng.run(eng.interactions() + 500, [](const agent_pair&) {},
                    [](const agent_pair&, bool) { return false; });
            for (const auto& s : eng.agents()) {
              if (s.role == sublinear_time_ssr::role_t::collecting)
                max_nodes = std::max(max_nodes, s.tree.node_count());
              else
                reset_seen = true;
            }
          }
          return reset_seen;
        };
        const bool reset_seen = with_engine(engine, p, std::move(init),
                                            derive_seed(401, trial), probe);
        false_positives += reset_seen ? 1 : 0;
      }
      t.add_row({retention < 0 ? "never (paper)" : std::to_string(retention),
                 std::to_string(false_positives) + "/" + std::to_string(trials),
                 std::to_string(max_nodes)});
      rep.add_value("ablation_retention", "false_positive_fraction",
                    "sublinear", sn,
                    "retention=" + std::to_string(retention),
                    static_cast<double>(false_positives) / trials, "fraction",
                    /*higher_is_better=*/false);
    }
    t.print(std::cout);
    std::cout << "  (A sharp cliff: retention <= T_H loses the responder-"
                 "side records Check-Path-Consistency needs and every long "
                 "run false-positives; retention >= 2 T_H (the shipped "
                 "default) matches the paper's zero while bounding memory; "
                 "'never' reproduces the paper's exact semantics at the "
                 "cost of unbounded growth.)\n";
  }

  {
    std::cout << "\nD. R_max factor (Propagate-Reset countdown, sublinear "
                 "end-to-end, n = 16, H = 2):\n";
    text_table t({"R_max", "single-collision: stabilization time"});
    for (const double factor : {0.1, 0.25, 1.0}) {
      auto params = sublinear_time_ssr::tuning::defaults(16, 2);
      params.r_max = default_r_max(16, factor);
      std::vector<double> times(20);
      parallel_for_index(20, [&](std::size_t i) {
        sublinear_time_ssr p(16, params);
        rng_t rng(derive_seed(500, i));
        auto init = adversarial_configuration(
            p, sublinear_scenario::single_collision, rng);
        convergence_options opt;
        opt.max_parallel_time = 1e7;
        opt.confirm_parallel_time = 30.0;
        times[i] = measure_convergence_with(engine, p, std::move(init),
                                            derive_seed(501, i), opt)
                       .convergence_time;
      });
      t.add_row({std::to_string(params.r_max) + " (" +
                     format_fixed(factor * 60, 0) + " ln n)",
                 format_fixed(summarize(times).mean, 1)});
      rep.add_samples("ablation_r_max", "sublinear", 16,
                      "r_max=" + std::to_string(params.r_max), times.size(),
                      500, "parallel_time", times);
    }
    t.print(std::cout);
    std::cout << "  (End-to-end time tracks R_max almost linearly: the "
                 "paper's 60 ln n is proof headroom, not a performance "
                 "choice.)" << std::endl;
  }
  rep.finish();
  return 0;
}
