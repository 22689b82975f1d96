// Runs all three self-stabilizing ranking protocols side by side on the
// same population sizes, from comparable worst-ish-case configurations, and
// prints a Table-1-shaped summary: the baseline is quadratic, Optimal-Silent
// linear, and the H = log2 n Sublinear variant logarithmic -- at the price
// of state-space growth in the opposite order.
#include <cmath>
#include <iostream>

#include "analysis/statistics.hpp"
#include "analysis/table.hpp"
#include "pp/convergence.hpp"
#include "pp/trial.hpp"
#include "protocols/adversary.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/state_space.hpp"

namespace {

using namespace ssr;

double baseline_mean(std::uint32_t n, std::size_t trials) {
  const auto times = run_trials(trials, n, [n](std::uint64_t s) {
    rng_t rng(s);
    std::vector<std::uint32_t> ranks(n);
    for (auto& r : ranks)
      r = static_cast<std::uint32_t>(uniform_below(rng, n));
    accelerated_silent_n_state sim(n, ranks, s ^ 0xabcdef);
    return sim.run_to_stabilization();
  });
  return summarize(times).mean;
}

double optimal_mean(std::uint32_t n, std::size_t trials) {
  const auto times = run_trials(trials, 100 + n, [n](std::uint64_t s) {
    optimal_silent_ssr p(n);
    rng_t rng(s);
    auto init = adversarial_configuration(
        p, optimal_silent_scenario::uniform_random, rng);
    return measure_convergence(p, std::move(init), s,
                               {.max_parallel_time = 1e9})
        .convergence_time;
  });
  return summarize(times).mean;
}

double sublinear_mean(std::uint32_t n, std::size_t trials) {
  // H = Theta(log n): one below ceil(log2 n), trading a constant factor of
  // detection speed for a factor-n smaller (still quasi-exponential) state
  // space.
  const auto h = static_cast<std::uint32_t>(
                     std::ceil(std::log2(static_cast<double>(n)))) - 1;
  const auto times = run_trials(
      trials, 200 + n,
      [n, h](std::uint64_t s) {
        sublinear_time_ssr p(n, h);
        rng_t rng(s);
        auto init = adversarial_configuration(
            p, sublinear_scenario::all_same_name, rng);
        convergence_options opt;
        opt.max_parallel_time = 1e8;
        opt.confirm_parallel_time = 30.0;
        return measure_convergence(p, std::move(init), s, opt)
            .convergence_time;
      },
      {.parallel = n < 32});
  return summarize(times).mean;
}

}  // namespace

int main() {
  std::cout << "Self-stabilizing ranking protocols, head to head\n"
            << "(times in parallel units; states per Table 1)\n\n";

  text_table t({"n", "Silent-n-state [22]", "Optimal-Silent (Sec.4)",
                "Sublinear H=clog2(n)-1 (Sec.5)"});
  for (const std::uint32_t n : {8u, 16u, 32u}) {
    t.add_row({std::to_string(n), format_fixed(baseline_mean(n, 20), 1),
               format_fixed(optimal_mean(n, 20), 1),
               format_fixed(sublinear_mean(n, n >= 32 ? 3 : 10), 1)});
  }
  t.print(std::cout);

  std::cout << "\nstate complexity at n = 32:\n";
  const auto opt_states =
      optimal_silent_states(32, optimal_silent_ssr::tuning::defaults(32));
  const double sub_bits =
      sublinear_state_bits(32, sublinear_time_ssr::tuning::defaults(32, 4));
  std::cout << "  Silent-n-state : 32 states (n, optimal by Theorem 2.1)\n"
            << "  Optimal-Silent : " << opt_states << " states (O(n))\n"
            << "  Sublinear      : ~2^" << format_fixed(sub_bits, 0)
            << " states (quasi-exponential)\n"
            << "\nthe Table 1 trade-off in one screen: every factor of time "
               "saved is paid for in states.\n";
  return 0;
}
