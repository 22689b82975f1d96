// E11 -- the loose-stabilization alternative (paper Sections 1 "Problem
// variants" and 6): what you get if you give up permanence.
//
// Loosely-stabilizing leader election [56] evades Theorem 2.1's n-state
// lower bound by guaranteeing only a long *holding time*: with timeout
// T = c log n it uses Theta(log n) states and converges fast, but the
// unique leader is eventually lost (a follower times out) and re-elected.
// We sweep c and measure the trade: convergence time grows mildly with T
// while the holding time explodes (exponentially in c), exactly the
// polynomial-vs-exponential-holding regimes of [56] -- and the reason the
// paper's protocols, which never lose the leader, *must* pay n states.
#include <cmath>
#include <iostream>

#include "analysis/statistics.hpp"
#include "analysis/table.hpp"
#include "common.hpp"
#include "pp/convergence.hpp"
#include "pp/scheduler.hpp"
#include "pp/trial.hpp"
#include "protocols/loose_stabilizing.hpp"

namespace {

using namespace ssr;
using namespace ssr::bench;

struct loose_outcome {
  double convergence = 0.0;
  double holding = 0.0;
  bool held_to_cap = false;
};

loose_outcome run_once(std::uint32_t n, std::uint32_t t_max,
                       std::uint64_t seed, double holding_cap,
                       engine_spec spec) {
  loose_stabilizing_le p(n, t_max);

  const auto drive = [&](auto& eng) {
    loose_outcome out;
    leader_tracker leaders;
    for (const auto& s : eng.agents()) leaders.add(p.is_leader(s));
    if (!leaders.correct())
      run_until_unique_leader_is(eng, leaders, true, UINT64_MAX, [] {});
    const std::uint64_t conv_steps = eng.interactions();
    out.convergence = static_cast<double>(conv_steps) / n;

    const auto cap =
        static_cast<std::uint64_t>(holding_cap * static_cast<double>(n));
    run_until_unique_leader_is(eng, leaders, false, conv_steps + cap, [] {});
    const std::uint64_t held = eng.interactions() - conv_steps;
    out.holding = static_cast<double>(held) / n;
    out.held_to_cap = held >= cap;
    return out;
  };

  return with_engine(spec, p, p.dead_configuration(), seed, drive);
}

}  // namespace

int main(int argc, char** argv) {
  banner("E11: bench_loose",
         "loose stabilization (Sections 1 and 6; Sudo et al. [56])",
         "Theta(log n) states buy fast convergence but only a finite "
         "holding time, exponential in the timeout constant");
  const bench_args args = parse_bench_args(argc, argv);
  const engine_spec engine = args.engine;
  reporter rep(args, "E11", "Loose stabilization: states vs holding time");

  const std::uint32_t n = 64;
  const double log2n = std::log2(static_cast<double>(n));
  const double holding_cap = 200'000.0;

  text_table t({"T (timeout)", "states", "convergence mean", "holding mean",
                "runs at cap"});
  for (const double c : {1.0, 2.0, 4.0, 6.0, 8.0}) {
    const auto t_max = static_cast<std::uint32_t>(std::ceil(c * log2n));
    const std::size_t trials = args.trials_or(12);
    const std::uint64_t seed = args.seed_or(42 + t_max);
    std::vector<double> conv(trials), hold(trials);
    int capped = 0;
    for (std::size_t i = 0; i < trials; ++i) {
      const auto out = run_once(n, t_max, derive_seed(seed, i),
                                holding_cap, engine);
      conv[i] = out.convergence;
      hold[i] = out.holding;
      capped += out.held_to_cap ? 1 : 0;
    }
    t.add_row({std::to_string(t_max) + " (" + format_fixed(c, 0) +
                   " log2 n)",
               std::to_string(loose_stabilizing_le::state_count(t_max)),
               format_fixed(summarize(conv).mean, 1),
               format_fixed(summarize(hold).mean, 1),
               std::to_string(capped) + "/" + std::to_string(trials)});
    const std::string params = "t_max=" + std::to_string(t_max);
    rep.add_samples("convergence", "loose_stabilizing", n, params, trials,
                    seed, "parallel_time", conv);
    rep.add_samples("holding", "loose_stabilizing", n, params, trials, seed,
                    "parallel_time", hold)
        .lower_is_better = false;
  }
  t.print(std::cout);

  std::cout << "\nInterpretation: "
            << loose_stabilizing_le::state_count(
                   static_cast<std::uint32_t>(std::ceil(4 * log2n)))
            << " states (Theta(log n), a gap that widens with n) versus "
               "the >= " << n
            << " that Theorem 2.1 forces on true SSLE -- but the leader is "
               "only rented.\nHolding time grows exponentially in the "
               "timeout constant (rows hitting the measurement cap hold "
               ">= " << format_fixed(holding_cap, 0)
            << " time units), while the paper's protocols hold forever."
            << std::endl;
  rep.finish();
  return 0;
}
