// E13 -- the phase structure of Optimal-Silent-SSR's stabilization,
// measured (Section 4's proof sketch, made quantitative).
//
// The Theta(n) upper-bound argument decomposes a run into stages:
//   detect   -- until some agent triggers Propagate-Reset (rank collision
//               in O(n), or errorcount expiry in O(E_max) own-interactions)
//   drain    -- trigger -> fully dormant population (O(log n), driven by
//               R_max = 60 ln n)
//   dormant  -- the slow leader election window (O(D_max) = O(n))
//   rank     -- awakening + binary-tree assignment (O(n), level by level)
// and argues the expected number of reset rounds is constant.  We measure
// every stage with incremental phase counters (no per-step scans) across n
// and adversarial scenarios, and report the reset-round count.
#include <iostream>

#include "analysis/statistics.hpp"
#include "analysis/table.hpp"
#include "common.hpp"
#include "pp/convergence.hpp"
#include "pp/scheduler.hpp"
#include "pp/trial.hpp"

namespace {

using namespace ssr;
using namespace ssr::bench;

using role_t = optimal_silent_ssr::role_t;
using state_t = optimal_silent_ssr::agent_state;

struct phase_breakdown {
  double detect = 0.0;   // start -> first trigger
  double drain = 0.0;    // first trigger -> fully dormant
  double dormant = 0.0;  // fully dormant -> first awakening
  double rank = 0.0;     // first awakening -> valid ranking
  double total = 0.0;
  int reset_rounds = 0;  // number of fully-dormant episodes
  bool converged = false;
};

phase_breakdown run_phases(std::uint32_t n, optimal_silent_scenario scenario,
                           std::uint64_t seed, engine_spec spec) {
  optimal_silent_ssr p(n);
  rng_t scenario_rng(seed ^ 0x1234);
  std::vector<state_t> agents = adversarial_configuration(p, scenario,
                                                          scenario_rng);

  // Incremental phase counters.
  auto resetting = [](const state_t& s) { return s.role == role_t::resetting; };
  auto dormant = [&](const state_t& s) {
    return resetting(s) && s.reset.resetcount == 0;
  };
  std::int64_t num_resetting = 0, num_dormant = 0;
  for (const auto& s : agents) {
    num_resetting += resetting(s) ? 1 : 0;
    num_dormant += dormant(s) ? 1 : 0;
  }
  rank_tracker tracker(n);
  for (const auto& s : agents) tracker.add(p.rank_of(s));

  phase_breakdown out;
  double t_trigger = -1.0, t_dormant = -1.0, t_awake = -1.0;
  bool was_fully_dormant = num_dormant == static_cast<std::int64_t>(n);
  const std::uint64_t cap = static_cast<std::uint64_t>(1e6) * n;

  // Phase markers are sampled at surfaced interactions.  Counters only move
  // on state changes, which every engine surfaces; the batched engine's
  // certainly-null skips (settled/settled pairs of distinct ranks) can defer
  // a marker only by the geometric gap to the next maybe-active pair, which
  // involves a resetting (hence volatile) agent whenever a marker condition
  // is live -- o(1) parallel time at these n.
  const auto drive = [&](auto& eng) {
    if (tracker.correct()) return;
    int reset_before = 0, dorm_before = 0;
    std::uint32_t ra = 0, rb = 0;
    eng.run(
        cap,
        [&](const agent_pair& pair) {
          const auto& a = eng.agents()[pair.initiator];
          const auto& b = eng.agents()[pair.responder];
          reset_before = (resetting(a) ? 1 : 0) + (resetting(b) ? 1 : 0);
          dorm_before = (dormant(a) ? 1 : 0) + (dormant(b) ? 1 : 0);
          ra = p.rank_of(a);
          rb = p.rank_of(b);
        },
        [&](const agent_pair& pair, bool changed) {
          const auto& a = eng.agents()[pair.initiator];
          const auto& b = eng.agents()[pair.responder];
          if (changed) {
            tracker.update(ra, p.rank_of(a));
            tracker.update(rb, p.rank_of(b));
            num_resetting +=
                (resetting(a) ? 1 : 0) + (resetting(b) ? 1 : 0) - reset_before;
            num_dormant +=
                (dormant(a) ? 1 : 0) + (dormant(b) ? 1 : 0) - dorm_before;
          }
          const double t = eng.parallel_time();
          if (t_trigger < 0 && num_resetting > 0) t_trigger = t;
          const bool fully_dormant =
              num_dormant == static_cast<std::int64_t>(n);
          if (fully_dormant && !was_fully_dormant) {
            ++out.reset_rounds;
            if (t_dormant < 0) t_dormant = t;
          }
          // First awakening: a computing agent appears after a fully dormant
          // episode was seen.
          if (t_awake < 0 && t_dormant >= 0 &&
              num_resetting < static_cast<std::int64_t>(n)) {
            t_awake = t;
          }
          was_fully_dormant = fully_dormant;
          return tracker.correct();
        });
    out.total = eng.parallel_time();
  };

  with_engine(spec, p, std::move(agents), seed, drive);

  out.converged = tracker.correct();
  if (t_trigger >= 0) {
    out.detect = t_trigger;
    if (t_dormant >= 0) {
      out.drain = t_dormant - t_trigger;
      if (t_awake >= 0) {
        out.dormant = t_awake - t_dormant;
        out.rank = out.total - t_awake;
      }
    }
  } else {
    out.detect = out.total;  // already-correct starts never trigger
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  banner("E13: bench_phases", "Section 4 (proof-stage decomposition)",
         "detect O(n) + drain O(log n) + dormant O(n) + rank O(n), with a "
         "constant expected number of reset rounds");
  const bench_args args = parse_bench_args(argc, argv);
  const engine_spec engine = args.engine;
  reporter rep(args, "E13", "Section 4 proof-stage decomposition");

  for (const auto scenario : {optimal_silent_scenario::duplicated_ranks,
                              optimal_silent_scenario::no_leader,
                              optimal_silent_scenario::uniform_random}) {
    std::cout << "\nscenario: " << to_string(scenario) << '\n';
    text_table t({"n", "trials", "detect", "drain", "dormant", "rank",
                  "total", "reset rounds"});
    for (const std::uint32_t n : {64u, 128u, 256u, 512u}) {
      const std::size_t trials = args.trials_or(30);
      const std::uint64_t seed = args.seed_or(5 + n);
      std::vector<double> detect(trials), drain(trials), dormantv(trials),
          rank(trials), total(trials), rounds(trials);
      parallel_for_index(trials, [&](std::size_t i) {
        const auto r = run_phases(n, scenario, derive_seed(seed, i), engine);
        detect[i] = r.detect;
        drain[i] = r.drain;
        dormantv[i] = r.dormant;
        rank[i] = r.rank;
        total[i] = r.total;
        rounds[i] = r.reset_rounds;
      });
      t.add_row({std::to_string(n), std::to_string(trials),
                 format_fixed(summarize(detect).mean, 1),
                 format_fixed(summarize(drain).mean, 1),
                 format_fixed(summarize(dormantv).mean, 1),
                 format_fixed(summarize(rank).mean, 1),
                 format_fixed(summarize(total).mean, 1),
                 format_fixed(summarize(rounds).mean, 2)});
      const std::string params =
          std::string("scenario=") + std::string(to_string(scenario));
      rep.add_samples("phase_total", "optimal_silent", n, params, trials,
                      seed, "parallel_time", total);
      rep.add_samples("phase_detect", "optimal_silent", n, params, trials,
                      seed, "parallel_time", detect);
      rep.add_samples("phase_dormant", "optimal_silent", n, params, trials,
                      seed, "parallel_time", dormantv);
    }
    t.print(std::cout);
  }

  std::cout << "\nInterpretation: detect scales with the error type -- "
               "n/2 duplicated pairs collide in O(1) time, a missing\n"
               "leader takes ~E_max/2 = 10n of patience, and "
               "uniform-random starts already contain triggered agents.\n"
               "Drain grows only logarithmically (R_max = 60 ln n); the "
               "dormant election window ~D_max/2 = 4n dominates;\nrank is "
               "the Theta(n) tree fill.  Reset rounds stay at 1.00: the "
               "slow election almost always yields a unique\nleader on the "
               "first try -- the 'constant expected repeats' of Section 4."
            << std::endl;
  rep.finish();
  return 0;
}
