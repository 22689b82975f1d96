// Distribution equivalence of the simulation engines -- the central claim
// of pp/engine.hpp: the batched engine simulates *exactly* the uniform
// scheduler's process, so stabilization times under --engine=direct and
// --engine=batched are draws from one distribution.  Each sample is
// measured with an independent seed stream and compared against the direct
// engine's with the two-sample Kolmogorov-Smirnov test at alpha = 0.01
// (analysis/ks_test.hpp) -- a distribution-level check, not a means
// comparison, so it catches subtle errors like mis-weighted pair
// categories or a biased geometric skip, which leave averages intact.
//
// Coverage spans every engine path: Silent-n-state-SSR and
// Optimal-Silent-SSR are batch-countable (count engine with geometric
// null-skipping), Sublinear-Time-SSR exercises the deepest protocol
// machinery, and loose stabilizing LE is not batch-countable (collision-
// aware block sampling via batch_scheduler).  The loose protocol is
// additionally walled on its *leader-count* distribution at a fixed time
// horizon -- a configuration-shape observable, independent of the
// convergence-time one.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "analysis/ks_test.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "pp/trial.hpp"
#include "protocols/adversary.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace {

using namespace ssr;

constexpr double kAlpha = 0.01;

// Non-convergence is reported as a sentinel instead of asserting inside the
// worker threads; the main thread checks the samples afterwards.
void expect_all_converged(const std::vector<double>& sample) {
  for (const double t : sample) ASSERT_GE(t, 0.0) << "a trial never converged";
}

// One wall brick: `other` must be indistinguishable from the direct
// engine's reference sample.
void expect_ks_equivalent(const std::vector<double>& reference,
                          const std::vector<double>& other,
                          const char* label) {
  const auto r = ks_two_sample(reference, other);
  EXPECT_GT(r.p_value, kAlpha)
      << label << ": KS statistic " << r.statistic << " (p = " << r.p_value
      << "); the engine's distribution diverged from the direct engine's";
}

std::vector<double> baseline_sample(engine_spec spec, std::uint64_t base,
                                    std::size_t trials) {
  const std::uint32_t n = 32;
  return run_trials(trials, base, [n, spec](std::uint64_t s) -> double {
    silent_n_state_ssr p(n);
    rng_t rng(s);
    auto init = adversarial_configuration(p, rng);
    const auto r =
        measure_convergence_with(spec, p, std::move(init), s ^ 0x5bd1e995);
    return r.converged ? r.convergence_time : -1.0;
  });
}

std::vector<double> optimal_sample(engine_spec spec, std::uint64_t base,
                                   std::size_t trials) {
  const std::uint32_t n = 24;
  return run_trials(trials, base, [n, spec](std::uint64_t s) -> double {
    optimal_silent_ssr p(n);
    rng_t rng(s);
    auto init = adversarial_configuration(
        p, optimal_silent_scenario::uniform_random, rng);
    convergence_options opt;
    opt.max_parallel_time = 1e7;
    const auto r = measure_convergence_with(spec, p, std::move(init),
                                            s ^ 0x9747b28c, opt);
    return r.converged ? r.convergence_time : -1.0;
  });
}

std::vector<double> sublinear_sample(engine_spec spec, std::uint64_t base,
                                     std::size_t trials) {
  const std::uint32_t n = 32;
  const std::uint32_t h = 2;
  return run_trials(trials, base, [=](std::uint64_t s) -> double {
    sublinear_time_ssr p(n, h);
    rng_t rng(s);
    auto init = adversarial_configuration(
        p, sublinear_scenario::uniform_random, rng);
    convergence_options opt;
    opt.max_parallel_time = 1e8;
    const auto r = measure_convergence_with(spec, p, std::move(init),
                                            s ^ 0x85ebca6b, opt);
    return r.converged ? r.convergence_time : -1.0;
  });
}

std::vector<double> loose_sample(engine_spec spec, std::uint64_t base,
                                 std::size_t trials) {
  const std::uint32_t n = 32;
  const std::uint32_t t_max = 20;  // 4 log2 n
  return run_trials(trials, base, [=](std::uint64_t s) -> double {
    loose_stabilizing_le p(n, t_max);
    convergence_options opt;
    opt.max_parallel_time = 200'000;
    const convergence_result r = measure_convergence_with(
        spec, p, p.dead_configuration(), s, opt);
    return r.converged ? r.convergence_time : -1.0;
  });
}

// Leader count after a fixed horizon of 8n interactions from the dead
// configuration -- early enough that timeouts are still minting leaders, so
// the distribution is non-degenerate.  KS over a discrete observable is
// conservative (ties only lower the statistic), which is the safe direction
// for an equivalence wall.
std::vector<double> loose_leader_counts(engine_spec spec, std::uint64_t base,
                                        std::size_t trials) {
  const std::uint32_t n = 32;
  const std::uint32_t t_max = 20;
  return run_trials(trials, base, [=](std::uint64_t s) -> double {
    loose_stabilizing_le p(n, t_max);
    // The loose protocol is not batch-countable, so the batched kind lands
    // on the block-sampling path.
    return with_engine(spec, p, p.dead_configuration(), s, [&](auto& eng) {
      eng.run(
          std::uint64_t{8} * n, [](const agent_pair&) {},
          [](const agent_pair&, bool) { return false; });
      return static_cast<double>(p.leader_count(eng.agents()));
    });
  });
}

TEST(EngineEquivalence, SilentNStateStabilizationTimes) {
  const auto direct = baseline_sample(engine_kind::direct, 1101, 200);
  const auto batched = baseline_sample(engine_kind::batched, 2203, 200);
  expect_all_converged(direct);
  expect_all_converged(batched);
  expect_ks_equivalent(direct, batched, "batched");
}

TEST(EngineEquivalence, OptimalSilentStabilizationTimes) {
  const auto direct = optimal_sample(engine_kind::direct, 3307, 150);
  const auto batched = optimal_sample(engine_kind::batched, 4409, 150);
  expect_all_converged(direct);
  expect_all_converged(batched);
  expect_ks_equivalent(direct, batched, "batched");
}

TEST(EngineEquivalence, SublinearStabilizationTimes) {
  const auto direct = sublinear_sample(engine_kind::direct, 5113, 120);
  const auto batched = sublinear_sample(engine_kind::batched, 6217, 120);
  expect_all_converged(direct);
  expect_all_converged(batched);
  expect_ks_equivalent(direct, batched, "batched");
}

TEST(EngineEquivalence, LooseLeaderElectionTimes) {
  const auto direct = loose_sample(engine_kind::direct, 5501, 150);
  const auto batched = loose_sample(engine_kind::batched, 6607, 150);
  expect_all_converged(direct);
  expect_all_converged(batched);
  expect_ks_equivalent(direct, batched, "batched (block path)");
}

TEST(EngineEquivalence, LooseLeaderCountDistribution) {
  const auto direct =
      loose_leader_counts(engine_kind::direct, 7109, 200);
  const auto batched =
      loose_leader_counts(engine_kind::batched, 7211, 200);
  // The horizon must land where the observable still varies, or the wall
  // would pass vacuously on a constant distribution.
  ASSERT_GT(std::set<double>(direct.begin(), direct.end()).size(), 1u);
  expect_ks_equivalent(direct, batched, "batched leader counts");
}

// A same-protocol direct-vs-direct comparison must of course also pass;
// this guards the harness itself (a bug that made the two samples dependent
// or degenerate could vacuously pass the tests above).
TEST(EngineEquivalence, HarnessSanityIndependentDirectSamples) {
  const auto a = baseline_sample(engine_kind::direct, 7701, 120);
  const auto b = baseline_sample(engine_kind::direct, 8803, 120);
  expect_all_converged(a);
  expect_all_converged(b);
  EXPECT_GT(ks_two_sample(a, b).p_value, kAlpha);
  // And the samples really are different draws, not copies.
  EXPECT_NE(a, b);
}

}  // namespace
