// E15 -- head-to-head engine throughput: simulated interactions per second
// of the direct and batched engines on Silent-n-state-SSR and
// Optimal-Silent-SSR at n = 10^3 .. 10^6 and on Sublinear-Time-SSR at small
// (n, H).
//
// The quantity that matters for experiment sizing is *simulated*
// interactions per wall-clock second: the batched engine advances the same
// stochastic process (distribution-equivalence is tested in
// tests/engine_equivalence_test.cpp) but skips whole geometric runs of
// certainly-null interactions for batch-countable protocols, so its
// simulated rate grows with the null fraction -- dramatic near silence,
// where almost every sampled pair is settled/settled with distinct ranks.
// Sublinear-Time-SSR is not batch-countable (its batched engine is the
// collision-aware block path), and its rows price Table 1's
// exp(O(n^H) log n) state space: one interaction merges rosters and history
// trees, so its cost grows with n and H.
// Each cell below is time-boxed: the engine runs from its start
// configuration in growing chunks until the time budget is spent
// (restarting from a fresh start if it reaches quiescence), and reports
// simulated-interactions / elapsed-seconds.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/table.hpp"
#include "common.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace {

using namespace ssr;
using namespace ssr::bench;

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Runs engines produced by `make` for ~`budget_seconds` of wall-clock time
/// and returns simulated interactions per second.  Chunks start at one
/// interaction, because one Sublinear-Time-SSR interaction at H=4 takes
/// milliseconds, and double while they finish quickly so that clock reads
/// never dominate, which matters once the count engine skips millions of
/// nulls per executed interaction.
template <class MakeEngine>
double interactions_per_second(MakeEngine make, double budget_seconds) {
  auto eng = make();
  std::uint64_t total = 0;
  std::uint64_t chunk = 1;
  const auto start = clock_type::now();
  double elapsed = 0.0;
  while (elapsed < budget_seconds) {
    const std::uint64_t before = eng.interactions();
    eng.run(before + chunk, [](const agent_pair&) {},
            [](const agent_pair&, bool) { return false; });
    const double chunk_seconds = seconds_since(start) - elapsed;
    elapsed += chunk_seconds;
    if (eng.quiescent()) {
      // A quiescent count engine consumes the rest of the chunk budget as
      // one free jump (every remaining interaction is null); counting that
      // tail would measure skipping of a dead configuration, not
      // simulation.  Discard the chunk and restart from a fresh start.
      total += before;
      eng = make();
      continue;
    }
    if (chunk_seconds < 5e-3 && chunk < (std::uint64_t{1} << 40)) chunk *= 2;
  }
  total += eng.interactions();
  return static_cast<double>(total) / elapsed;
}

/// One row of a scaling table: the population size, and H for
/// Sublinear-Time-SSR (0 for the protocols that have none).
struct cell {
  std::uint32_t n;
  std::uint32_t h = 0;
};

/// Direct and batched rates on every cell, each engine starting from
/// make_config(make_protocol(cell), rng).  Cells with an H print it and
/// report it as their params ("h=<H>"); the others report `params`.
template <class MakeProtocol, class MakeConfig>
void scaling_table(reporter& rep, const char* protocol, const char* params,
                   const char* title, std::span<const cell> cells,
                   MakeProtocol make_protocol, MakeConfig make_config,
                   double budget_seconds) {
  using P = std::invoke_result_t<MakeProtocol, cell>;
  const bool with_h = cells.front().h != 0;
  std::cout << "\n" << title << " (time box " << format_fixed(budget_seconds, 1)
            << " s per cell):\n";
  std::vector<std::string> columns = {"n"};
  if (with_h) columns.emplace_back("H");
  columns.insert(columns.end(),
                 {"direct inter/s", "batched inter/s", "speedup"});
  text_table t(columns);
  for (const cell c : cells) {
    std::uint64_t seed = 9000 + c.n;
    const auto direct_rate = interactions_per_second(
        [&] {
          P p = make_protocol(c);
          rng_t rng(++seed);
          auto init = make_config(p, rng);
          return direct_engine<P>(p, std::move(init), ++seed);
        },
        budget_seconds);
    const auto batched_rate = interactions_per_second(
        [&] {
          P p = make_protocol(c);
          rng_t rng(++seed);
          auto init = make_config(p, rng);
          return batched_engine<P>(p, std::move(init), ++seed);
        },
        budget_seconds);
    std::vector<std::string> row = {std::to_string(c.n)};
    if (with_h) row.push_back(std::to_string(c.h));
    row.insert(row.end(), {format_count(direct_rate),
                           format_count(batched_rate),
                           format_fixed(batched_rate / direct_rate, 1) + "x"});
    t.add_row(row);
    const std::string row_params =
        with_h ? "h=" + std::to_string(c.h) : std::string(params);
    rep.add_value("engine_rate", "direct_interactions_per_second", protocol,
                  c.n, row_params, direct_rate, "interactions/s");
    rep.add_value("engine_rate", "batched_interactions_per_second", protocol,
                  c.n, row_params, batched_rate, "interactions/s");
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  banner("E15: bench_engine_scaling",
         "implementation measurement (no paper counterpart)",
         "the batched engine's geometric null-skipping buys orders of "
         "magnitude in simulated interactions/sec as n grows");
  const bench_args args = parse_bench_args(argc, argv);
  reporter rep(args, "E15", "Engine scaling: simulated interactions/sec");
  std::cout << "(this bench always measures every engine; --engine selects "
               "nothing here)\n";

  constexpr cell size_cells[] = {{1'000}, {10'000}, {100'000}, {1'000'000}};
  scaling_table(
      rep, "silent_n_state", "scenario=uniform_random",
      "Silent-n-state-SSR, uniform random ranks", size_cells,
      [](cell c) { return silent_n_state_ssr(c.n); },
      [](const silent_n_state_ssr& p, rng_t& rng) {
        return adversarial_configuration(p, rng);
      },
      0.3);

  scaling_table(
      rep, "optimal_silent", "scenario=uniform_random",
      "Optimal-Silent-SSR, uniform random start", size_cells,
      [](cell c) { return optimal_silent_ssr(c.n); },
      [](const optimal_silent_ssr& p, rng_t& rng) {
        return adversarial_configuration(
            p, optimal_silent_scenario::uniform_random, rng);
      },
      0.3);

  constexpr cell sublinear_cells[] = {{16, 1}, {16, 2}, {16, 4}, {64, 2}};
  scaling_table(
      rep, "sublinear_time", "",
      "Sublinear-Time-SSR, clean post-reset start", sublinear_cells,
      [](cell c) { return sublinear_time_ssr(c.n, c.h); },
      [](const sublinear_time_ssr& p, rng_t& rng) {
        return p.initial_configuration(rng);
      },
      0.3);

  std::cout << "\nInterpretation: the direct engine's rate is flat in n "
               "(every interaction costs one\nRNG draw + one transition), "
               "while the batched rate scales with n(n-1)/W -- the\n"
               "expected run of certainly-null pairs per maybe-active one.  "
               "The baseline's random\nstart has W ~ n, so whole Theta(n) "
               "null runs collapse into one geometric draw and\nan "
               "O(log n) count update; this is what makes the n >= 10^6 "
               "regime reachable at\nall.  Optimal-Silent's uniform-random "
               "start is the honest contrast: most agents\nstart Unsettled "
               "(volatile), nothing is certainly null, and the count "
               "engine's\nindexing overhead buys nothing until the "
               "population is largely settled.\nSublinear-Time-SSR puts "
               "Table 1's exp(O(n^H) log n) states on the clock: each\n"
               "interaction merges rosters and history trees, so its rate "
               "falls by orders of\nmagnitude as H and n grow, on either "
               "engine alike (nothing is certainly null)."
            << std::endl;
  rep.finish();
  return 0;
}
