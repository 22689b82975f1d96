// E10 -- engine microbenchmarks (google-benchmark): interaction throughput
// per protocol, the speedup of the accelerated baseline simulator, and the
// per-interaction cost of the batched engine (google-benchmark owns argv
// here, so the engines appear as separate BM_ functions rather than an
// --engine flag; bench_engine_scaling has the flag-driven head-to-head).
// These are implementation measurements (no paper counterpart) that size
// the experiments above.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace {

using namespace ssr;

/// Runs one interaction of `engine` per benchmark iteration.
template <class E>
void step_each_iteration(benchmark::State& state, E& engine) {
  for (auto _ : state) {
    engine.run(engine.interactions() + 1, [](const agent_pair&) {},
               [](const agent_pair&, bool) { return false; });
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BaselineDirectInteractions(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  silent_n_state_ssr p(n);
  rng_t rng(1);
  auto init = adversarial_configuration(p, rng);
  direct_engine<silent_n_state_ssr> engine(p, std::move(init), 2);
  step_each_iteration(state, engine);
}
BENCHMARK(BM_BaselineDirectInteractions)->Arg(64)->Arg(1024);

void BM_BaselineAcceleratedStabilization(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    std::vector<std::uint32_t> ranks(n, 0);
    accelerated_silent_n_state sim(n, ranks, ++seed);
    benchmark::DoNotOptimize(sim.run_to_stabilization());
  }
}
BENCHMARK(BM_BaselineAcceleratedStabilization)->Arg(256)->Arg(1024);

void BM_OptimalSilentInteractions(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  optimal_silent_ssr p(n);
  direct_engine<optimal_silent_ssr> engine(p, p.initial_configuration(), 3);
  step_each_iteration(state, engine);
}
BENCHMARK(BM_OptimalSilentInteractions)->Arg(64)->Arg(1024);

void BM_SublinearInteractions(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto h = static_cast<std::uint32_t>(state.range(1));
  sublinear_time_ssr p(n, h);
  rng_t rng(4);
  direct_engine<sublinear_time_ssr> engine(p, p.initial_configuration(rng),
                                           5);
  step_each_iteration(state, engine);
}
BENCHMARK(BM_SublinearInteractions)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({64, 2});

void BM_BaselineBatchedInteractions(benchmark::State& state) {
  // Count engine on Silent-n-state-SSR: items processed counts *simulated*
  // interactions, including whole geometrically-skipped runs of certain
  // nulls -- the throughput metric the batched engine exists to move.  The
  // run stabilizes (and the engine goes quiescent) well inside the timing
  // loop at these n, so it is restarted from a fresh adversarial
  // configuration whenever that happens.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  silent_n_state_ssr p(n);
  std::uint64_t seed = 1, total = 0;
  const auto make = [&] {
    rng_t rng(++seed);
    auto init = adversarial_configuration(p, rng);
    batched_engine<silent_n_state_ssr> eng(p, std::move(init), ++seed);
    eng.attach_profiler(obs::profiler_default());
    return eng;
  };
  auto eng = make();
  for (auto _ : state) {
    if (eng.quiescent()) {
      total += eng.interactions();
      eng = make();
    }
    eng.run(eng.interactions() + 1024, [](const agent_pair&) {},
            [](const agent_pair&, bool) { return false; });
  }
  total += eng.interactions();
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_BaselineBatchedInteractions)->Arg(64)->Arg(1024);

void BM_OptimalSilentBatchedInteractions(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  optimal_silent_ssr p(n);
  std::uint64_t seed = 3, total = 0;
  const auto make = [&] {
    rng_t rng(++seed);
    auto init = adversarial_configuration(
        p, optimal_silent_scenario::uniform_random, rng);
    batched_engine<optimal_silent_ssr> eng(p, std::move(init), ++seed);
    eng.attach_profiler(obs::profiler_default());
    return eng;
  };
  auto eng = make();
  for (auto _ : state) {
    if (eng.quiescent()) {
      total += eng.interactions();
      eng = make();
    }
    eng.run(eng.interactions() + 1024, [](const agent_pair&) {},
            [](const agent_pair&, bool) { return false; });
  }
  total += eng.interactions();
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_OptimalSilentBatchedInteractions)->Arg(64)->Arg(1024);

void BM_SublinearBatchedInteractions(benchmark::State& state) {
  // Sublinear-Time-SSR is not batch-countable; this exercises the
  // collision-aware block path of the batched engine.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto h = static_cast<std::uint32_t>(state.range(1));
  sublinear_time_ssr p(n, h);
  rng_t rng(4);
  batched_engine<sublinear_time_ssr> eng(p, p.initial_configuration(rng), 5);
  eng.attach_profiler(obs::profiler_default());
  std::uint64_t budget = 0;
  for (auto _ : state) {
    budget += 1024;
    eng.run(budget, [](const agent_pair&) {},
            [](const agent_pair&, bool) { return false; });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(eng.interactions()));
}
BENCHMARK(BM_SublinearBatchedInteractions)->Args({16, 2})->Args({64, 2});

void BM_RankTrackerUpdate(benchmark::State& state) {
  // The O(1) correctness tracker is on the hot path of every measurement;
  // keep it cheap.
  rank_tracker tracker(1024);
  for (std::uint32_t i = 0; i < 1024; ++i) tracker.add(i + 1);
  std::uint32_t r = 1;
  for (auto _ : state) {
    tracker.update(r, r + 1);
    tracker.update(r + 1, r);
    benchmark::DoNotOptimize(tracker.correct());
    r = r % 1000 + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankTrackerUpdate);

/// Console output as usual, plus every per-iteration run recorded as a
/// value row in BENCH_E10.json (items/sec where the benchmark reports
/// throughput, seconds per iteration otherwise).
class recording_reporter : public benchmark::ConsoleReporter {
 public:
  explicit recording_reporter(ssr::bench::reporter& rep) : rep_(&rep) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        rep_->add_value("throughput", "items_per_second",
                        run.benchmark_name(), 0, "", items->second.value,
                        "items/s", /*higher_is_better=*/true);
      } else if (run.iterations > 0) {
        rep_->add_value("throughput", "seconds_per_iteration",
                        run.benchmark_name(), 0, "",
                        run.real_accumulated_time /
                            static_cast<double>(run.iterations),
                        "s", /*higher_is_better=*/false);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  ssr::bench::reporter* rep_;
};

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark owns --benchmark_* flags; everything else goes through
  // the shared bench parser so --out-dir/--no-json (and flag typo
  // suggestions) work here like in every other bench.
  std::vector<char*> gbench_argv{argv[0]};
  std::vector<char*> ours_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    (arg.rfind("--benchmark_", 0) == 0 ? gbench_argv : ours_argv)
        .push_back(argv[i]);
  }
  const ssr::bench::bench_args args = ssr::bench::parse_bench_args(
      static_cast<int>(ours_argv.size()), ours_argv.data());
  ssr::bench::reporter rep(args, "E10",
                           "Engine microbenchmarks (google-benchmark)");

  int gbench_argc = static_cast<int>(gbench_argv.size());
  benchmark::Initialize(&gbench_argc, gbench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                             gbench_argv.data()))
    return 1;
  recording_reporter reporter(rep);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  rep.finish();
  return 0;
}
