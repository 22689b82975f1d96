// ssr_cli -- command-line driver for the library.
//
// Runs any protocol from any adversarial scenario on any topology, printing
// periodic configuration summaries and a final verdict.  Examples:
//
//   ssr_cli --protocol=optimal --n=64 --scenario=all_dormant_followers
//   ssr_cli --protocol=baseline --n=16 --graph=ring --max-time=10000
//   ssr_cli --protocol=sublinear --n=16 --h=3 --scenario=single_collision
//           (add --trace-every=50 for periodic summaries)
//   ssr_cli --protocol=loose --n=64 --t-max=40
//   ssr_cli --protocol=optimal --n=64 --json=run.json --trace-out=run.jsonl
//
// Bundle subcommands (docs/bundles.md):
//
//   ssr_cli run <scenario.json> --out <dir>       scenario -> run bundle
//   ssr_cli bundle verify <dir>                   recheck manifest sha256s
//   ssr_cli baseline capture <dir> --baselines <dir>
//   ssr_cli compare <dir> --against <file-or-dir> [--ks-alpha=..]
//           [--mean-tolerance=..] [--value-tolerance=..]
//
// compare exits 0 when every gate passes, 1 on regression, 2 when the
// inputs are unusable (failed verification, fingerprint mismatch).
//
// --json writes a machine-readable run summary (verdict, parallel time,
// engine counters); --trace-out writes the structured event stream
// (obs/trace.hpp) as JSONL.  Tracing observes interactions through the
// engine hook API, so it requires the complete graph and routes the run
// through direct_engine/batched_engine/sharded_engine per --engine.
// --engine=sharded runs the sharded engine's sequential hooked mode (the
// CLI's summaries and verdict need per-interaction hooks); its threaded
// run_parallel twin is exercised by bench_engine_scaling and the TSan test
// suite and is bit-identical by construction (pp/sharded_scheduler.hpp).
//
// Exit code 0 iff the run reached a correct configuration.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>

#include "analysis/protocol_lint/lint.hpp"
#include "analysis/trace_stats.hpp"
#include "obs/bundle.hpp"
#include "obs/engine_counters.hpp"
#include "obs/exposition.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/progress.hpp"
#include "obs/scenario.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "pp/graph_simulation.hpp"
#include "protocols/adversary.hpp"
#include "protocols/describe.hpp"
#include "serve/request_context.hpp"
#include "serve/runner.hpp"
#include "ssr.hpp"
#include "util/edit_distance.hpp"
#include "util/request_spec.hpp"

namespace {

using namespace ssr;

struct options {
  std::string protocol = "optimal";
  std::uint32_t n = 32;
  std::uint32_t h = 1;
  std::uint32_t t_max = 0;  // loose: 0 = 4 log2 n
  std::string scenario = "uniform_random";
  std::string graph = "complete";
  double graph_p = 0.9;  // for --graph=gnp
  std::uint64_t seed = 1;
  double max_time = 1e7;
  double trace_every = 0.0;  // 0 = only start/end
  bool show_agents = false;
  std::string dump_path;   // write the starting configuration here
  std::string load_path;   // read the starting configuration instead
  std::string json_path;   // write a machine-readable run summary here
  std::string trace_path;  // write the structured event stream (JSONL) here
  std::uint64_t trace_sample_every = 1;  // keep every k-th phase transition
  std::size_t trace_cap = 1u << 20;      // trace event buffer cap
  bool progress = false;   // heartbeat on stderr for long runs
  bool lint = false;       // run the protocol linter before simulating
  bool profile = false;    // hierarchical section profiling (wall + perf)
  std::string profile_out;     // folded-stack output path (implies profile)
  std::string profile_chrome;  // chrome trace output path (implies profile)
  engine_kind engine = engine_kind::direct;
  std::uint32_t shards = 0;  // sharded engine: 0 = hardware concurrency

  obs::trace_options trace_options() const {
    return {.sample_every = trace_sample_every, .max_events = trace_cap};
  }
};

constexpr std::string_view cli_flags[] = {
    "--protocol",       "--n",           "--h",
    "--t-max",          "--scenario",    "--graph",
    "--graph-p",        "--engine",      "--shards",
    "--seed",
    "--max-time",       "--trace-every", "--show-agents",
    "--dump",           "--load",        "--json",
    "--trace-out",      "--trace-sample-every",
    "--trace-cap",      "--progress",    "--profile",
    "--profile-out",    "--profile-chrome", "--lint",
    "--list-protocols", "--list-scenarios", "--help",
};

constexpr std::pair<std::string_view, optimal_silent_scenario>
    optimal_scenarios[] = {
        {"uniform_random", optimal_silent_scenario::uniform_random},
        {"all_settled_rank_one",
         optimal_silent_scenario::all_settled_rank_one},
        {"no_leader", optimal_silent_scenario::no_leader},
        {"all_unsettled_expired",
         optimal_silent_scenario::all_unsettled_expired},
        {"all_dormant_followers",
         optimal_silent_scenario::all_dormant_followers},
        {"duplicated_ranks", optimal_silent_scenario::duplicated_ranks},
        {"valid_ranking", optimal_silent_scenario::valid_ranking},
};

constexpr std::pair<std::string_view, sublinear_scenario>
    sublinear_scenarios[] = {
        {"uniform_random", sublinear_scenario::uniform_random},
        {"all_same_name", sublinear_scenario::all_same_name},
        {"single_collision", sublinear_scenario::single_collision},
        {"ghost_names", sublinear_scenario::ghost_names},
        {"missing_own_name", sublinear_scenario::missing_own_name},
        {"planted_histories", sublinear_scenario::planted_histories},
        {"mid_reset", sublinear_scenario::mid_reset},
        {"valid_ranking", sublinear_scenario::valid_ranking},
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: ssr_cli [options]\n"
      "  --protocol=baseline|optimal|sublinear|loose\n"
      "  --n=<int>              population size (default 32)\n"
      "  --h=<int>              sublinear history depth (default 1)\n"
      "  --t-max=<int>          loose timeout (default 4 log2 n)\n"
      "  --scenario=<name>      adversarial start (default uniform_random;\n"
      "                         see --list-scenarios)\n"
      "  --graph=complete|ring|star|path|gnp   (baseline/optimal only)\n"
      "  --graph-p=<float>      edge probability for gnp (default 0.9)\n"
      "  --engine=direct|batched|sharded  simulation engine (default\n"
      "                         direct; batched and sharded assume the\n"
      "                         uniform complete-graph scheduler, so they\n"
      "                         need --graph=complete)\n"
      "  --shards=<int>         sharded engine worker shard count (>= 1;\n"
      "                         requires --engine=sharded; omit the flag\n"
      "                         for hardware concurrency)\n"
      "  --seed=<int>           rng seed (default 1)\n"
      "  --max-time=<float>     parallel-time budget (default 1e7)\n"
      "  --trace-every=<float>  summary every T time units\n"
      "  --show-agents          dump every agent state at start/end\n"
      "  --dump=<file>          write the starting configuration (see\n"
      "                         protocols/serialize.hpp for the format)\n"
      "  --load=<file>          start from a saved configuration\n"
      "  --json=<file>          write a machine-readable run summary\n"
      "  --trace-out=<file>     write the structured event stream as JSONL\n"
      "                         (requires --graph=complete; runs through the\n"
      "                         selected engine)\n"
      "  --trace-sample-every=<k>  keep every k-th phase_transition event\n"
      "                         (default 1 = all; structural events are\n"
      "                         never sampled out)\n"
      "  --trace-cap=<int>      trace event buffer cap (default 2^20;\n"
      "                         excess events are counted as dropped)\n"
      "  --progress             print a heartbeat line to stderr every few\n"
      "                         seconds (parallel time, interactions/s, ETA)\n"
      "  --lint                 run the protocol model linter (strict) on\n"
      "                         the selected protocol before simulating;\n"
      "                         exits 1 without simulating on violations\n"
      "  --profile              hierarchical section profiling: hardware\n"
      "                         counters when available, wall time always;\n"
      "                         the section table lands in the --json summary\n"
      "                         (requires --graph=complete; runs through the\n"
      "                         selected engine)\n"
      "  --profile-out=<file>   also write the profile as a folded-stack\n"
      "                         file (flamegraph.pl / speedscope); implies\n"
      "                         --profile\n"
      "  --profile-chrome=<file>  also write the profile spans as chrome\n"
      "                         trace-event JSON (Perfetto); implies\n"
      "                         --profile\n"
      "  --list-protocols       print the protocol names and exit\n"
      "  --list-scenarios       print the per-protocol scenario names and "
      "exit\n"
      "                         (add bare --json to either list flag for a\n"
      "                         machine-readable document)\n"
      "\n"
      "subcommands (run bundles; see docs/bundles.md):\n"
      "  ssr_cli run <scenario.json> --out <dir>\n"
      "  ssr_cli bundle verify <dir>\n"
      "  ssr_cli baseline capture <dir> --baselines <dir>\n"
      "  ssr_cli compare <dir> --against <file-or-dir>\n";
  std::exit(2);
}

constexpr std::pair<std::string_view, std::string_view> protocol_blurbs[] = {
    {"baseline",
     "Silent-n-state-SSR (Theta(n^2) time, n states; Table 1 row 1)"},
    {"optimal", "Optimal-Silent-SSR (O(n) time, O(n) states; Theorem 4.1)"},
    {"sublinear",
     "Sublinear-Time-SSR (O(n/2^h polylog n) time; Theorem 5.1)"},
    {"loose",
     "loose-stabilizing LE (Theta(log n)-state comparison point)"},
};

std::string_view blurb_of(std::string_view protocol) {
  for (const auto& [name, blurb] : protocol_blurbs)
    if (name == protocol) return blurb;
  return {};
}

/// --list-protocols; with the bare --json modifier the listing is a
/// machine-readable document instead of aligned text.
[[noreturn]] void list_protocols(bool json) {
  if (json) {
    obs::json_value doc = obs::json_value::object();
    doc["schema"] = "ssr.protocols";
    doc["schema_version"] = 1;
    obs::json_value arr = obs::json_value::array();
    for (const std::string_view protocol : util::protocol_names()) {
      obs::json_value item = obs::json_value::object();
      item["name"] = std::string(protocol);
      item["description"] = std::string(blurb_of(protocol));
      arr.push_back(std::move(item));
    }
    doc["protocols"] = std::move(arr);
    std::cout << doc.dump(2) << '\n';
    std::exit(0);
  }
  std::cout
      << "baseline   Silent-n-state-SSR (Theta(n^2) time, n states; Table 1 "
         "row 1)\n"
      << "optimal    Optimal-Silent-SSR (O(n) time, O(n) states; Theorem "
         "4.1)\n"
      << "sublinear  Sublinear-Time-SSR (O(n/2^h polylog n) time; Theorem "
         "5.1)\n"
      << "loose      loose-stabilizing LE (Theta(log n)-state comparison "
         "point)\n";
  std::exit(0);
}

[[noreturn]] void list_scenarios(bool json) {
  // One source of truth for names: the shared request-spec tables the
  // benches and ssr_serve validate against (util/request_spec.hpp).
  if (json) {
    obs::json_value doc = obs::json_value::object();
    doc["schema"] = "ssr.scenarios";
    doc["schema_version"] = 1;
    obs::json_value arr = obs::json_value::array();
    for (const std::string_view protocol : util::protocol_names()) {
      obs::json_value item = obs::json_value::object();
      item["name"] = std::string(protocol);
      obs::json_value names = obs::json_value::array();
      for (const std::string_view name : util::scenario_names(protocol))
        names.push_back(std::string(name));
      item["scenarios"] = std::move(names);
      arr.push_back(std::move(item));
    }
    doc["protocols"] = std::move(arr);
    std::cout << doc.dump(2) << '\n';
    std::exit(0);
  }
  for (const std::string_view protocol : util::protocol_names()) {
    std::cout << protocol << ':';
    for (const std::string_view name : util::scenario_names(protocol))
      std::cout << ' ' << name;
    std::cout << '\n';
  }
  std::exit(0);
}

options parse(int argc, char** argv) {
  options opt;
  // Bare --json is the machine-readable modifier for the list modes; it
  // may appear on either side of the list flag, so pre-scan.
  bool json_list = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") json_list = true;
  }
  // Spec-shaped flags (protocol, scenario, n, h, t-max, seed, max-time,
  // engine, shards) funnel through the shared builder so the CLI rejects
  // bad specs with exactly the diagnostics the benches and ssr_serve
  // produce (util/request_spec.hpp).
  util::spec_builder builder;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") usage();
    if (arg == "--list-protocols") list_protocols(json_list);
    if (arg == "--list-scenarios") list_scenarios(json_list);
    if (arg == "--json")
      usage("--json needs a value (--json=<file>); the bare flag is only a "
            "modifier for --list-protocols/--list-scenarios");
    if (arg == "--show-agents") {
      opt.show_agents = true;
      continue;
    }
    if (auto v = value_of("--protocol")) {
      builder.set_protocol(*v);
      continue;
    }
    if (auto v = value_of("--n")) {
      builder.set_u64_text("n", *v);
      continue;
    }
    if (auto v = value_of("--h")) {
      builder.set_u64_text("h", *v);
      continue;
    }
    if (auto v = value_of("--t-max")) {
      builder.set_u64_text("t_max", *v);
      continue;
    }
    if (auto v = value_of("--scenario")) {
      builder.set_scenario(*v);
      continue;
    }
    if (auto v = value_of("--graph")) {
      opt.graph = *v;
      continue;
    }
    if (auto v = value_of("--graph-p")) {
      opt.graph_p = std::stod(*v);
      continue;
    }
    if (auto v = value_of("--engine")) {
      builder.set_engine(*v);
      continue;
    }
    if (auto v = value_of("--shards")) {
      builder.set_u64_text("shards", *v);
      continue;
    }
    if (auto v = value_of("--seed")) {
      builder.set_u64_text("seed", *v);
      continue;
    }
    if (auto v = value_of("--max-time")) {
      builder.set_max_time_text(*v);
      continue;
    }
    if (auto v = value_of("--trace-every")) {
      opt.trace_every = std::stod(*v);
      continue;
    }
    if (auto v = value_of("--dump")) {
      opt.dump_path = *v;
      continue;
    }
    if (auto v = value_of("--load")) {
      opt.load_path = *v;
      continue;
    }
    if (auto v = value_of("--json")) {
      opt.json_path = *v;
      continue;
    }
    if (auto v = value_of("--trace-out")) {
      opt.trace_path = *v;
      continue;
    }
    if (auto v = value_of("--trace-sample-every")) {
      opt.trace_sample_every = std::stoull(*v);
      if (opt.trace_sample_every == 0)
        usage("--trace-sample-every must be >= 1");
      continue;
    }
    if (auto v = value_of("--trace-cap")) {
      opt.trace_cap = static_cast<std::size_t>(std::stoull(*v));
      continue;
    }
    if (arg == "--progress") {
      opt.progress = true;
      obs::set_progress_default(true);
      continue;
    }
    if (arg == "--lint") {
      opt.lint = true;
      continue;
    }
    if (arg == "--profile") {
      opt.profile = true;
      continue;
    }
    if (auto v = value_of("--profile-out")) {
      opt.profile = true;
      opt.profile_out = *v;
      continue;
    }
    if (auto v = value_of("--profile-chrome")) {
      opt.profile = true;
      opt.profile_chrome = *v;
      continue;
    }
    const std::string name = arg.substr(0, arg.find('='));
    std::string message = "unknown argument '" + name + "'";
    const std::string_view suggestion = nearest_candidate(name, cli_flags);
    if (!suggestion.empty())
      message += " (did you mean " + std::string(suggestion) + "?)";
    usage(message);
  }
  const std::vector<util::spec_error> errors = builder.finalize();
  if (!errors.empty()) usage(util::render_errors(errors));
  const util::sim_request_spec& spec = builder.spec();
  opt.protocol = spec.protocol;
  opt.scenario = spec.scenario;
  opt.n = spec.n;
  opt.h = spec.h;
  opt.t_max = spec.t_max;
  opt.seed = spec.seed;
  opt.max_time = spec.max_time;
  opt.engine = spec.engine.kind;
  opt.shards = spec.engine.shards;
  if (opt.engine != engine_kind::direct && opt.graph != "complete")
    usage("--engine=" + std::string(to_string(opt.engine)) +
          " requires --graph=complete");
  if (!opt.trace_path.empty() && opt.graph != "complete")
    usage("--trace-out requires --graph=complete (tracing attaches to the "
          "engine hook API)");
  if (opt.profile && opt.graph != "complete")
    usage("--profile requires --graph=complete (profiling attaches to the "
          "engine)");
  return opt;
}

interaction_graph make_graph(const options& opt) {
  if (opt.graph == "complete") return interaction_graph::complete(opt.n);
  if (opt.graph == "ring") return interaction_graph::ring(opt.n);
  if (opt.graph == "star") return interaction_graph::star(opt.n);
  if (opt.graph == "path") return interaction_graph::path(opt.n);
  if (opt.graph == "gnp")
    return interaction_graph::erdos_renyi(opt.n, opt.graph_p, opt.seed ^ 0x9e);
  usage("unknown graph: " + opt.graph);
}

optimal_silent_scenario parse_optimal_scenario(const std::string& s) {
  for (const auto& [name, value] : optimal_scenarios)
    if (name == s) return value;
  const std::string_view suggestion = nearest_candidate(
      s, [] {
        static std::vector<std::string_view> names;
        if (names.empty())
          for (const auto& [name, _] : optimal_scenarios)
            names.push_back(name);
        return std::span<const std::string_view>(names);
      }());
  std::string message = "unknown optimal scenario: " + s;
  if (!suggestion.empty())
    message += " (did you mean " + std::string(suggestion) + "?)";
  usage(message);
}

sublinear_scenario parse_sublinear_scenario(const std::string& s) {
  for (const auto& [name, value] : sublinear_scenarios)
    if (name == s) return value;
  const std::string_view suggestion = nearest_candidate(
      s, [] {
        static std::vector<std::string_view> names;
        if (names.empty())
          for (const auto& [name, _] : sublinear_scenarios)
            names.push_back(name);
        return std::span<const std::string_view>(names);
      }());
  std::string message = "unknown sublinear scenario: " + s;
  if (!suggestion.empty())
    message += " (did you mean " + std::string(suggestion) + "?)";
  usage(message);
}

/// Single-run heartbeat behind --progress: owns a metrics registry whose
/// run.* gauges the drive loops refresh at each checkpoint window; the
/// background meter renders parallel-time progress, interactions/s, and an
/// ETA on stderr (obs/progress.hpp).  A disabled instance is inert.
class run_progress {
 public:
  explicit run_progress(const options& opt) {
    if (!opt.progress) return;
    registry_.emplace();
    registry_->get_gauge("run.max_parallel_time").set(opt.max_time);
    meter_.emplace(*registry_,
                   obs::progress_options{.label = opt.protocol});
  }

  void update(double parallel_time, std::uint64_t interactions) {
    if (!registry_) return;
    registry_->get_gauge("run.parallel_time").set(parallel_time);
    registry_->get_gauge("engine.interactions_executed")
        .set(static_cast<double>(interactions));
  }

  /// Final gauge refresh + meter shutdown, so the last heartbeat cannot
  /// interleave with the verdict lines.
  void finish(double parallel_time, std::uint64_t interactions) {
    update(parallel_time, interactions);
    if (meter_) meter_->stop();
  }

 private:
  std::optional<obs::metrics_registry> registry_;
  std::optional<obs::progress_meter> meter_;
};

/// Single-run profiling behind --profile: owns the counter group (degraded
/// gracefully where perf_event_open is restricted) and the section
/// collector rooted at "run"; the drive loops attach the profiler to their
/// engine.  finish() writes the requested folded-stack / chrome artifacts
/// and returns the profile JSON for the --json summary.  A disabled
/// instance is inert and hands the engine a null profiler.
class run_profile {
 public:
  explicit run_profile(const options& opt) : opt_(&opt) {
    if (!opt.profile) return;
    perf_.emplace();
    if (!perf_->available())
      std::cerr << "profile: hardware counters unavailable ("
                << perf_->status() << "); recording wall time only\n";
    profiler_.emplace(obs::timeline_options{.perf = &*perf_});
    root_ = profiler_->enter("run");
  }

  obs::timeline_profiler* profiler() {
    return profiler_.has_value() ? &*profiler_ : nullptr;
  }

  /// Closes the root section, writes --profile-out / --profile-chrome, and
  /// returns the profile block for the --json summary (nullopt when
  /// profiling is off).
  std::optional<obs::json_value> finish() {
    if (!profiler_) return std::nullopt;
    profiler_->exit(root_);
    const obs::timeline_profile profile = profiler_->profile();
    if (!opt_->profile_out.empty()) {
      std::ofstream out(opt_->profile_out);
      if (!out) usage("cannot write " + opt_->profile_out);
      profile.write_folded(out);
      std::cout << "profile: " << opt_->profile_out << '\n';
    }
    if (!opt_->profile_chrome.empty()) {
      std::ofstream out(opt_->profile_chrome);
      if (!out) usage("cannot write " + opt_->profile_chrome);
      out << chrome_profile_json(profile).dump(2) << '\n';
      std::cout << "profile chrome trace: " << opt_->profile_chrome << '\n';
    }
    std::optional<obs::json_value> json = profile.to_json();
    profiler_.reset();
    perf_.reset();
    return json;
  }

 private:
  const options* opt_;
  std::optional<obs::perf_counter_group> perf_;
  std::optional<obs::timeline_profiler> profiler_;
  std::uint32_t root_ = 0;
};

/// Checkpoint window for the drive loops: --trace-every wins; otherwise
/// --progress forces periodic returns from the engine so the heartbeat
/// gauges advance; otherwise one full-budget window.
double progress_window(const options& opt) {
  if (opt.trace_every > 0) return opt.trace_every;
  if (opt.progress) return std::max(opt.max_time / 1024.0, 1.0);
  return opt.max_time;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Writes the --json run summary: the verdict plus everything a script
/// needs to re-run or classify the run.  Engine counters and trace stats
/// appear when the run went through an engine / had a trace attached.
void write_summary(const options& opt, bool stabilized, double time,
                   std::uint64_t interactions,
                   const obs::engine_counters* counters,
                   const obs::trace_sink* sink,
                   const std::optional<obs::json_value>& profile =
                       std::nullopt) {
  if (opt.json_path.empty()) return;
  obs::json_value doc = obs::json_value::object();
  doc["schema_version"] = 1;
  doc["tool"] = "ssr_cli";
  doc["protocol"] = opt.protocol;
  doc["n"] = static_cast<std::uint64_t>(opt.n);
  doc["scenario"] = opt.scenario;
  doc["graph"] = opt.graph;
  doc["engine"] = std::string(to_string(opt.engine));
  doc["seed"] = opt.seed;
  doc["stabilized"] = stabilized;
  doc["parallel_time"] = time;
  doc["interactions"] = interactions;
  if (counters != nullptr) doc["engine_counters"] = obs::to_json(*counters);
  if (sink != nullptr) {
    obs::json_value trace = obs::json_value::object();
    trace["events"] = static_cast<std::uint64_t>(sink->events().size());
    trace["offered"] = sink->offered();
    trace["sampled_out"] = sink->sampled_out();
    trace["dropped"] = sink->dropped();
    doc["trace"] = std::move(trace);
  }
  if (profile.has_value()) doc["profile"] = *profile;
  std::ofstream out(opt.json_path);
  if (!out) usage("cannot write " + opt.json_path);
  out << doc.dump(2) << '\n';
  std::cout << "summary: " << opt.json_path << '\n';
}

void write_trace(const obs::trace_sink& sink, const std::string& path,
                 std::span<const std::string_view> phase_names) {
  std::ofstream out(path);
  if (!out) usage("cannot write " + path);
  sink.write_jsonl(out, phase_names);
  std::cout << "trace: " << path << " (" << sink.events().size()
            << " events, " << sink.offered() << " offered)\n";
}

/// Applies --dump/--load: optionally replaces `initial` with a saved
/// configuration, optionally writes the starting configuration out.
template <class P>
std::vector<typename P::agent_state> resolve_initial(
    const options& opt, const P& protocol,
    std::vector<typename P::agent_state> initial) {
  if (!opt.load_path.empty())
    initial = config_from_text(protocol, slurp(opt.load_path));
  if (!opt.dump_path.empty()) {
    std::ofstream out(opt.dump_path);
    if (!out) usage("cannot write " + opt.dump_path);
    out << to_text(protocol, initial);
    std::cout << "wrote starting configuration to " << opt.dump_path << '\n';
  }
  return initial;
}

/// Engine-based counterpart of drive() for --engine=batched (or whenever a
/// trace is requested) on the complete graph: same summaries and verdict,
/// but the trajectory advances through a pp/engine.hpp engine, correctness
/// is tracked incrementally (the engine may skip certainly-null
/// interactions, so a per-step full-scan check would defeat the point), and
/// a phase observer emits the structured event stream for instrumented
/// protocols.
template <class Engine, class P>
int drive_engine(const options& opt, const P& protocol,
                 std::vector<typename P::agent_state> initial) {
  initial = resolve_initial(opt, protocol, std::move(initial));
  // The sharded engine takes its shard count at construction; the others
  // keep the uniform three-argument signature.
  Engine eng = [&] {
    if constexpr (requires {
                    Engine(protocol, std::move(initial), opt.seed,
                           sharded_options{});
                  }) {
      return Engine(protocol, std::move(initial), opt.seed,
                    sharded_options{.shards = opt.shards});
    } else {
      return Engine(protocol, std::move(initial), opt.seed);
    }
  }();
  obs::engine_counters counters;
  eng.attach_counters(&counters);
  run_profile prof(opt);
  eng.attach_profiler(prof.profiler());
  obs::trace_sink sink(opt.trace_options());
  obs::trace_sink* sink_ptr = opt.trace_path.empty() ? nullptr : &sink;
  run_progress progress(opt);

  std::cout << "t=0.0: " << summarize_configuration(protocol, eng.agents())
            << '\n';
  if (opt.show_agents) {
    for (std::size_t i = 0; i < eng.agents().size(); ++i)
      std::cout << "  agent " << i << ": "
                << describe(protocol, eng.agents()[i]) << '\n';
  }

  rank_tracker tracker(protocol.population_size());
  for (const auto& s : eng.agents()) tracker.add(protocol.rank_of(s));
  std::uint32_t ra = 0, rb = 0;

  const auto run_to_verdict = [&](auto&& pre_extra, auto&& post_extra) {
    const auto pre = [&](const agent_pair& pair) {
      ra = protocol.rank_of(eng.agents()[pair.initiator]);
      rb = protocol.rank_of(eng.agents()[pair.responder]);
      pre_extra(pair);
    };
    const auto post = [&](const agent_pair& pair, bool changed) {
      if (changed) {
        tracker.update(ra, protocol.rank_of(eng.agents()[pair.initiator]));
        tracker.update(rb, protocol.rank_of(eng.agents()[pair.responder]));
      }
      post_extra(pair, changed);
      return tracker.correct();
    };
    const double step_window = progress_window(opt);
    bool done = tracker.correct();
    while (!done && eng.parallel_time() < opt.max_time) {
      const double next_checkpoint =
          std::min(eng.parallel_time() + step_window, opt.max_time);
      done = eng.run(static_cast<std::uint64_t>(
                         next_checkpoint * static_cast<double>(opt.n)),
                     pre, post);
      progress.update(eng.parallel_time(), eng.interactions());
      if (opt.trace_every > 0 || done) {
        std::cout << "t=" << eng.parallel_time() << ": "
                  << summarize_configuration(protocol, eng.agents()) << '\n';
      }
    }
    return done;
  };

  bool done = false;
  if constexpr (obs::phase_instrumented_protocol<P>) {
    obs::phase_observer<P> observer(protocol, eng.agents(), sink_ptr);
    observer.begin(eng.parallel_time(), eng.interactions());
    bool was_correct = tracker.correct();
    done = run_to_verdict(
        [&](const agent_pair& pair) { observer.before(pair); },
        [&](const agent_pair& pair, bool changed) {
          observer.after(pair, changed, eng.parallel_time(),
                         eng.interactions());
          if (changed && ra == rb && ra != 0)
            observer.rank_collision(pair, eng.parallel_time(),
                                    eng.interactions());
          const bool correct = tracker.correct();
          if (correct && !was_correct)
            observer.convergence(eng.parallel_time(), eng.interactions());
          else if (!correct && was_correct)
            observer.correctness_lost(eng.parallel_time(),
                                      eng.interactions());
          was_correct = correct;
        });
    observer.end(eng.parallel_time(), eng.interactions());
    if (sink_ptr != nullptr) {
      const auto names = observer.phase_names();
      write_trace(sink, opt.trace_path, names);
    }
  } else {
    if (sink_ptr != nullptr)
      sink.emit({obs::trace_event_kind::run_start, eng.parallel_time(),
                 eng.interactions()});
    done = run_to_verdict([](const agent_pair&) {},
                          [](const agent_pair&, bool) {});
    if (sink_ptr != nullptr) {
      if (done)
        sink.emit({obs::trace_event_kind::convergence, eng.parallel_time(),
                   eng.interactions()});
      sink.emit({obs::trace_event_kind::run_end, eng.parallel_time(),
                 eng.interactions()});
      write_trace(sink, opt.trace_path, {});
    }
  }
  progress.finish(eng.parallel_time(), eng.interactions());
  const std::optional<obs::json_value> profile_json = prof.finish();

  if (opt.show_agents) {
    for (std::size_t i = 0; i < eng.agents().size(); ++i)
      std::cout << "  agent " << i << ": "
                << describe(protocol, eng.agents()[i]) << '\n';
  }
  write_summary(opt, done, eng.parallel_time(), eng.interactions(),
                &counters, sink_ptr, profile_json);
  if (done) {
    std::cout << "stabilized at t=" << eng.parallel_time() << " ("
              << eng.interactions() << " interactions); leader is the rank-1 "
              << "agent\n";
    return 0;
  }
  std::cout << "did NOT stabilize within t=" << opt.max_time << '\n';
  return 1;
}

/// Drives one run with periodic summaries; returns success.
template <class P>
int drive(const options& opt, const P& protocol,
          std::vector<typename P::agent_state> initial,
          const interaction_graph& graph) {
  initial = resolve_initial(opt, protocol, std::move(initial));
  graph_simulation<P> sim(protocol, graph, std::move(initial), opt.seed);
  std::cout << "t=0.0: " << summarize_configuration(protocol, sim.agents())
            << '\n';
  if (opt.show_agents) {
    for (std::size_t i = 0; i < sim.agents().size(); ++i)
      std::cout << "  agent " << i << ": "
                << describe(protocol, sim.agents()[i]) << '\n';
  }

  run_progress progress(opt);
  const double step_window = progress_window(opt);
  bool done = false;
  while (!done && sim.parallel_time() < opt.max_time) {
    const double next_checkpoint =
        std::min(sim.parallel_time() + step_window, opt.max_time);
    done = sim.run_until(
        [&](const graph_simulation<P>& s) {
          return is_valid_ranking(s.protocol(), s.agents()) ||
                 s.parallel_time() >= next_checkpoint;
        },
        static_cast<std::uint64_t>(opt.max_time *
                                   static_cast<double>(opt.n)));
    done = done && is_valid_ranking(protocol, sim.agents());
    progress.update(sim.parallel_time(), sim.interactions());
    if (opt.trace_every > 0 || done) {
      std::cout << "t=" << sim.parallel_time() << ": "
                << summarize_configuration(protocol, sim.agents()) << '\n';
    }
  }
  progress.finish(sim.parallel_time(), sim.interactions());

  if (opt.show_agents) {
    for (std::size_t i = 0; i < sim.agents().size(); ++i)
      std::cout << "  agent " << i << ": "
                << describe(protocol, sim.agents()[i]) << '\n';
  }
  write_summary(opt, done, sim.parallel_time(), sim.interactions(), nullptr,
                nullptr);
  if (done) {
    std::cout << "stabilized at t=" << sim.parallel_time() << " ("
              << sim.interactions() << " interactions); leader is the rank-1 "
              << "agent\n";
    return 0;
  }
  std::cout << "did NOT stabilize within t=" << opt.max_time << '\n';
  return 1;
}

/// Runs `sim` (an engine or graph_simulation) until exactly one agent is a
/// leader, checked after every interaction, or for `budget` interactions.
template <class Sim, class OnStep>
bool run_to_unique_leader(Sim& sim, std::uint64_t budget, OnStep&& on_step) {
  leader_tracker leaders;
  for (const auto& s : sim.agents()) leaders.add(sim.protocol().is_leader(s));
  return run_until_unique_leader_is(sim, leaders, true, budget,
                                    std::forward<OnStep>(on_step));
}

/// Loose LE has no ranking notion; run until a unique leader, report.
template <class Engine>
int drive_loose_engine(const options& opt, const loose_stabilizing_le& p,
                       std::vector<loose_stabilizing_le::agent_state>
                           initial) {
  Engine eng = [&] {
    if constexpr (requires {
                    Engine(p, std::move(initial), opt.seed,
                           sharded_options{});
                  }) {
      return Engine(p, std::move(initial), opt.seed,
                    sharded_options{.shards = opt.shards});
    } else {
      return Engine(p, std::move(initial), opt.seed);
    }
  }();
  obs::engine_counters counters;
  eng.attach_counters(&counters);
  run_profile prof(opt);
  eng.attach_profiler(prof.profiler());
  obs::trace_sink sink(opt.trace_options());
  obs::trace_sink* sink_ptr = opt.trace_path.empty() ? nullptr : &sink;
  run_progress progress(opt);

  std::cout << "t=0.0: " << summarize_configuration(p, eng.agents()) << '\n';
  if (sink_ptr != nullptr)
    sink.emit({obs::trace_event_kind::run_start, eng.parallel_time(),
               eng.interactions()});
  bool done = p.leader_count(eng.agents()) == 1;
  if (!done) {
    done = run_to_unique_leader(
        eng,
        static_cast<std::uint64_t>(opt.max_time *
                                   static_cast<double>(opt.n)),
        [&] {
          if ((eng.interactions() & 0xffff) == 0)
            progress.update(eng.parallel_time(), eng.interactions());
        });
  }
  progress.finish(eng.parallel_time(), eng.interactions());
  std::cout << "t=" << eng.parallel_time() << ": "
            << summarize_configuration(p, eng.agents()) << '\n';
  if (sink_ptr != nullptr) {
    if (done)
      sink.emit({obs::trace_event_kind::convergence, eng.parallel_time(),
                 eng.interactions()});
    sink.emit({obs::trace_event_kind::run_end, eng.parallel_time(),
               eng.interactions()});
    write_trace(sink, opt.trace_path, {});
  }
  const std::optional<obs::json_value> profile_json = prof.finish();
  write_summary(opt, done, eng.parallel_time(), eng.interactions(),
                &counters, sink_ptr, profile_json);
  return done ? 0 : 1;
}

// Maps the CLI protocol name to the lint-registry entries covering it; the
// sublinear entries are per history depth, so pick the one matching --h
// (the linter's sampled checks only run at h <= 2).
std::vector<std::string> lint_entries_for(const options& opt) {
  if (opt.protocol == "baseline") return {"baseline"};
  if (opt.protocol == "optimal") return {"optimal", "optimal-default"};
  if (opt.protocol == "sublinear")
    return {"sublinear-h" + std::to_string(std::min<std::uint32_t>(opt.h, 2))};
  if (opt.protocol == "loose") return {"loose"};
  return {};
}

// --lint: run the strict model lint for the selected protocol before
// simulating; on violations print the findings and refuse to simulate.
void run_lint_gate(const options& opt) {
  lint::lint_options lo;
  lo.protocols = lint_entries_for(opt);
  if (lo.protocols.empty()) return;  // unknown protocol: reported below
  const lint::lint_report report = lint::run_lint(lo);
  if (!report.passed(/*strict=*/true)) {
    std::cerr << lint::render_report(report, /*strict=*/true);
    std::cerr << "lint: model violations; refusing to simulate\n";
    std::exit(1);
  }
  std::cout << "lint: PASS (" << report.notes << " note(s))\n";
}

// ---------------------------------------------------------------------------
// Bundle subcommands: run / bundle verify / baseline capture / compare.
// Exit conventions: 0 success, 1 run failure / failed verification /
// regression, 2 bad usage or invalid inputs.

[[noreturn]] void subcommand_usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  ssr_cli run <scenario.json> --out <dir>\n"
      "      execute an ssr.scenario v1 document and write the run bundle\n"
      "      (scenario.json, run.json, events.jsonl, optional trace/profile/\n"
      "      metrics, summary.md, bundle_manifest.json)\n"
      "  ssr_cli bundle verify <dir>\n"
      "      recompute every sha256 listed in bundle_manifest.json\n"
      "  ssr_cli baseline capture <dir> --baselines <dir>\n"
      "      freeze a verified bundle's run.json as the scenario's baseline\n"
      "  ssr_cli compare <dir> --against <file-or-dir>\n"
      "          [--ks-alpha=A] [--mean-tolerance=F] [--value-tolerance=F]\n"
      "      gate a bundle against a baseline (exit 1 on regression)\n"
      "see docs/bundles.md\n";
  std::exit(2);
}

/// `--flag value` / `--flag=value` for the subcommand argv style.
std::optional<std::string> flag_value(std::span<char* const> args,
                                      std::size_t& i, std::string_view flag) {
  const std::string_view arg = args[i];
  if (arg == flag) {
    if (i + 1 >= args.size())
      subcommand_usage(std::string(flag) + " needs a value");
    return std::string(args[++i]);
  }
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) == 0) return std::string(arg.substr(prefix.size()));
  return std::nullopt;
}

std::optional<std::string> read_file(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// ssr_cli run <scenario.json> --out <dir>
int cmd_run(std::span<char* const> args) {
  std::string scenario_path;
  std::string out_dir;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--out")) {
      out_dir = *v;
      continue;
    }
    const std::string_view arg = args[i];
    if (!arg.empty() && arg[0] == '-')
      subcommand_usage("unknown run option '" + std::string(arg) + "'");
    if (!scenario_path.empty())
      subcommand_usage("run takes exactly one scenario file");
    scenario_path = arg;
  }
  if (scenario_path.empty()) subcommand_usage("run needs a scenario file");
  if (out_dir.empty()) subcommand_usage("run needs --out <dir>");

  std::string io_error;
  const std::optional<std::string> text = read_file(scenario_path, &io_error);
  if (!text.has_value()) {
    std::cerr << "error: " << io_error << '\n';
    return 2;
  }
  std::vector<util::spec_error> errors;
  const std::optional<obs::scenario_doc> scenario =
      obs::parse_scenario_text(*text, &errors);
  if (!scenario.has_value()) {
    std::cerr << "error: invalid scenario '" << scenario_path << "':\n";
    for (const util::spec_error& e : errors)
      std::cerr << "  " << e.field << ": " << e.message << '\n';
    return 2;
  }
  const util::sim_request_spec& spec = scenario->spec;
  const std::string fingerprint = spec.canonical();

  // One bundle per directory: a second run would append to the journal
  // and leave a manifest that vouches for the mix.
  for (const char* name :
       {"bundle_manifest.json", "run.json", "events.jsonl"}) {
    const std::string existing = out_dir + "/" + name;
    if (std::filesystem::exists(existing)) {
      std::cerr << "error: --out '" << out_dir << "' already holds a bundle ("
                << existing << "); pass a fresh directory\n";
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create '" << out_dir
              << "': " << ec.message() << '\n';
    return 1;
  }
  // The bundle journal shares the serve daemon's event vocabulary
  // (obs/journal.hpp) under the local-run schema tag.
  obs::journal journal{obs::journal_options{}};
  journal.open(out_dir + "/events.jsonl");
  const auto emit = [&](std::string_view event, auto&& fill) {
    obs::json_value fields = obs::json_value::object();
    fields["scenario"] = scenario->name;
    fill(fields);
    journal.emit(event, fields);
  };
  emit("admit", [&](obs::json_value& fields) {
    fields["fingerprint"] = fingerprint;
    fields["protocol"] = spec.protocol;
    fields["n"] = static_cast<std::uint64_t>(spec.n);
    fields["trials"] = spec.trials;
  });
  emit("start", [](obs::json_value&) {});

  obs::metrics_registry registry;
  obs::engine_counters counters;
  std::optional<serve::request_telemetry> telemetry;
  if (scenario->telemetry.any()) telemetry.emplace(scenario->telemetry);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&start] {
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    return std::floor(elapsed.count());
  };
  std::shared_ptr<const obs::json_value> result;
  try {
    result = serve::run_simulation(
        spec, /*cancel=*/nullptr, &registry,
        telemetry.has_value() ? &*telemetry : nullptr, &counters,
        [&](std::uint64_t completed, std::uint64_t total) {
          emit("progress", [&](obs::json_value& fields) {
            fields["trials_completed"] = completed;
            fields["trials_total"] = total;
          });
        });
  } catch (const std::exception& e) {
    emit("failed", [&](obs::json_value& fields) {
      fields["message"] = std::string(e.what());
    });
    std::cerr << "error: run failed: " << e.what() << '\n';
    return 1;
  }
  emit("complete", [&](obs::json_value& fields) {
    fields["fingerprint"] = fingerprint;
    fields["elapsed_ms"] = elapsed_ms();
  });

  obs::bundle_artifacts artifacts;
  artifacts.events = true;
  std::string trace_text;
  if (telemetry.has_value() && telemetry->options.trace) {
    std::ostringstream os;
    telemetry->trace.write_jsonl(os, telemetry->phase_names);
    trace_text = os.str();
    artifacts.trace_jsonl = &trace_text;
  }
  if (telemetry.has_value() && telemetry->options.profile) {
    artifacts.profile = &telemetry->profile;
  }
  if (scenario->emit_metrics) {
    artifacts.metrics_prom = obs::prometheus_text(registry);
  }
  const obs::bundle_result bundle = obs::write_run_bundle(
      out_dir, *scenario, *result, counters, artifacts);
  if (!bundle.ok) {
    std::cerr << "error: " << bundle.error << '\n';
    return 1;
  }
  const obs::json_value* stats =
      result->find("stats") != nullptr ? result->find("stats")->find("mean")
                                       : nullptr;
  std::cout << "bundle: " << bundle.dir << '\n';
  std::cout << "  fingerprint: " << fingerprint << '\n';
  if (stats != nullptr)
    std::cout << "  mean stabilization time: " << stats->as_double() << '\n';
  std::cout << "  manifest: " << bundle.manifest_path << '\n';
  return 0;
}

/// ssr_cli bundle verify <dir>
int cmd_bundle(std::span<char* const> args) {
  if (args.size() != 2 || std::string_view(args[0]) != "verify")
    subcommand_usage("bundle subcommand is: bundle verify <dir>");
  const std::string dir = args[1];
  const obs::manifest_check check = obs::verify_bundle(dir);
  if (!check.ok()) {
    std::cerr << "bundle verification FAILED for " << dir << ":\n";
    for (const std::string& problem : check.problems)
      std::cerr << "  " << problem << '\n';
    return 1;
  }
  std::cout << "bundle ok: " << check.files_checked
            << " file(s) verified against " << dir
            << "/bundle_manifest.json\n";
  return 0;
}

/// Loads <dir>/run.json after re-verifying the manifest; exits via return
/// code 2 semantics (nullopt) when the bundle is unusable.
std::optional<obs::json_value> load_verified_run(const std::string& dir) {
  const obs::manifest_check check = obs::verify_bundle(dir);
  if (!check.ok()) {
    std::cerr << "error: bundle verification failed for " << dir << ":\n";
    for (const std::string& problem : check.problems)
      std::cerr << "  " << problem << '\n';
    return std::nullopt;
  }
  std::string error;
  std::optional<obs::json_value> run_doc =
      obs::load_json_file(dir + "/run.json", &error);
  if (!run_doc.has_value()) std::cerr << "error: " << error << '\n';
  return run_doc;
}

/// ssr_cli baseline capture <dir> --baselines <dir>
int cmd_baseline(std::span<char* const> args) {
  if (args.empty() || std::string_view(args[0]) != "capture")
    subcommand_usage("baseline subcommand is: baseline capture <dir> "
                     "--baselines <dir>");
  std::string bundle_dir;
  std::string baselines_dir;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--baselines")) {
      baselines_dir = *v;
      continue;
    }
    const std::string_view arg = args[i];
    if (!arg.empty() && arg[0] == '-')
      subcommand_usage("unknown baseline option '" + std::string(arg) + "'");
    if (!bundle_dir.empty())
      subcommand_usage("baseline capture takes exactly one bundle dir");
    bundle_dir = arg;
  }
  if (bundle_dir.empty())
    subcommand_usage("baseline capture needs a bundle dir");
  if (baselines_dir.empty())
    subcommand_usage("baseline capture needs --baselines <dir>");

  const std::optional<obs::json_value> run_doc =
      load_verified_run(bundle_dir);
  if (!run_doc.has_value()) return 2;
  const obs::json_value doc = obs::baseline_document(*run_doc);
  const obs::json_value* name = doc.find("scenario_name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    std::cerr << "error: run.json has no scenario_name\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(baselines_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create '" << baselines_dir
              << "': " << ec.message() << '\n';
    return 1;
  }
  const std::string path = baselines_dir + "/" + name->as_string() + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot write '" << path << "'\n";
    return 1;
  }
  out << doc.dump(2) << '\n';
  out.flush();
  if (!out) {
    std::cerr << "error: short write to '" << path << "'\n";
    return 1;
  }
  std::cout << "baseline: " << path << '\n';
  return 0;
}

/// ssr_cli compare <dir> --against <file-or-dir> [threshold flags]
int cmd_compare(std::span<char* const> args) {
  std::string bundle_dir;
  std::string against;
  obs::compare_limits limits;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--against")) {
      against = *v;
      continue;
    }
    if (auto v = flag_value(args, i, "--ks-alpha")) {
      limits.ks_alpha = std::stod(*v);
      continue;
    }
    if (auto v = flag_value(args, i, "--mean-tolerance")) {
      limits.sample_mean_tolerance = std::stod(*v);
      continue;
    }
    if (auto v = flag_value(args, i, "--value-tolerance")) {
      limits.value_tolerance = std::stod(*v);
      continue;
    }
    const std::string_view arg = args[i];
    if (!arg.empty() && arg[0] == '-')
      subcommand_usage("unknown compare option '" + std::string(arg) + "'");
    if (!bundle_dir.empty())
      subcommand_usage("compare takes exactly one bundle dir");
    bundle_dir = arg;
  }
  if (bundle_dir.empty()) subcommand_usage("compare needs a bundle dir");
  if (against.empty()) subcommand_usage("compare needs --against <baseline>");

  const std::optional<obs::json_value> run_doc =
      load_verified_run(bundle_dir);
  if (!run_doc.has_value()) return 2;

  // --against a directory resolves to <dir>/<scenario_name>.json -- the
  // layout baseline capture writes.
  std::string baseline_path = against;
  if (std::filesystem::is_directory(against)) {
    const obs::json_value* name = run_doc->find("scenario_name");
    if (name == nullptr || !name->is_string()) {
      std::cerr << "error: run.json has no scenario_name\n";
      return 2;
    }
    baseline_path = against + "/" + name->as_string() + ".json";
  }
  std::string error;
  const std::optional<obs::json_value> baseline =
      obs::load_json_file(baseline_path, &error);
  if (!baseline.has_value()) {
    std::cerr << "error: " << error << '\n';
    return 2;
  }

  const obs::bundle_comparison comparison =
      obs::compare_against_baseline(*run_doc, *baseline, limits);
  if (!comparison.ok) {
    std::cerr << "error: " << comparison.error << '\n';
    return 2;
  }
  std::cout << "comparing " << bundle_dir << " against " << baseline_path
            << '\n';
  for (const obs::metric_verdict& v : comparison.verdicts) {
    const char* tag = !v.verdict.comparable ? "SKIP"
                      : v.verdict.regression ? "REGRESSION"
                                             : "ok";
    std::cout << "  [" << tag << "] " << v.key << ": base "
              << v.verdict.base_mean << " -> now " << v.verdict.new_mean
              << " (" << v.verdict.detail << ")\n";
  }
  std::cout << comparison.compared << " metric(s) compared, "
            << comparison.regressions << " regression(s)\n";
  return comparison.regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand dispatch precedes flag parsing: a first argument that
  // doesn't start with '-' selects the bundle workflows.
  if (argc > 1 && argv[1][0] != '-') {
    const std::string_view command = argv[1];
    const std::span<char* const> rest(argv + 2,
                                      static_cast<std::size_t>(argc - 2));
    if (command == "run") return cmd_run(rest);
    if (command == "bundle") return cmd_bundle(rest);
    if (command == "baseline") return cmd_baseline(rest);
    if (command == "compare") return cmd_compare(rest);
    subcommand_usage("unknown subcommand '" + std::string(command) +
                     "' (expected run, bundle, baseline, or compare)");
  }
  const options opt = parse(argc, argv);
  if (opt.lint) run_lint_gate(opt);
  rng_t scenario_rng(opt.seed ^ 0xabcdef123456ULL);
  const interaction_graph graph = make_graph(opt);

  const bool batched = opt.engine == engine_kind::batched;
  const bool sharded = opt.engine == engine_kind::sharded;
  // Tracing and profiling attach to the engine, so either request routes
  // even --engine=direct runs through direct_engine instead of
  // graph_simulation (parse() already pinned --graph=complete for these).
  const bool engine_path =
      batched || sharded || !opt.trace_path.empty() || opt.profile;
  if (opt.protocol == "baseline") {
    silent_n_state_ssr p(opt.n);
    auto init = adversarial_configuration(p, scenario_rng);
    if (engine_path) {
      if (sharded)
        return drive_engine<sharded_engine<silent_n_state_ssr>>(
            opt, p, std::move(init));
      return batched
                 ? drive_engine<batched_engine<silent_n_state_ssr>>(
                       opt, p, std::move(init))
                 : drive_engine<direct_engine<silent_n_state_ssr>>(
                       opt, p, std::move(init));
    }
    return drive(opt, p, std::move(init), graph);
  }
  if (opt.protocol == "optimal") {
    optimal_silent_ssr p(opt.n);
    auto init = adversarial_configuration(
        p, parse_optimal_scenario(opt.scenario), scenario_rng);
    if (engine_path) {
      if (sharded)
        return drive_engine<sharded_engine<optimal_silent_ssr>>(
            opt, p, std::move(init));
      return batched ? drive_engine<batched_engine<optimal_silent_ssr>>(
                           opt, p, std::move(init))
                     : drive_engine<direct_engine<optimal_silent_ssr>>(
                           opt, p, std::move(init));
    }
    return drive(opt, p, std::move(init), graph);
  }
  if (opt.protocol == "sublinear") {
    if (opt.graph != "complete")
      usage("sublinear runs on the complete graph only");
    sublinear_time_ssr p(opt.n, opt.h);
    auto init = adversarial_configuration(
        p, parse_sublinear_scenario(opt.scenario), scenario_rng);
    if (engine_path) {
      if (sharded)
        return drive_engine<sharded_engine<sublinear_time_ssr>>(
            opt, p, std::move(init));
      return batched ? drive_engine<batched_engine<sublinear_time_ssr>>(
                           opt, p, std::move(init))
                     : drive_engine<direct_engine<sublinear_time_ssr>>(
                           opt, p, std::move(init));
    }
    return drive(opt, p, std::move(init), graph);
  }
  if (opt.protocol == "loose") {
    const auto t_max =
        opt.t_max > 0
            ? opt.t_max
            : static_cast<std::uint32_t>(
                  4 * std::ceil(std::log2(static_cast<double>(opt.n))));
    loose_stabilizing_le p(opt.n, t_max);
    auto initial =
        resolve_initial(opt, p, p.dead_configuration());  // --dump/--load
    if (engine_path) {
      if (sharded)
        return drive_loose_engine<sharded_engine<loose_stabilizing_le>>(
            opt, p, std::move(initial));
      return batched ? drive_loose_engine<batched_engine<loose_stabilizing_le>>(
                           opt, p, std::move(initial))
                     : drive_loose_engine<direct_engine<loose_stabilizing_le>>(
                           opt, p, std::move(initial));
    }
    graph_simulation<loose_stabilizing_le> sim(p, graph, std::move(initial),
                                               opt.seed);
    std::cout << "t=0.0: " << summarize_configuration(p, sim.agents())
              << '\n';
    const bool done = run_to_unique_leader(
        sim,
        static_cast<std::uint64_t>(opt.max_time *
                                   static_cast<double>(opt.n)),
        [] {});
    std::cout << "t=" << sim.parallel_time() << ": "
              << summarize_configuration(p, sim.agents()) << '\n';
    write_summary(opt, done, sim.parallel_time(), sim.interactions(),
                  nullptr, nullptr);
    return done ? 0 : 1;
  }
  // Unreachable: parse() already validated the protocol name.
  usage(util::unknown_name_message("protocol", opt.protocol,
                                   util::protocol_names()));
}
