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
// The flag mode is trial 0 of the one-trial `ssr_cli run` scenario with the
// same fields: the same trial recipe (serve/trial_recipe.hpp) builds the
// protocol, start configuration and engine seed from the trial seed
// derive_seed(--seed, 0), and the same run core (measure_convergence_run in
// pp/convergence.hpp) measures the last entry into the correct set.  So the
// reported time is that scenario's samples[0], except for baseline on
// --engine=direct, where `ssr_cli run` uses the exact jump simulator and
// this mode steps direct_engine.  --engine picks the engine over the
// complete graph (with_engine in pp/convergence.hpp);
// --graph=ring|star|path|gnp runs the same core on direct_engine over that
// graph.  --trace-every and --progress cut the run at checkpoints, which
// keeps the trajectory everywhere but for sublinear on the block path.
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
// (obs/trace.hpp) as JSONL; both, and --profile, work on every engine and
// graph.
//
// Exit code 0 iff the run reached a correct configuration; 2 on bad usage.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>

#include "analysis/trace_stats.hpp"
#include "obs/bundle.hpp"
#include "obs/engine_counters.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/progress.hpp"
#include "obs/scenario.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "pp/graph.hpp"
#include "protocols/describe.hpp"
#include "protocols/runnable.hpp"
#include "protocols/serialize.hpp"
#include "serve/request_context.hpp"
#include "serve/runner.hpp"
#include "serve/trial_recipe.hpp"
#include "util/edit_distance.hpp"
#include "util/flag_shape.hpp"
#include "util/request_spec.hpp"

namespace {

using namespace ssr;

struct options {
  /// protocol, scenario, n, h, t_max, seed, max_time and engine; trials
  /// stays 1.
  util::sim_request_spec spec;
  std::string graph = "complete";
  double graph_p = 0.9;  // for --graph=gnp
  double trace_every = 0.0;  // 0 = only start/end
  bool show_agents = false;
  std::string dump_path;   // write the starting configuration here
  std::string load_path;   // read the starting configuration instead
  std::string json_path;   // write a machine-readable run summary here
  std::string trace_path;  // write the structured event stream (JSONL) here
  std::uint64_t trace_sample_every = 1;  // keep every k-th phase transition
  std::size_t trace_cap = 1u << 20;      // trace event buffer cap
  bool progress = false;   // heartbeat on stderr for long runs
  bool profile = false;    // hierarchical section profiling (wall + perf)
  std::string profile_out;     // folded-stack output path (implies profile)
  std::string profile_chrome;  // chrome trace output path (implies profile)

  obs::trace_options trace_options() const {
    return {.sample_every = trace_sample_every, .max_events = trace_cap};
  }
};

constexpr std::string_view cli_flags[] = {
    "--protocol",       "--n",           "--h",
    "--t-max",          "--scenario",    "--graph",
    "--graph-p",        "--engine",      "--seed",
    "--max-time",       "--trace-every", "--show-agents",
    "--dump",           "--load",        "--json",
    "--trace-out",      "--trace-sample-every",
    "--trace-cap",      "--progress",    "--profile",
    "--profile-out",    "--profile-chrome",
    "--list-protocols", "--list-scenarios", "--help",
};
constexpr std::string_view switches[] = {
    "--show-agents",    "--progress",       "--profile",
    "--list-protocols", "--list-scenarios", "--help",
};

constexpr std::string_view graph_names[] = {"complete", "ring", "star",
                                            "path", "gnp"};

/// Largest --n for --graph=gnp.  G(n, p) is an explicit edge list drawn
/// over all n(n-1)/2 pairs, so its time and memory grow as n^2.
constexpr std::uint32_t max_gnp_n = 4096;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: ssr_cli [options]\n"
      "  Runs trial 0 of the one-trial `ssr_cli run` scenario with the same\n"
      "  fields and reports the same time as that run's samples[0]; the one\n"
      "  exception is baseline on --engine=direct, which `ssr_cli run`\n"
      "  simulates with the exact jump simulator and this mode steps.\n"
      "  --protocol=baseline|optimal|sublinear|loose\n"
      "  --n=<int>              population size (default 32)\n"
      "  --h=<int>              sublinear history depth (default 1)\n"
      "  --t-max=<int>          loose timeout (default 4 log2 n)\n"
      "  --scenario=<name>      adversarial start (default uniform_random;\n"
      "                         see --list-scenarios)\n"
      "  --graph=complete|ring|star|path|gnp   (not sublinear; other graphs\n"
      "                         run the same run core on the direct engine\n"
      "                         over that graph; gnp needs --n <= "
      << max_gnp_n << ")\n"
      "  --graph-p=<float>      edge probability for gnp (default 0.9)\n"
      "  --engine=direct|batched  simulation engine (default direct;\n"
      "                         batched assumes the uniform complete-graph\n"
      "                         scheduler, so it needs --graph=complete)\n"
      "  --seed=<int>           rng seed (default 1); the trial seed is\n"
      "                         derive_seed(seed, 0), as for trial 0 of a run\n"
      "  --max-time=<float>     parallel-time budget (default 1e7)\n"
      "  --trace-every=<float>  summary every T time units (cuts the run at\n"
      "                         each summary, which changes sublinear's\n"
      "                         trajectory on --engine=batched)\n"
      "  --show-agents          dump every agent state at start/end\n"
      "  --dump=<file>          write the starting configuration (see\n"
      "                         protocols/serialize.hpp for the format)\n"
      "  --load=<file>          start from a saved configuration\n"
      "  --json=<file>          write a machine-readable run summary\n"
      "  --trace-out=<file>     write the structured event stream as JSONL\n"
      "  --trace-sample-every=<k>  keep every k-th phase_transition event\n"
      "                         (default 1 = all; structural events are\n"
      "                         never sampled out)\n"
      "  --trace-cap=<int>      trace event buffer cap (default 2^20;\n"
      "                         excess events are counted as dropped)\n"
      "  --progress             print a heartbeat line to stderr every few\n"
      "                         seconds (parallel time, interactions/s, ETA;\n"
      "                         cuts the run like --trace-every)\n"
      "  --profile              hierarchical section profiling: hardware\n"
      "                         counters when available, wall time always;\n"
      "                         the section table lands in the --json summary\n"
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

/// --list-protocols (names and summaries) and --list-scenarios (names and
/// scenario names) of the runnable protocols; with the bare --json
/// modifier the listing is a versioned document instead of text.
[[noreturn]] void list(bool scenarios, bool json) {
  // Summaries start two columns after the longest name.
  int width = 0;
  for (const std::string_view name : util::protocol_names())
    width = std::max(width, static_cast<int>(name.size()) + 2);
  obs::json_value protocols = obs::json_value::array();
  for (const std::string_view name : util::protocol_names()) {
    obs::json_value item = obs::json_value::object();
    item["name"] = std::string(name);
    with_protocol(name, [&](auto d) {
      if (!scenarios) {
        item["description"] = std::string(d.summary);
        if (!json)
          std::cout << std::left << std::setw(width) << name << d.summary;
        return;
      }
      obs::json_value names = obs::json_value::array();
      if (!json) std::cout << name << ':';
      for (const std::string_view scenario : d.scenarios) {
        names.push_back(std::string(scenario));
        if (!json) std::cout << ' ' << scenario;
      }
      item["scenarios"] = std::move(names);
    });
    if (!json) std::cout << '\n';
    protocols.push_back(std::move(item));
  }
  if (json) {
    obs::json_value doc = obs::json_value::object();
    doc["schema"] = scenarios ? "ssr.scenarios" : "ssr.protocols";
    doc["schema_version"] = 1;
    doc["protocols"] = std::move(protocols);
    std::cout << doc.dump(2) << '\n';
  }
  std::exit(0);
}

/// `text` as a finite number in [lo, hi], or nullopt.
std::optional<double> parse_number(const std::string& text, double lo,
                                   double hi) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !(value >= lo && value <= hi))
    return std::nullopt;
  return value;
}

constexpr double no_upper_bound = std::numeric_limits<double>::max();

options parse(int argc, char** argv) {
  options opt;
  // Bare --json is the machine-readable modifier for the list modes; it
  // may appear on either side of the list flag, so pre-scan.
  bool json_list = false;
  bool listing = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") json_list = true;
    if (arg == "--list-protocols" || arg == "--list-scenarios") listing = true;
  }
  // Spec-shaped flags (protocol, scenario, n, h, t-max, seed, max-time,
  // engine) funnel through the shared builder so the CLI rejects
  // bad specs with exactly the diagnostics the benches and ssr_serve
  // produce (util/request_spec.hpp).
  util::spec_builder builder;
  // Numeric flags outside the spec: a bad value is a usage error that
  // names the flag.
  const auto number = [](const char* flag, const std::string& text, double lo,
                         double hi, const char* expected) {
    const std::optional<double> value = parse_number(text, lo, hi);
    if (!value)
      usage(std::string(flag) + " must be " + expected + ", got '" + text +
            "'");
    return *value;
  };
  const auto count = [](const char* flag, const std::string& text) {
    const std::uint64_t value = parse_u64_flag(flag, text);
    if (value == 0)
      usage(std::string(flag) + " must be an integer >= 1, got '" + text +
            "'");
    return value;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") usage();
    if (arg == "--list-protocols") list(false, json_list);
    if (arg == "--list-scenarios") list(true, json_list);
    if (arg == "--json" && listing) continue;  // a later list flag's modifier
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
      opt.graph_p = number("--graph-p", *v, 0.0, 1.0, "a number in [0, 1]");
      continue;
    }
    if (auto v = value_of("--engine")) {
      builder.set_engine(*v);
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
      opt.trace_every =
          number("--trace-every", *v, 0.0, no_upper_bound, "a number >= 0");
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
      opt.trace_sample_every = count("--trace-sample-every", *v);
      continue;
    }
    if (auto v = value_of("--trace-cap")) {
      opt.trace_cap = static_cast<std::size_t>(count("--trace-cap", *v));
      continue;
    }
    if (arg == "--progress") {
      opt.progress = true;
      obs::set_progress_default(true);
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
    const std::string shape = flag_shape_error(arg, cli_flags, switches);
    if (!shape.empty()) usage(shape);
    const std::string name = arg.substr(0, arg.find('='));
    std::string message = "unknown argument '" + name + "'";
    const std::string_view suggestion = nearest_candidate(name, cli_flags);
    if (!suggestion.empty())
      message += " (did you mean " + std::string(suggestion) + "?)";
    usage(message);
  }
  const std::vector<util::spec_error> errors = builder.finalize();
  if (!errors.empty()) usage(util::render_errors(errors));
  opt.spec = builder.spec();
  if (std::find(std::begin(graph_names), std::end(graph_names), opt.graph) ==
      std::end(graph_names))
    usage(util::unknown_name_message("graph", opt.graph, graph_names));
  if (opt.graph == "ring" && opt.spec.n < 3)
    usage("--graph=ring needs --n >= 3");
  if (opt.graph == "gnp" && opt.spec.n > max_gnp_n)
    usage("--graph=gnp needs --n <= " + std::to_string(max_gnp_n) +
          " (its edge list grows as n^2), got --n=" +
          std::to_string(opt.spec.n));
  if (opt.graph != "complete") {
    if (opt.spec.engine.kind != engine_kind::direct)
      usage("--engine=" + std::string(to_string(opt.spec.engine.kind)) +
            " requires --graph=complete");
    with_protocol(opt.spec.protocol, [](auto d) {
      if (d.complete_graph_only)
        usage(std::string(d.name) + " runs on the complete graph only");
    });
  }
  return opt;
}

interaction_graph make_graph(const options& opt) {
  const std::uint32_t n = opt.spec.n;
  if (opt.graph == "ring") return interaction_graph::ring(n);
  if (opt.graph == "star") return interaction_graph::star(n);
  if (opt.graph == "path") return interaction_graph::path(n);
  return interaction_graph::erdos_renyi(n, opt.graph_p, opt.spec.seed ^ 0x9e);
}

/// Single-run heartbeat behind --progress: owns a metrics registry whose
/// run.* gauges the checkpoints refresh; the background meter renders
/// parallel-time progress, interactions/s, and an ETA on stderr
/// (obs/progress.hpp).  A disabled instance is inert.
class run_progress {
 public:
  explicit run_progress(const options& opt) {
    if (!opt.progress) return;
    registry_.emplace();
    registry_->get_gauge("run.max_parallel_time").set(opt.spec.max_time);
    meter_.emplace(*registry_,
                   obs::progress_options{.label = opt.spec.protocol});
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
/// collector rooted at "run"; drive() attaches the profiler to its engine.
/// finish() writes the requested folded-stack / chrome artifacts and
/// returns the profile JSON for the --json summary.  A disabled instance
/// is inert and hands the engine a null profiler.
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

/// Engine decorator behind --trace-every and --progress: run() cuts its
/// budget at every checkpoint (each `every` interactions), calls
/// `at_checkpoint`, and continues, so the run core hands control back
/// without an option of its own.  Cutting a run into budgets keeps the
/// direct engine's and the count engine's trajectories (pp/engine.hpp),
/// and the block path's for a transition that draws no randomness; for
/// sublinear on the block path it keeps only the distribution.
template <simulation_engine E>
class checkpointed {
 public:
  using protocol_type = typename E::protocol_type;
  using agent_state = typename E::agent_state;

  checkpointed(E& engine, std::uint64_t every,
               std::function<void()> at_checkpoint)
      : engine_(engine),
        every_(every),
        next_(every),
        at_checkpoint_(std::move(at_checkpoint)) {}

  template <class Pre, class Post>
  bool run(std::uint64_t budget, Pre&& pre, Post&& post) {
    while (next_ < budget) {
      if (engine_.run(next_, pre, post)) return true;
      at_checkpoint_();
      next_ += std::min(every_, std::numeric_limits<std::uint64_t>::max() -
                                    next_);
    }
    return engine_.run(budget, pre, post);
  }

  std::uint32_t population_size() const { return engine_.population_size(); }
  std::uint64_t interactions() const { return engine_.interactions(); }
  double parallel_time() const { return engine_.parallel_time(); }
  bool quiescent() const { return engine_.quiescent(); }
  auto agents() const { return engine_.agents(); }
  const protocol_type& protocol() const { return engine_.protocol(); }

 private:
  E& engine_;
  std::uint64_t every_;
  std::uint64_t next_;
  std::function<void()> at_checkpoint_;
};

/// Interactions between checkpoints: --trace-every wins; otherwise
/// --progress takes 1024 windows of the budget; otherwise none.
std::uint64_t checkpoint_interactions(const options& opt) {
  const double window = opt.trace_every > 0 ? opt.trace_every
                        : opt.progress
                            ? std::max(opt.spec.max_time / 1024.0, 1.0)
                            : 0.0;
  const double interactions = window * static_cast<double>(opt.spec.n);
  if (window == 0.0 || interactions >= 0x1p64)
    return std::numeric_limits<std::uint64_t>::max();
  return std::max<std::uint64_t>(static_cast<std::uint64_t>(interactions), 1);
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

template <class P>
void print_configuration(const options& opt, const P& protocol, double time,
                         std::span<const typename P::agent_state> agents) {
  std::cout << "t=" << time << ": " << summarize_configuration(protocol, agents)
            << '\n';
  if (!opt.show_agents) return;
  for (std::size_t i = 0; i < agents.size(); ++i)
    std::cout << "  agent " << i << ": " << describe(protocol, agents[i])
              << '\n';
}

/// Writes the --json run summary: the verdict plus everything a script
/// needs to re-run or classify the run.  Trace stats appear when a trace
/// was attached.
void write_summary(const options& opt, bool stabilized, double time,
                   std::uint64_t interactions,
                   const obs::engine_counters& counters,
                   const obs::trace_sink* sink,
                   const std::optional<obs::json_value>& profile) {
  if (opt.json_path.empty()) return;
  obs::json_value doc = obs::json_value::object();
  doc["schema_version"] = 1;
  doc["tool"] = "ssr_cli";
  doc["protocol"] = opt.spec.protocol;
  doc["n"] = static_cast<std::uint64_t>(opt.spec.n);
  doc["scenario"] = opt.spec.scenario;
  doc["graph"] = opt.graph;
  doc["engine"] = std::string(to_string(opt.spec.engine.kind));
  doc["seed"] = opt.spec.seed;
  doc["stabilized"] = stabilized;
  doc["parallel_time"] = time;
  doc["interactions"] = interactions;
  doc["engine_counters"] = obs::to_json(counters);
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

/// Measures one run of `engine` with the run core and reports it: the
/// checkpoint summaries, the final configuration, the trace, profile and
/// --json artifacts, and the verdict.  Returns the exit code.
template <simulation_engine E>
int drive(const options& opt, E& engine, double confirm_parallel_time) {
  using P = typename E::protocol_type;
  const P& protocol = engine.protocol();
  obs::engine_counters counters;
  run_profile prof(opt);
  engine.attach_counters(&counters);
  engine.attach_profiler(prof.profiler());
  obs::trace_sink sink(opt.trace_options());
  run_progress progress(opt);
  checkpointed<E> run(engine, checkpoint_interactions(opt), [&] {
    progress.update(engine.parallel_time(), engine.interactions());
    if (opt.trace_every > 0) {
      std::cout << "t=" << engine.parallel_time() << ": "
                << summarize_configuration(protocol, engine.agents()) << '\n';
    }
  });

  convergence_options measure;
  measure.max_parallel_time = opt.spec.max_time;
  measure.confirm_parallel_time = confirm_parallel_time;
  measure.trace = opt.trace_path.empty() ? nullptr : &sink;
  const convergence_result result = measure_convergence_run(run, measure);

  progress.finish(engine.parallel_time(), engine.interactions());
  print_configuration(opt, protocol, engine.parallel_time(), engine.agents());
  if (measure.trace != nullptr) {
    std::ofstream out(opt.trace_path);
    if (!out) usage("cannot write " + opt.trace_path);
    sink.write_jsonl(out, obs::phase_names(protocol));
    std::cout << "trace: " << opt.trace_path << " (" << sink.events().size()
              << " events, " << sink.offered() << " offered)\n";
  }
  const std::optional<obs::json_value> profile_json = prof.finish();
  write_summary(opt, result.converged,
                result.converged ? result.convergence_time
                                 : engine.parallel_time(),
                result.interactions, counters, measure.trace, profile_json);
  if (!result.converged) {
    std::cout << "did NOT stabilize within t=" << opt.spec.max_time << '\n';
    return 1;
  }
  std::cout << "stabilized at t=" << result.convergence_time << " ("
            << std::llround(result.convergence_time *
                            static_cast<double>(opt.spec.n))
            << " interactions); "
            << (ranking_protocol<P> ? "leader is the rank-1 agent"
                                    : "exactly one leader")
            << '\n';
  return 0;
}

/// The flag mode: trial 0 of the one-trial scenario `opt.spec`, from the
/// trial recipe `ssr_cli run` uses.  --load, --dump and --show-agents act
/// on the recipe's start configuration; the run goes through drive() on
/// the engine --engine names, or on direct_engine over the --graph.
template <class P>
int run_flag_mode(const options& opt, serve::trial_recipe<P> recipe) {
  if (!opt.load_path.empty()) {
    std::string error;
    const std::optional<std::string> text = read_file(opt.load_path, &error);
    if (!text) usage(error);
    try {
      recipe.initial = config_from_text(recipe.protocol, *text);
    } catch (const std::invalid_argument& e) {
      usage(opt.load_path + ": " + e.what());
    }
  }
  if (!opt.dump_path.empty()) {
    std::ofstream out(opt.dump_path);
    if (!out) usage("cannot write " + opt.dump_path);
    out << to_text(recipe.protocol, recipe.initial);
    std::cout << "wrote starting configuration to " << opt.dump_path << '\n';
  }
  print_configuration<P>(opt, recipe.protocol, 0.0, recipe.initial);
  const double confirm = recipe.confirm_parallel_time;
  if (opt.graph != "complete") {
    direct_engine<P, interaction_graph> engine(
        std::move(recipe.protocol), make_graph(opt), std::move(recipe.initial),
        recipe.engine_seed);
    return drive(opt, engine, confirm);
  }
  return with_engine(opt.spec.engine, std::move(recipe.protocol),
                     std::move(recipe.initial), recipe.engine_seed,
                     [&](auto& engine) { return drive(opt, engine, confirm); });
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

  const obs::bundle_result bundle = serve::write_job_bundle(
      out_dir, *scenario, *result, counters,
      telemetry.has_value() ? &*telemetry : nullptr, registry,
      /*events=*/true);
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
  const auto threshold = [](const char* flag, const std::string& text,
                            double hi, const char* expected) {
    const std::optional<double> value = parse_number(text, 0.0, hi);
    if (!value)
      subcommand_usage(std::string(flag) + " must be " + expected +
                       ", got '" + text + "'");
    return *value;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--against")) {
      against = *v;
      continue;
    }
    if (auto v = flag_value(args, i, "--ks-alpha")) {
      limits.ks_alpha = threshold("--ks-alpha", *v, 1.0, "a number in [0, 1]");
      continue;
    }
    if (auto v = flag_value(args, i, "--mean-tolerance")) {
      limits.sample_mean_tolerance = threshold(
          "--mean-tolerance", *v, no_upper_bound, "a number >= 0");
      continue;
    }
    if (auto v = flag_value(args, i, "--value-tolerance")) {
      limits.value_tolerance = threshold("--value-tolerance", *v,
                                         no_upper_bound, "a number >= 0");
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
  return serve::with_trial_recipe(
      opt.spec, derive_seed(opt.spec.seed, 0),
      [&](auto recipe) { return run_flag_mode(opt, std::move(recipe)); });
}
