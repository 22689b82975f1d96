// protocol_lint -- static and exact model checker for the registered
// protocols.
//
// Enumerates each protocol's declared state space at small n and verifies
// the structural invariants behind the paper's claims: transition closure,
// determinism/totality, the change-flag contract, rank-output soundness,
// Table-1 state counts, the batched-engine partition, silence and
// self-stabilization via the exhaustive configuration-space verifier, and a
// dead-state audit.  Entries with a model attachment also get the exact
// model pass (verify/model_check): every configuration (state multisets --
// agents are anonymous), silence, self-stabilization and the exact expected
// number of interactions to stable correctness, as codes L014-L017 and a
// model table.  See docs/static_analysis.md for the finding codes.
//
//   protocol_lint                        lint every registered protocol
//   protocol_lint --strict               promote warnings to violations
//   protocol_lint --protocol=optimal     lint one protocol (repeatable)
//   protocol_lint --n=2,3,4              population sizes (default 2,3,4)
//   protocol_lint --json=findings.json   also write the ssr.lint document
//   protocol_lint --trace-dir=<dir>      write counterexample JSONL traces
//   protocol_lint --list                 list registry entries and exit
//   protocol_lint --include-broken       also lint the hidden broken fixtures
//
// Exit code: 0 when no violations (errors; plus warnings under --strict),
// 1 on violations, 2 on usage errors.
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "analysis/protocol_lint/lint.hpp"
#include "analysis/protocol_lint/registry.hpp"
#include "util/edit_distance.hpp"
#include "util/flag_shape.hpp"

namespace {

using namespace ssr;

struct options {
  lint::lint_options lint;
  bool strict = false;
  bool list = false;
  std::string json_path;
  std::string trace_dir;
};

constexpr std::string_view cli_flags[] = {
    "--protocol", "--n",    "--strict",         "--json",
    "--list",     "--help", "--include-broken", "--trace-dir",
};
constexpr std::string_view switches[] = {"--strict", "--list", "--help",
                                         "--include-broken"};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: protocol_lint [options]\n"
      << "  --protocol=<name>   lint one registry entry (repeatable;\n"
      << "                      default: every visible entry)\n"
      << "  --n=<list>          comma-separated population sizes "
         "(default 2,3,4)\n"
      << "  --strict            promote warnings to violations (notes are\n"
      << "                      never promoted)\n"
      << "  --json=<file>       write the ssr.lint document ('-' for "
         "stdout)\n"
      << "  --trace-dir=<dir>   write shortest counterexamples as ssr.trace "
         "JSONL\n"
      << "  --include-broken    also lint the hidden broken fixtures\n"
      << "  --list              list registry entries and exit\n";
  std::exit(2);
}

std::vector<std::uint32_t> parse_sizes(const std::string& value) {
  std::vector<std::uint32_t> sizes;
  std::istringstream in(value);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::uint32_t n = 0;
    const char* last = item.data() + item.size();
    const auto [end, ec] = std::from_chars(item.data(), last, n);
    if (ec != std::errc{} || end != last) {
      usage("--n expects comma-separated integers, got '" + item + "'");
    }
    if (n < 2 || n > 64) usage("--n values must be in 2..64, got " + item);
    sizes.push_back(n);
  }
  if (sizes.empty()) usage("--n needs at least one population size");
  return sizes;
}

std::string nonempty(const char* flag, const std::string& value) {
  if (value.empty()) {
    usage(std::string(flag) + " needs a value (" + flag + "=...)");
  }
  return value;
}

options parse(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") usage();
    if (arg == "--list") {
      opt.list = true;
      continue;
    }
    if (arg == "--strict") {
      opt.strict = true;
      continue;
    }
    if (arg == "--include-broken") {
      opt.lint.include_hidden = true;
      continue;
    }
    if (auto v = value_of("--protocol")) {
      opt.lint.protocols.push_back(*v);
      continue;
    }
    if (auto v = value_of("--n")) {
      opt.lint.n_values = parse_sizes(*v);
      continue;
    }
    if (auto v = value_of("--json")) {
      opt.json_path = nonempty("--json", *v);
      continue;
    }
    if (auto v = value_of("--trace-dir")) {
      opt.trace_dir = nonempty("--trace-dir", *v);
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
  return opt;
}

[[noreturn]] void list_registry(bool include_hidden) {
  for (const lint::protocol_entry& e : lint::lint_registry()) {
    if (e.hidden && !include_hidden) continue;
    std::cout << e.name;
    if (e.hidden) std::cout << "  [hidden fixture]";
    if (e.model.has_value()) {
      std::cout << "  [model max_n=" << e.model->max_n << ']';
    }
    std::cout << "\n    " << e.summary << '\n';
  }
  std::exit(0);
}

void write_trace(const std::filesystem::path& dir, const lint::model_run& run,
                 std::string_view kind, const verify::counterexample& cx) {
  const std::filesystem::path path =
      dir / (run.protocol + "-n" + std::to_string(run.n) + "-" +
             std::string(kind) + ".trace.jsonl");
  std::ofstream out(path);
  if (!out) usage("cannot write " + path.string());
  verify::write_counterexample_jsonl(out, run.graph, cx);
  std::cout << "counterexample trace: " << path.string() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);
  if (opt.list) list_registry(opt.lint.include_hidden);

  if (!opt.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.trace_dir, ec);
    if (ec) usage("cannot create " + opt.trace_dir + ": " + ec.message());
  }

  lint::lint_report report;
  try {
    report = lint::run_lint(opt.lint);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  if (!opt.trace_dir.empty()) {
    for (const lint::model_run& run : report.runs) {
      const verify::model_check_result& r = run.result;
      if (r.silence_counterexample.has_value()) {
        write_trace(opt.trace_dir, run, "silence", *r.silence_counterexample);
      }
      if (r.stabilization_counterexample.has_value()) {
        write_trace(opt.trace_dir, run, "stabilization",
                    *r.stabilization_counterexample);
      }
    }
  }

  if (!opt.json_path.empty()) {
    const std::string doc = lint::to_json(report, opt.strict).dump(2);
    if (opt.json_path == "-") {
      std::cout << doc << '\n';
    } else {
      std::ofstream out(opt.json_path);
      if (!out) usage("cannot write " + opt.json_path);
      out << doc << '\n';
      std::cout << "findings: " << opt.json_path << '\n';
    }
  }
  std::cout << lint::render_report(report, opt.strict);
  return report.passed(opt.strict) ? 0 : 1;
}
