// trace_stats: aggregate JSONL execution traces (ssr_cli --trace-out)
// into per-phase occupancy/dwell statistics, reset-wave counts and
// durations, rank-collision rates and a convergence-time breakdown.
//
//   trace_stats TRACE...                      human-readable tables
//   trace_stats --format=json TRACE...        versioned JSON summary
//   trace_stats --format=chrome TRACE...      Chrome trace-event JSON
//                                             (open in Perfetto or
//                                             chrome://tracing)
//   ... --out=FILE                            write there instead of stdout
//
// Several traces aggregate into one summary (tables/JSON) or one
// multi-process timeline (chrome: file i becomes pid i+1).
//
// Exit 0 on success, 2 on usage errors or unreadable/malformed traces.
#include <array>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/trace_stats.hpp"
#include "util/edit_distance.hpp"
#include "util/flag_shape.hpp"

namespace {

constexpr std::array<std::string_view, 3> stats_flags = {
    "--format", "--out", "--help"};
constexpr std::array<std::string_view, 1> switches = {"--help"};

int usage() {
  std::cerr << "usage: trace_stats [--format=table|json|chrome] "
               "[--out=FILE] TRACE...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "table";
  std::string out_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") return usage(), 0;
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "table" && format != "json" && format != "chrome") {
        std::cerr << "error: unknown format '" << format << "'\n";
        return usage();
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--", 0) == 0) {
      const std::string shape =
          ssr::flag_shape_error(arg, stats_flags, switches);
      if (!shape.empty()) {
        std::cerr << "error: " << shape << "\n";
        return usage();
      }
      const std::string flag = arg.substr(0, arg.find('='));
      std::cerr << "error: unknown option '" << flag << "'";
      const std::string_view suggestion =
          ssr::nearest_candidate(flag, stats_flags);
      if (!suggestion.empty()) {
        std::cerr << " (did you mean '" << suggestion << "'?)";
      }
      std::cerr << "\n";
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();

  std::vector<ssr::parsed_trace> traces;
  for (const std::string& path : paths) {
    std::ifstream is(path);
    if (!is) {
      std::cerr << "error: cannot open '" << path << "'\n";
      return 2;
    }
    std::string error;
    auto trace = ssr::parse_trace_jsonl(is, &error);
    if (!trace) {
      std::cerr << "error: " << path << ": " << error << "\n";
      return 2;
    }
    traces.push_back(std::move(*trace));
  }

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path, std::ios::trunc);
    if (!file) {
      std::cerr << "error: cannot write '" << out_path << "'\n";
      return 2;
    }
  }
  std::ostream& os = out_path.empty() ? std::cout : file;

  if (format == "chrome") {
    // Merge all inputs into one timeline, one pid per trace file.
    ssr::obs::json_value merged = ssr::obs::json_value::object();
    ssr::obs::json_value events = ssr::obs::json_value::array();
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const ssr::obs::json_value one =
          ssr::chrome_trace_json(traces[i], static_cast<int>(i) + 1);
      for (const ssr::obs::json_value& e :
           one.find("traceEvents")->items()) {
        events.push_back(e);
      }
    }
    merged["traceEvents"] = std::move(events);
    merged["displayTimeUnit"] = ssr::obs::json_value{"ms"};
    os << merged.dump(2) << '\n';
    return 0;
  }

  ssr::trace_stats_accumulator stats;
  for (const ssr::parsed_trace& trace : traces) stats.add(trace);
  if (format == "json") {
    os << stats.to_json().dump(2) << '\n';
  } else {
    stats.print_table(os);
  }
  return 0;
}
