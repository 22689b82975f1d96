// report_trend: schema validation and drift detection for bench reports.
//
//   report_trend --validate REPORT.json...
//   report_trend HISTORY_DIR
//   report_trend REPORT.json REPORT.json...   (chronological order)
//
// --validate checks each file against the report schema (obs/report.hpp;
// versions 1 and 2 are accepted): exit 0 when all are valid, 2 otherwise.
//
// HISTORY_DIR is the layout bench binaries write with --history-dir: one
// subdirectory per git revision, each holding that revision's
// BENCH_<id>.json artifacts.  Revisions are ordered by their reports'
// generated_unix stamps (the directory names are hashes and carry no
// order).  Explicitly listed reports are judged in the order given, so
// `report_trend BASE.json NEW.json` compares a pair.
//
// Rows are joined across revisions on the report_row key (section,
// protocol, n, params[, metric]).  A key with at least two points is
// judged by the shared regression gate (obs/report_compare.hpp) between
// its oldest and newest points: KS + direction for sample rows, CI overlap
// for v2 stats-only rows, a generous tolerance for value rows.
// Identical-seed reruns produce identical samples (KS p = 1) and pass
// clean by construction.
//
//   --markdown      emit a GitHub-flavored markdown table (for CI job
//                   summaries) instead of the ASCII table
//   --out=FILE      write there instead of stdout
//
// Exit 0 = no drift, 1 = at least one drifting key, 2 = usage error /
// unreadable input / fewer than two revisions.  In HISTORY_DIR mode a
// malformed or unknown-schema BENCH_*.json is skipped with a per-file
// warning (histories mix tool versions); explicitly listed report files
// still fail hard.
#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "obs/report.hpp"
#include "obs/report_compare.hpp"
#include "util/edit_distance.hpp"
#include "util/flag_shape.hpp"

namespace {

namespace fs = std::filesystem;
using ssr::obs::bench_report;
using ssr::obs::json_value;
using ssr::obs::report_row;
using ssr::obs::row_verdict;

constexpr std::array<std::string_view, 4> trend_flags = {
    "--markdown", "--out", "--validate", "--help"};
constexpr std::array<std::string_view, 3> switches = {"--markdown",
                                                      "--validate", "--help"};

int usage() {
  std::cerr << "usage: report_trend --validate REPORT.json...\n"
               "       report_trend [--markdown] [--out=FILE] HISTORY_DIR\n"
               "       report_trend [--markdown] [--out=FILE] REPORT.json"
               " REPORT.json...\n";
  return 2;
}

std::optional<json_value> load_json(const std::string& path,
                                    std::string* why) {
  std::ifstream is(path);
  if (!is) {
    *why = "cannot open file";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return json_value::parse(buffer.str(), why);
}

std::optional<bench_report> load_report(const std::string& path,
                                        std::string* why) {
  const auto json = load_json(path, why);
  if (!json) return std::nullopt;
  std::string error;
  auto report = bench_report::from_json(*json, &error);
  if (!report) {
    *why = error;
    return std::nullopt;
  }
  return report;
}

/// One revision = one set of reports measured from the same tree.
struct revision {
  std::string label;
  std::int64_t generated_unix = 0;  // min over reports, orders a history
  std::vector<bench_report> reports;
};

std::string short_rev(const std::string& rev) {
  return rev.size() > 10 ? rev.substr(0, 10) : rev;
}

bool load_history_dir(const std::string& dir, std::vector<revision>* out) {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    revision rev;
    rev.label = short_rev(entry.path().filename().string());
    for (const fs::directory_entry& file :
         fs::directory_iterator(entry.path(), ec)) {
      const std::string name = file.path().filename().string();
      if (name.rfind("BENCH_", 0) != 0 ||
          file.path().extension() != ".json") {
        continue;
      }
      // A history directory accumulates artifacts across revisions and
      // tool versions; one malformed or unknown-schema file should not
      // abort the whole trend, so skip it with a warning.  Explicitly
      // listed report files (below) still fail hard.
      std::string why;
      auto report = load_report(file.path().string(), &why);
      if (!report) {
        std::cerr << "warning: skipping '" << file.path().string()
                  << "': " << why << "\n";
        continue;
      }
      rev.reports.push_back(std::move(*report));
    }
    if (rev.reports.empty()) continue;
    rev.generated_unix = rev.reports.front().generated_unix;
    for (const bench_report& r : rev.reports) {
      rev.generated_unix = std::min(rev.generated_unix, r.generated_unix);
    }
    out->push_back(std::move(rev));
  }
  if (ec) {
    std::cerr << "error: cannot read '" << dir << "': " << ec.message()
              << "\n";
    return false;
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const revision& a, const revision& b) {
                     return a.generated_unix < b.generated_unix;
                   });
  return true;
}

int validate(const std::vector<std::string>& paths) {
  bool all_valid = true;
  for (const std::string& path : paths) {
    std::string why;
    const auto json = load_json(path, &why);
    if (!json) {
      std::cerr << "error: " << path << ": " << why << "\n";
      all_valid = false;
      continue;
    }
    const std::vector<std::string> problems =
        ssr::obs::validate_report_json(*json);
    if (problems.empty()) {
      const json_value* version = json->find("schema_version");
      std::cout << path << ": valid (schema_version "
                << ssr::obs::format_schema_version(
                       version != nullptr ? version->as_double() : 0.0)
                << ")\n";
    } else {
      all_valid = false;
      std::cout << path << ": INVALID\n";
      for (const std::string& p : problems) std::cout << "  - " << p << "\n";
    }
  }
  return all_valid ? 0 : 2;
}

struct trend_point {
  std::size_t revision_index;
  const report_row* row;
};

struct trend_line {
  std::string key;
  std::string unit;
  std::vector<trend_point> points;
  row_verdict verdict;  // oldest vs newest point
};

std::string format_mean(double mean) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4g", mean);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool markdown = false;
  bool validate_only = false;
  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") return usage(), 0;
    if (arg == "--markdown") {
      markdown = true;
    } else if (arg == "--validate") {
      validate_only = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--", 0) == 0) {
      const std::string shape =
          ssr::flag_shape_error(arg, trend_flags, switches);
      if (!shape.empty()) {
        std::cerr << "error: " << shape << "\n";
        return usage();
      }
      const std::string flag = arg.substr(0, arg.find('='));
      std::cerr << "error: unknown option '" << flag << "'";
      const std::string_view suggestion =
          ssr::nearest_candidate(flag, trend_flags);
      if (!suggestion.empty()) {
        std::cerr << " (did you mean '" << suggestion << "'?)";
      }
      std::cerr << "\n";
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();
  if (validate_only) {
    if (markdown || !out_path.empty()) {
      std::cerr << "error: --validate takes neither --markdown nor --out\n";
      return usage();
    }
    return validate(inputs);
  }

  std::vector<revision> revisions;
  if (inputs.size() == 1 && fs::is_directory(inputs.front())) {
    if (!load_history_dir(inputs.front(), &revisions)) return 2;
  } else {
    for (const std::string& path : inputs) {
      std::string why;
      auto report = load_report(path, &why);
      if (!report) {
        std::cerr << "error: " << path << ": " << why << "\n";
        return 2;
      }
      revision rev;
      rev.label = short_rev(report->git_rev);
      rev.reports.push_back(std::move(*report));
      revisions.push_back(std::move(rev));
    }
  }
  if (revisions.size() < 2) {
    std::cerr << "error: need at least 2 revisions, found "
              << revisions.size() << "\n";
    return 2;
  }

  // Join rows across revisions on key, preserving first-seen order.
  std::vector<trend_line> lines;
  std::map<std::string, std::size_t> index_of;
  for (std::size_t r = 0; r < revisions.size(); ++r) {
    for (const bench_report& report : revisions[r].reports) {
      for (const report_row& row : report.rows) {
        const std::string key = row.key();
        auto it = index_of.find(key);
        if (it == index_of.end()) {
          it = index_of.emplace(key, lines.size()).first;
          lines.push_back({key, row.unit, {}, {}});
        }
        lines[it->second].points.push_back({r, &row});
      }
    }
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

  int drifting = 0;
  int compared = 0;
  std::vector<std::string> header = {"key", "unit"};
  for (const revision& rev : revisions) header.push_back(rev.label);
  header.push_back("status");
  std::vector<std::vector<std::string>> table_rows;

  for (trend_line& line : lines) {
    std::vector<std::string> cells(revisions.size(), "-");
    for (const trend_point& point : line.points) {
      cells[point.revision_index] =
          format_mean(point.row->mean_estimate());
    }
    std::string status;
    if (line.points.size() < 2) {
      status = "single point";
    } else {
      ++compared;
      line.verdict = ssr::obs::compare_rows(*line.points.front().row,
                                            *line.points.back().row);
      if (!line.verdict.comparable) {
        status = "not comparable";
      } else if (line.verdict.regression) {
        ++drifting;
        status = "DRIFT: " + line.verdict.detail;
      } else {
        status = "ok";
      }
    }
    std::vector<std::string> row_cells = {line.key, line.unit};
    row_cells.insert(row_cells.end(), cells.begin(), cells.end());
    row_cells.push_back(status);
    table_rows.push_back(std::move(row_cells));
  }

  if (markdown) {
    auto emit = [&](const std::vector<std::string>& cells) {
      os << "|";
      for (const std::string& cell : cells) {
        os << " " << (cell.empty() ? "-" : cell) << " |";
      }
      os << "\n";
    };
    emit(header);
    os << "|";
    for (std::size_t i = 0; i < header.size(); ++i) os << " --- |";
    os << "\n";
    for (const std::vector<std::string>& cells : table_rows) emit(cells);
    os << "\n";
  } else {
    os << "trend over " << revisions.size() << " revisions ("
       << revisions.front().label << " .. " << revisions.back().label
       << ")\n";
    ssr::text_table table(header);
    for (std::vector<std::string>& cells : table_rows) {
      table.add_row(std::move(cells));
    }
    table.print(os);
  }
  os << compared << " keys compared, " << drifting << " drifting\n";
  return drifting > 0 ? 1 : 0;
}
