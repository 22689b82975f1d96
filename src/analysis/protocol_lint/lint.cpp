#include "analysis/protocol_lint/lint.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/table.hpp"
#include "util/edit_distance.hpp"

namespace ssr::lint {
namespace {

// "unknown protocol 'basline'; did you mean 'baseline'?" -- what
// resolve_protocol_entry() throws.
[[noreturn]] void throw_unknown_protocol(const std::string& name) {
  const std::vector<std::string> names = registry_names(/*include_hidden=*/true);
  std::vector<std::string_view> views(names.begin(), names.end());
  const std::string_view near = nearest_candidate(name, views);
  std::string message = "unknown protocol '" + name + "'";
  if (!near.empty()) {
    message += "; did you mean '" + std::string(near) + "'?";
  }
  throw std::invalid_argument(message);
}

std::vector<const protocol_entry*> resolve_protocols(
    const lint_options& options) {
  std::vector<const protocol_entry*> entries;
  if (options.protocols.empty()) {
    for (const protocol_entry& e : lint_registry()) {
      if (e.hidden && !options.include_hidden) continue;
      entries.push_back(&e);
    }
    return entries;
  }
  for (const std::string& name : options.protocols) {
    entries.push_back(&resolve_protocol_entry(name));
  }
  return entries;
}

}  // namespace

const protocol_entry& resolve_protocol_entry(const std::string& name) {
  const protocol_entry* e = find_protocol(name);
  if (e == nullptr) throw_unknown_protocol(name);
  return *e;
}

lint_report run_lint(const lint_options& options) {
  const std::vector<const protocol_entry*> entries =
      resolve_protocols(options);
  lint_report report;
  report.n_values = options.n_values;
  for (const protocol_entry* entry : entries) {
    report.protocols.push_back(entry->name);
    for (const std::uint32_t n : options.n_values) {
      lint_context ctx(entry->name, n, &report.findings);
      entry->run(n, ctx);
      // Exact configuration-space pass (L014-L017), for entries with a
      // model attachment.  The builder throws on a transition that leaves
      // the inventory; that is one more closure escape unless the
      // state-level checks already reported one.
      model_skip skip;
      try {
        if (std::optional<model_run> run = run_entry_model(*entry, n, &skip)) {
          emit_model_findings(*run, ctx);
          report.runs.push_back(std::move(*run));
        } else {
          report.skipped.push_back(std::move(skip));
        }
      } catch (const std::logic_error& e) {
        if (ctx.count(finding_code::closure_escape) == 0) {
          ctx.emit(finding_code::closure_escape, severity::error, e.what());
        }
      }
    }
  }
  for (const finding& f : report.findings) {
    switch (f.sev) {
      case severity::error: ++report.errors; break;
      case severity::warning: ++report.warnings; break;
      case severity::note: ++report.notes; break;
    }
  }
  return report;
}

obs::json_value to_json(const lint_report& report, bool strict) {
  obs::json_value root = obs::json_value::object();
  root["schema"] = "ssr.lint";
  root["version"] = std::uint64_t{2};
  root["tool"] = "protocol_lint";
  root["strict"] = strict;
  obs::json_value protocols = obs::json_value::array();
  for (const std::string& p : report.protocols) protocols.push_back(p);
  root["protocols"] = std::move(protocols);
  obs::json_value sizes = obs::json_value::array();
  for (const std::uint32_t n : report.n_values) {
    sizes.push_back(static_cast<std::uint64_t>(n));
  }
  root["n"] = std::move(sizes);
  obs::json_value findings = obs::json_value::array();
  for (const finding& f : report.findings) findings.push_back(to_json(f));
  root["findings"] = std::move(findings);
  obs::json_value summary = obs::json_value::object();
  summary["errors"] = static_cast<std::uint64_t>(report.errors);
  summary["warnings"] = static_cast<std::uint64_t>(report.warnings);
  summary["notes"] = static_cast<std::uint64_t>(report.notes);
  summary["violations"] =
      static_cast<std::uint64_t>(report.violations(strict));
  summary["passed"] = report.passed(strict);
  root["summary"] = std::move(summary);
  obs::json_value runs = obs::json_value::array();
  for (const model_run& run : report.runs) runs.push_back(to_json(run));
  root["runs"] = std::move(runs);
  obs::json_value skipped = obs::json_value::array();
  for (const model_skip& s : report.skipped) {
    obs::json_value v = obs::json_value::object();
    v["protocol"] = s.protocol;
    v["n"] = static_cast<std::uint64_t>(s.n);
    v["reason"] = s.reason;
    skipped.push_back(std::move(v));
  }
  root["skipped"] = std::move(skipped);
  return root;
}

std::string render_report(const lint_report& report, bool strict) {
  std::ostringstream os;
  text_table table({"protocol", "errors", "warnings", "notes", "verdict"});
  for (const std::string& name : report.protocols) {
    std::size_t errors = 0, warnings = 0, notes = 0;
    for (const finding& f : report.findings) {
      if (f.protocol != name) continue;
      switch (f.sev) {
        case severity::error: ++errors; break;
        case severity::warning: ++warnings; break;
        case severity::note: ++notes; break;
      }
    }
    const bool failed = errors > 0 || (strict && warnings > 0);
    table.add_row({name, std::to_string(errors), std::to_string(warnings),
                   std::to_string(notes), failed ? "FAIL" : "ok"});
  }
  table.print(os);
  if (!report.runs.empty()) {
    os << '\n';
    text_table model({"protocol", "n", "configs", "transitions", "terminal",
                      "silent", "stabilizing", "worst E[T]", "uniform E[T]"});
    for (const model_run& run : report.runs) {
      const verify::model_check_result& r = run.result;
      const bool timed = r.expected_time_computed;
      model.add_row(
          {run.protocol, std::to_string(run.n),
           std::to_string(r.configurations), std::to_string(r.transitions),
           std::to_string(r.terminal_classes), r.silent ? "yes" : "NO",
           r.self_stabilizing ? "yes" : "NO",
           timed ? format_fixed(r.worst_expected_interactions, 3) : "-",
           timed ? format_fixed(r.uniform_expected_interactions, 3) : "-"});
    }
    model.print(os);
  }
  for (const model_skip& s : report.skipped) {
    os << "skipped " << s.protocol << " n=" << s.n << ": " << s.reason
       << '\n';
  }
  if (!report.findings.empty()) {
    os << '\n';
    for (const finding& f : report.findings) os << to_line(f) << '\n';
  }
  os << '\n'
     << (report.passed(strict) ? "PASS" : "FAIL") << ": "
     << report.violations(strict) << " violation(s), " << report.errors
     << " error(s), " << report.warnings << " warning(s), " << report.notes
     << " note(s)\n";
  return os.str();
}

}  // namespace ssr::lint
