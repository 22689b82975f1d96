#include "obs/scenario.hpp"

#include <cmath>

namespace ssr::obs {
namespace {

constexpr std::string_view k_scenario_fields[] = {
    "schema",  "schema_version", "name",     "description", "protocol",
    "scenario", "n",             "h",        "t_max",       "trials",
    "seed",    "max_time",       "engine",   "trace",       "profile",
    "metrics",
};

/// Non-negative integral JSON number, exact in a double (the same rule
/// the serve wire applies to its numeric request fields).
std::optional<std::uint64_t> as_u64(const json_value& v) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.as_double();
  if (d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15)
    return std::nullopt;
  return static_cast<std::uint64_t>(d);
}

bool safe_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

/// Parses the "trace" field (bool shorthand or options object) into the
/// builder, recording field errors in the shared formats.
void parse_trace_json(const json_value& value,
                      util::telemetry_builder& builder,
                      std::vector<util::spec_error>& errors) {
  if (value.is_bool()) {
    builder.set_trace_enabled(value.as_bool());
    return;
  }
  if (!value.is_object()) {
    errors.push_back({"trace", "must be a boolean or an options object"});
    return;
  }
  builder.set_trace_enabled(true);
  for (const auto& [name, sub] : value.members()) {
    if (name == "enabled") {
      if (!sub.is_bool()) {
        errors.push_back({"trace.enabled", "must be a boolean"});
        continue;
      }
      builder.set_trace_enabled(sub.as_bool());
      continue;
    }
    const std::optional<std::uint64_t> u = as_u64(sub);
    if (!u.has_value()) {
      // Unknown names still get the nearest-name diagnostic, not a type
      // complaint about a field that doesn't exist.
      bool known = false;
      for (const std::string_view candidate : util::trace_option_names()) {
        known = known || candidate == name;
      }
      if (known) {
        errors.push_back({"trace." + name, "must be a non-negative integer"});
        continue;
      }
    }
    builder.set_trace_option(name, u.value_or(0));
  }
}

}  // namespace

std::span<const std::string_view> scenario_field_names() {
  return k_scenario_fields;
}

std::optional<scenario_doc> parse_scenario(
    const json_value& doc, std::vector<util::spec_error>* errors) {
  std::vector<util::spec_error> local;
  std::vector<util::spec_error>& errs = errors != nullptr ? *errors : local;
  errs.clear();
  if (!doc.is_object()) {
    errs.push_back({"scenario", "must be a JSON object"});
    return std::nullopt;
  }

  scenario_doc out;
  util::spec_builder builder;
  util::telemetry_builder telemetry;
  for (const auto& [field, value] : doc.members()) {
    if (field == "schema") {
      if (!value.is_string() || value.as_string() != scenario_schema_name) {
        std::string message = "expected \"";
        message += scenario_schema_name;
        message += "\"";
        errs.push_back({field, std::move(message)});
      }
      continue;
    }
    if (field == "schema_version") {
      const std::optional<std::uint64_t> u = as_u64(value);
      if (!u.has_value() || *u != scenario_schema_version) {
        errs.push_back(
            {field, "unsupported version (this build reads version 1)"});
      }
      continue;
    }
    if (field == "name" || field == "description") {
      if (!value.is_string()) {
        errs.push_back({field, "must be a string"});
        continue;
      }
      if (field == "name") out.name = value.as_string();
      if (field == "description") out.description = value.as_string();
      continue;
    }
    if (field == "protocol" || field == "scenario" || field == "engine") {
      if (!value.is_string()) {
        errs.push_back({field, "must be a string"});
        continue;
      }
      if (field == "protocol") builder.set_protocol(value.as_string());
      if (field == "scenario") builder.set_scenario(value.as_string());
      if (field == "engine") builder.set_engine(value.as_string());
      continue;
    }
    if (field == "n" || field == "h" || field == "t_max" ||
        field == "trials" || field == "seed") {
      const std::optional<std::uint64_t> u = as_u64(value);
      if (!u.has_value()) {
        errs.push_back({field, "must be a non-negative integer"});
        continue;
      }
      if (field == "n") builder.set_n(*u);
      if (field == "h") builder.set_h(*u);
      if (field == "t_max") builder.set_t_max(*u);
      if (field == "trials") builder.set_trials(*u);
      if (field == "seed") builder.set_seed(*u);
      continue;
    }
    if (field == "max_time") {
      if (!value.is_number()) {
        errs.push_back({field, "must be a number"});
        continue;
      }
      builder.set_max_time(value.as_double());
      continue;
    }
    if (field == "trace") {
      parse_trace_json(value, telemetry, errs);
      continue;
    }
    if (field == "profile" || field == "metrics") {
      if (!value.is_bool()) {
        errs.push_back({field, "must be a boolean"});
        continue;
      }
      if (field == "profile") telemetry.set_profile(value.as_bool());
      if (field == "metrics") out.emit_metrics = value.as_bool();
      continue;
    }
    errs.push_back({field, util::unknown_name_message("scenario field", field,
                                                      k_scenario_fields)});
  }

  if (!safe_name(out.name)) {
    errs.push_back({"name",
                    out.name.empty()
                        ? "required (the bundle / baseline key)"
                        : "must use only letters, digits, '.', '_', '-'"});
  }
  std::vector<util::spec_error> spec_errors = builder.finalize();
  errs.insert(errs.end(), spec_errors.begin(), spec_errors.end());
  std::vector<util::spec_error> telemetry_errors = telemetry.finalize();
  errs.insert(errs.end(), telemetry_errors.begin(), telemetry_errors.end());
  if (!errs.empty()) return std::nullopt;

  out.spec = builder.spec();
  out.telemetry = telemetry.spec();
  return out;
}

std::optional<scenario_doc> parse_scenario_text(
    std::string_view text, std::vector<util::spec_error>* errors) {
  std::string parse_error;
  const std::optional<json_value> doc =
      json_value::parse(text, &parse_error);
  if (!doc.has_value()) {
    if (errors != nullptr) {
      errors->clear();
      errors->push_back({"json", "malformed JSON: " + parse_error});
    }
    return std::nullopt;
  }
  return parse_scenario(*doc, errors);
}

json_value scenario_to_json(const scenario_doc& doc) {
  json_value out = json_value::object();
  out["schema"] = scenario_schema_name;
  out["schema_version"] = scenario_schema_version;
  out["name"] = doc.name;
  if (!doc.description.empty()) out["description"] = doc.description;
  doc.spec.for_each_field(
      [&out](std::string_view field, auto value) { out[field] = value; });
  if (doc.telemetry.trace) {
    json_value trace = json_value::object();
    trace["enabled"] = true;
    trace["sample_every"] = doc.telemetry.trace_sample_every;
    trace["max_events"] = doc.telemetry.trace_max_events;
    out["trace"] = std::move(trace);
  }
  if (doc.telemetry.profile) out["profile"] = true;
  if (doc.emit_metrics) out["metrics"] = true;
  return out;
}

}  // namespace ssr::obs
