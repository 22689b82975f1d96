#include "util/request_spec.hpp"

#include <algorithm>
#include <cstdio>

#include "util/edit_distance.hpp"

namespace ssr::util {
namespace {

constexpr std::string_view k_protocols[] = {
    "baseline",
    "optimal",
    "sublinear",
    "loose",
};

constexpr std::string_view k_engines[] = {"direct", "batched", "sharded"};

constexpr std::string_view k_baseline_scenarios[] = {"uniform_random"};

constexpr std::string_view k_optimal_scenarios[] = {
    "uniform_random",        "all_settled_rank_one", "no_leader",
    "all_unsettled_expired", "all_dormant_followers", "duplicated_ranks",
    "valid_ranking",
};

constexpr std::string_view k_sublinear_scenarios[] = {
    "uniform_random", "all_same_name",     "single_collision",
    "ghost_names",    "missing_own_name",  "planted_histories",
    "mid_reset",      "valid_ranking",
};

constexpr std::string_view k_loose_scenarios[] = {"dead_configuration"};

bool contains(std::span<const std::string_view> names, std::string_view v) {
  return std::find(names.begin(), names.end(), v) != names.end();
}

/// Shortest round-trip double formatting (matches the JSON writer's
/// behavior for integral values: no trailing ".0" noise in fingerprints).
std::string format_double(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v >= -9.007199254740992e15 && v <= 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string render_errors(std::span<const spec_error> errors) {
  std::string out;
  for (const spec_error& e : errors) {
    if (!out.empty()) out += "; ";
    out += e.field;
    out += ": ";
    out += e.message;
  }
  return out;
}

std::span<const std::string_view> protocol_names() { return k_protocols; }

std::span<const std::string_view> scenario_names(std::string_view protocol) {
  if (protocol == "baseline") return k_baseline_scenarios;
  if (protocol == "optimal") return k_optimal_scenarios;
  if (protocol == "sublinear") return k_sublinear_scenarios;
  if (protocol == "loose") return k_loose_scenarios;
  return {};
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

std::string unknown_name_message(std::string_view what, std::string_view given,
                                 std::span<const std::string_view> candidates) {
  std::string message = "unknown ";
  message += what;
  message += " '";
  message += given;
  message += "'";
  const std::string_view suggestion = nearest_candidate(given, candidates);
  if (!suggestion.empty()) {
    message += " (did you mean ";
    message += suggestion;
    message += "?)";
  }
  return message;
}

std::string sim_request_spec::canonical() const {
  std::string key = "protocol=";
  key += protocol;
  key += " scenario=";
  key += scenario;
  key += " n=";
  key += std::to_string(n);
  if (protocol == "sublinear") {
    key += " h=";
    key += std::to_string(h);
  }
  if (protocol == "loose") {
    key += " t_max=";
    key += std::to_string(t_max);
  }
  key += " trials=";
  key += std::to_string(trials);
  key += " seed=";
  key += std::to_string(seed);
  key += " max_time=";
  key += format_double(max_time);
  key += " engine=";
  key += to_string(engine.kind);
  if (engine.kind == engine_kind::sharded) {
    key += " shards=";
    key += std::to_string(engine.shards);
  }
  return key;
}

void spec_builder::set_protocol(std::string_view v) {
  spec_.protocol = std::string(v);
}

void spec_builder::set_scenario(std::string_view v) {
  spec_.scenario = std::string(v);
  scenario_given_ = true;
}

void spec_builder::set_engine(std::string_view v) {
  engine_text_ = std::string(v);
  engine_given_ = true;
}

void spec_builder::set_shards(std::uint64_t v) {
  spec_.engine.shards = static_cast<std::uint32_t>(v);
  shards_given_ = true;
}

void spec_builder::set_n(std::uint64_t v) {
  spec_.n = static_cast<std::uint32_t>(v);
}

void spec_builder::set_h(std::uint64_t v) {
  spec_.h = static_cast<std::uint32_t>(v);
}

void spec_builder::set_t_max(std::uint64_t v) {
  spec_.t_max = static_cast<std::uint32_t>(v);
}

void spec_builder::set_trials(std::uint64_t v) { spec_.trials = v; }

void spec_builder::set_seed(std::uint64_t v) { spec_.seed = v; }

void spec_builder::set_max_time(double v) { spec_.max_time = v; }

void spec_builder::set_u64_text(std::string_view field,
                                std::string_view text) {
  const std::optional<std::uint64_t> value = parse_u64(text);
  if (!value) {
    std::string message = "expected an unsigned integer, got '";
    message += text;
    message += "'";
    syntax_errors_.push_back({std::string(field), std::move(message)});
    return;
  }
  if (field == "n") return set_n(*value);
  if (field == "h") return set_h(*value);
  if (field == "t_max") return set_t_max(*value);
  if (field == "trials") return set_trials(*value);
  if (field == "seed") return set_seed(*value);
  if (field == "shards") return set_shards(*value);
  syntax_errors_.push_back(
      {std::string(field), "not a spec field this builder knows"});
}

void spec_builder::set_max_time_text(std::string_view text) {
  char* end = nullptr;
  const std::string copy(text);
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size()) {
    std::string message = "expected a number, got '";
    message += text;
    message += "'";
    syntax_errors_.push_back({"max_time", std::move(message)});
    return;
  }
  set_max_time(value);
}

namespace {
constexpr std::string_view k_trace_options[] = {"sample_every", "max_events"};
}  // namespace

std::span<const std::string_view> trace_option_names() {
  return k_trace_options;
}

void telemetry_builder::set_trace_enabled(bool v) { spec_.trace = v; }

void telemetry_builder::set_trace_option(std::string_view name,
                                         std::uint64_t value) {
  if (name == "sample_every") {
    spec_.trace_sample_every = value;
    return;
  }
  if (name == "max_events") {
    spec_.trace_max_events = value;
    return;
  }
  std::string field = "trace.";
  field += name;
  errors_.push_back(
      {std::move(field),
       unknown_name_message("trace option", name, k_trace_options)});
}

void telemetry_builder::set_profile(bool v) { spec_.profile = v; }

std::vector<spec_error> telemetry_builder::finalize() {
  std::vector<spec_error> errors = errors_;
  if (spec_.trace_sample_every == 0) {
    errors.push_back({"trace.sample_every",
                      "sampling period must be >= 1 (1 keeps every event)"});
  }
  if (spec_.trace_max_events == 0) {
    errors.push_back(
        {"trace.max_events", "event buffer cap must be >= 1"});
  }
  return errors;
}

std::vector<spec_error> spec_builder::finalize() {
  std::vector<spec_error> errors = syntax_errors_;

  const bool protocol_known = contains(k_protocols, spec_.protocol);
  if (!protocol_known) {
    errors.push_back({"protocol", unknown_name_message("protocol",
                                                       spec_.protocol,
                                                       k_protocols)});
  } else {
    // Protocol-specific scenario default: loose has no uniform_random.
    if (!scenario_given_ && spec_.protocol == "loose")
      spec_.scenario = "dead_configuration";
    const auto scenarios = scenario_names(spec_.protocol);
    if (!contains(scenarios, spec_.scenario)) {
      std::string what = spec_.protocol;
      what += " scenario";
      errors.push_back(
          {"scenario",
           unknown_name_message(what, spec_.scenario, scenarios)});
    }
  }

  if (engine_given_) {
    const std::optional<engine_kind> kind = parse_engine(engine_text_);
    if (!kind) {
      errors.push_back(
          {"engine", unknown_name_message("engine", engine_text_, k_engines)});
    } else {
      spec_.engine.kind = *kind;
    }
  }
  if (shards_given_) {
    if (spec_.engine.kind != engine_kind::sharded) {
      std::string message = "shards requires engine=sharded (got engine=";
      message += to_string(spec_.engine.kind);
      message += ")";
      errors.push_back({"shards", std::move(message)});
    } else if (spec_.engine.shards == 0) {
      errors.push_back({"shards",
                        "shard count must be >= 1 (omit shards to use "
                        "hardware concurrency)"});
    }
  }

  if (spec_.n < 2)
    errors.push_back({"n", "population size must be at least 2"});
  if (spec_.trials == 0)
    errors.push_back({"trials", "trial count must be positive"});
  if (!(spec_.max_time > 0.0)) {
    errors.push_back({"max_time", "parallel-time budget must be positive"});
  } else if (spec_.max_time * static_cast<double>(spec_.n) >=
             18446744073709551616.0) {
    // Run loops cap a trial at max_time * n interactions, a 64-bit count.
    errors.push_back({"max_time", "max_time * n must stay below 2^64 "
                                  "interactions (n=" +
                                      std::to_string(spec_.n) + ")"});
  }
  if (protocol_known && spec_.protocol == "sublinear" && spec_.h == 0)
    errors.push_back({"h", "sublinear history depth must be at least 1"});

  return errors;
}

}  // namespace ssr::util
