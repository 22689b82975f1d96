// The runnable protocols: one descriptor for each protocol the front ends
// run, and runnable_protocols, the list of them.  Requests and their
// fingerprints (util/request_spec), scenario documents (obs/scenario), the
// trial recipe (serve/trial_recipe.hpp), serialize's headers and ssr_cli's
// listings read each protocol from here through with_protocol(name, fn),
// and name none.  A descriptor's first scenario is its default, and
// start(p, i, rng) draws scenarios[i]; `parameter` is the request field it
// reads besides n, checked by check() and passed to make(); the engine
// seed is the trial seed ^ salt.  runnable_defaults holds the members a
// descriptor may leave out; docs/protocol_map.md says what else a new
// runnable protocol provides.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "pp/rng.hpp"
#include "protocols/adversary.hpp"
#include "protocols/loose_stabilizing.hpp"

namespace ssr {

struct runnable_defaults {
  static constexpr std::string_view parameter = "";
  /// The field error for the parameter's value, or nullptr.
  static const char* check(std::uint32_t) { return nullptr; }
  /// How long correctness must hold after its last entry.
  static double confirm_parallel_time(std::uint32_t) { return 0.0; }
  /// Whether interaction graphs other than the complete one are refused.
  static constexpr bool complete_graph_only = false;
};

struct baseline_protocol : runnable_defaults {
  using protocol_type = silent_n_state_ssr;
  static constexpr std::string_view name = "baseline";
  static constexpr std::string_view summary =
      "Silent-n-state-SSR (Theta(n^2) time, n states; Table 1 row 1)";
  static constexpr std::string_view scenarios[] = {"uniform_random"};
  static auto start(const protocol_type& p, std::size_t, rng_t& rng) {
    return adversarial_configuration(p, rng);
  }
  static auto make(std::uint32_t n, std::uint32_t) { return protocol_type(n); }
  static constexpr std::uint64_t salt = 0x5bd1e995;
  static constexpr const char* failure =
      "baseline did not converge within max_time";
};

struct optimal_protocol : runnable_defaults {
  using protocol_type = optimal_silent_ssr;
  static constexpr std::string_view name = "optimal";
  static constexpr std::string_view summary =
      "Optimal-Silent-SSR (O(n) time, O(n) states; Theorem 4.1)";
  /// In optimal_silent_scenario order; its to_string reads this table.
  static constexpr std::string_view scenarios[] = {
      "uniform_random",        "all_settled_rank_one", "no_leader",
      "all_unsettled_expired", "all_dormant_followers", "duplicated_ranks",
      "valid_ranking"};
  static auto start(const protocol_type& p, std::size_t i, rng_t& rng) {
    return adversarial_configuration(
        p, static_cast<optimal_silent_scenario>(i), rng);
  }
  static auto make(std::uint32_t n, std::uint32_t) { return protocol_type(n); }
  static constexpr std::uint64_t salt = 0x9747b28c;
  static constexpr const char* failure =
      "optimal-silent did not converge within max_time";
};

struct sublinear_protocol : runnable_defaults {
  using protocol_type = sublinear_time_ssr;
  static constexpr std::string_view name = "sublinear";
  static constexpr std::string_view summary =
      "Sublinear-Time-SSR (O(n/2^h polylog n) time; Theorem 5.1)";
  /// In sublinear_scenario order; its to_string reads this table.
  static constexpr std::string_view scenarios[] = {
      "uniform_random", "all_same_name",    "single_collision",
      "ghost_names",    "missing_own_name", "planted_histories",
      "mid_reset",      "valid_ranking"};
  static auto start(const protocol_type& p, std::size_t i, rng_t& rng) {
    return adversarial_configuration(p, static_cast<sublinear_scenario>(i),
                                     rng);
  }
  static constexpr std::string_view parameter = "h";
  static const char* check(std::uint32_t h) {
    return h == 0 ? "sublinear history depth must be at least 1" : nullptr;
  }
  static auto make(std::uint32_t n, std::uint32_t h) {
    return protocol_type(n, h);
  }
  static constexpr std::uint64_t salt = 0x85ebca6b;
  /// Non-silent: correctness must hold for a window scaled like the bench
  /// sweeps'.
  static double confirm_parallel_time(std::uint32_t n) {
    return 8.0 * std::log2(static_cast<double>(n) + 1.0);
  }
  static constexpr const char* failure =
      "sublinear did not converge within max_time";
  static constexpr bool complete_graph_only = true;
};

/// Loose stabilization keeps its leader only for a finite holding time, so
/// the measurement is the first entry into exactly one leader: no
/// confirmation window.  The engine seed is the trial seed itself.
struct loose_protocol : runnable_defaults {
  using protocol_type = loose_stabilizing_le;
  static constexpr std::string_view name = "loose";
  static constexpr std::string_view summary =
      "loose-stabilizing LE (Theta(log n)-state comparison point)";
  static constexpr std::string_view scenarios[] = {"dead_configuration"};
  static auto start(const protocol_type& p, std::size_t, rng_t&) {
    return p.dead_configuration();
  }
  static constexpr std::string_view parameter = "t_max";
  /// t_max = 0 means 4 ceil(log2 n).
  static auto make(std::uint32_t n, std::uint32_t t_max) {
    const auto fallback = static_cast<std::uint32_t>(
        4 * std::ceil(std::log2(static_cast<double>(n))));
    return protocol_type(n, t_max > 0 ? t_max : fallback);
  }
  static constexpr std::uint64_t salt = 0;
  static constexpr const char* failure =
      "loose LE found no unique leader within max_time";
};

template <class... D>
struct protocol_list {
  static constexpr std::string_view names[] = {D::name...};
};

/// Every runnable protocol, in the order --list-protocols prints them.
using runnable_protocols = protocol_list<baseline_protocol, optimal_protocol,
                                         sublinear_protocol, loose_protocol>;

namespace detail {
template <class Fn, class D, class... Rest>
decltype(auto) with_protocol(protocol_list<D, Rest...>, std::string_view name,
                             Fn& fn) {
  if (name == D::name) return fn(D{});
  if constexpr (sizeof...(Rest) == 0) {
    throw std::invalid_argument("unknown protocol '" + std::string(name) +
                                "'");
  } else {
    return detail::with_protocol(protocol_list<Rest...>{}, name, fn);
  }
}
}  // namespace detail

/// fn(D{}) for the runnable protocol D named `name`.  Front ends validate
/// names first (util::spec_builder); any other name throws
/// std::invalid_argument.
template <class Fn>
decltype(auto) with_protocol(std::string_view name, Fn&& fn) {
  return detail::with_protocol(runnable_protocols{}, name, fn);
}

}  // namespace ssr
