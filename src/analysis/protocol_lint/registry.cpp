#include "analysis/protocol_lint/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/protocol_lint/fixture.hpp"
#include "pp/protocol.hpp"
#include "verify/model_check/config_space.hpp"
#include "protocols/adversary.hpp"
#include "protocols/history_tree.hpp"
#include "protocols/initialized.hpp"
#include "protocols/initialized_ranking.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/state_space.hpp"
#include "protocols/sublinear.hpp"

namespace ssr::lint {
namespace {

// ---- state describers, so findings name states in protocol vocabulary ----

template <class State, class Fmt>
describe_fn make_describer(std::vector<State> states, Fmt fmt) {
  return [states = std::move(states), fmt](std::size_t i) {
    if (i >= states.size()) return "state #" + std::to_string(i);
    return fmt(states[i]);
  };
}

std::string describe_rank_state(std::uint32_t rank) {
  return "rank=" + std::to_string(rank);
}

std::string describe_optimal(const optimal_silent_ssr::agent_state& s) {
  switch (s.role) {
    case optimal_silent_ssr::role_t::settled:
      return "Settled(rank=" + std::to_string(s.rank) +
             ",children=" + std::to_string(s.children) + ")";
    case optimal_silent_ssr::role_t::unsettled:
      return "Unsettled(errorcount=" + std::to_string(s.errorcount) + ")";
    case optimal_silent_ssr::role_t::resetting:
      return std::string("Resetting(") + (s.leader ? "L" : "F") +
             ",rc=" + std::to_string(s.reset.resetcount) +
             ",delay=" + std::to_string(s.reset.delaytimer) + ")";
  }
  return "unknown-role";
}

std::string describe_loose(const loose_stabilizing_le::agent_state& s) {
  return std::string(s.leader ? "leader" : "follower") +
         "(timer=" + std::to_string(s.timer) + ")";
}

std::string describe_initialized_le(
    const initialized_leader_election::agent_state& s) {
  return s.leader ? "leader" : "follower";
}

std::string describe_tree_ranking(
    const initialized_tree_ranking::agent_state& s) {
  if (!s.settled) return "Unsettled";
  return "Settled(rank=" + std::to_string(s.rank) +
         ",children=" + std::to_string(s.children) + ")";
}

// Maps a designated configuration's states onto inventory indices (linear
// scan; inventories here are tiny), for the dead-state audit's seed set.
template <class State>
std::vector<std::size_t> seed_indices(const std::vector<State>& states,
                                      const std::vector<State>& config) {
  std::vector<std::size_t> seeds;
  for (const State& s : config) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i] == s) {
        seeds.push_back(i);
        break;
      }
    }
  }
  return seeds;
}

// Membership validator for sampled runs of enumerable protocols.
template <class State>
auto membership_validator(std::vector<State> states) {
  return [states =
              std::move(states)](const State& s) -> std::optional<std::string> {
    for (const State& t : states) {
      if (t == s) return std::nullopt;
    }
    return std::optional<std::string>("state outside the declared inventory");
  };
}

// The tiny tuning of tests/verify_test.cpp: small enough that the full
// configuration space of Optimal-Silent-SSR fits the exhaustive verifier.
optimal_silent_ssr::tuning tiny_optimal_tuning(std::uint32_t n) {
  optimal_silent_ssr::tuning t;
  t.e_max = n;
  t.r_max = 2;
  t.d_max = 2;
  return t;
}

// Loose-stabilization timeout, T = 4 ceil(log2 n) as in ssr_cli.
std::uint32_t loose_t_max(std::uint32_t n) {
  const double lg = std::log2(static_cast<double>(n));
  return std::max<std::uint32_t>(2, 4u * static_cast<std::uint32_t>(
                                         std::ceil(lg)));
}

// ---- model attachments (exact configuration-space checking) ---------------

// Generous sanity ceiling on the exact worst-case expected stabilization
// time.  Measured exact values: baseline 1 / 7 / 22 / 49.6 at n=2..5,
// optimal-tiny 11 / 28.8 / 106.7 at n=2..4 -- 2n^3 holds everywhere with
// headroom while still catching a protocol whose dynamics regress.
double cubic_budget(std::uint32_t n) {
  const double d = static_cast<double>(n);
  return 2.0 * d * d * d;
}

model_attachment baseline_model() {
  model_attachment m;
  m.max_n = 8;  // C(2n-1, n) configurations: 6435 at n=8, milliseconds
  m.budget = cubic_budget;
  m.build = [](std::uint32_t n) {
    const silent_n_state_ssr p(n);
    const std::vector<silent_n_state_ssr::agent_state> states =
        p.all_states();
    return verify::build_ranking_config_graph(
        p, states,
        [states](std::size_t i) { return describe_rank_state(states[i].rank); });
  };
  return m;
}

model_attachment optimal_tiny_model() {
  model_attachment m;
  m.max_n = 4;  // 27405 configurations, ~0.6 s; n=5 is 237k and minutes
  m.budget = cubic_budget;
  m.build = [](std::uint32_t n) {
    const optimal_silent_ssr p(n, tiny_optimal_tuning(n));
    const std::vector<optimal_silent_ssr::agent_state> states =
        p.all_states();
    return verify::build_ranking_config_graph(
        p, states,
        [states](std::size_t i) { return describe_optimal(states[i]); });
  };
  return m;
}

model_attachment loose_model() {
  model_attachment m;
  m.max_n = 4;
  m.build = [](std::uint32_t n) {
    const loose_stabilizing_le p(n, loose_t_max(n));
    const std::vector<loose_stabilizing_le::agent_state> states =
        p.all_states();
    return verify::build_config_graph<loose_stabilizing_le>(
        p, states,
        [p](const std::vector<loose_stabilizing_le::agent_state>& config) {
          return p.leader_count(config) == 1;
        },
        [states](std::size_t i) { return describe_loose(states[i]); });
  };
  return m;
}

model_attachment initialized_le_model() {
  model_attachment m;
  m.max_n = 8;  // two states; n+1 configurations
  m.build = [](std::uint32_t n) {
    const initialized_leader_election p(n);
    const std::vector<initialized_leader_election::agent_state> states =
        p.all_states();
    return verify::build_config_graph<initialized_leader_election>(
        p, states,
        [p](const std::vector<initialized_leader_election::agent_state>&
                config) { return leader_count(p, config) == 1; },
        [states](std::size_t i) { return describe_initialized_le(states[i]); });
  };
  return m;
}

model_attachment initialized_ranking_model() {
  model_attachment m;
  m.max_n = 5;  // 3n+1 states; C(20, 5) = 15504 configurations at n=5
  m.build = [](std::uint32_t n) {
    const initialized_tree_ranking p(n);
    const std::vector<initialized_tree_ranking::agent_state> states =
        p.all_states();
    return verify::build_ranking_config_graph(
        p, states,
        [states](std::size_t i) { return describe_tree_ranking(states[i]); });
  };
  return m;
}

model_attachment fixture_model(fixture_defect defect) {
  model_attachment m;
  m.max_n = 6;
  m.build = [defect](std::uint32_t n) {
    const broken_fixture_protocol p(n, defect);
    const std::vector<broken_fixture_protocol::agent_state> states =
        p.all_states();
    return verify::build_ranking_config_graph(
        p, states,
        [states](std::size_t i) { return describe_rank_state(states[i].rank); });
  };
  return m;
}

// ---- per-protocol check compositions --------------------------------------

void run_baseline(std::uint32_t n, lint_context& ctx) {
  const silent_n_state_ssr p(n);
  const std::vector<silent_n_state_ssr::agent_state> states = p.all_states();
  debug_assert_protocol_registration(p, states);
  const describe_fn d = make_describer(
      states, [](const silent_n_state_ssr::agent_state& s) {
        return describe_rank_state(s.rank);
      });
  const auto delta =
      check_transition_table(p, states, /*deterministic=*/true, ctx, d);
  check_rank_range(p, states, ctx, d);
  check_state_count(silent_n_state_states(n), states.size(), ctx);
  check_batch_partition(p, states, ctx, d);
  if (ctx.count(finding_code::closure_escape) == 0) {
    check_terminal_components(p, states, {true, true}, ctx);
  }
  check_dead_states(states, delta, {}, ctx, d);
}

void run_optimal(std::uint32_t n, bool tiny, lint_context& ctx) {
  const optimal_silent_ssr p =
      tiny ? optimal_silent_ssr(n, tiny_optimal_tuning(n))
           : optimal_silent_ssr(n);
  const std::vector<optimal_silent_ssr::agent_state> states = p.all_states();
  debug_assert_protocol_registration(p, states);
  const describe_fn d = make_describer(states, describe_optimal);
  const auto delta =
      check_transition_table(p, states, /*deterministic=*/true, ctx, d);
  check_rank_range(p, states, ctx, d);
  check_state_count(optimal_silent_states(n, p.params()), states.size(), ctx);
  check_batch_partition(p, states, ctx, d);
  // The full configuration-space verification is only tractable under the
  // tiny tuning; the default-tuning entry gets the state-level checks.
  if (tiny && ctx.count(finding_code::closure_escape) == 0) {
    check_terminal_components(p, states, {true, true}, ctx);
  }
  rng_t rng(0xadd5eedULL);
  std::vector<std::size_t> seeds =
      seed_indices(states, p.initial_configuration());
  const std::vector<std::size_t> valid = seed_indices(
      states, adversarial_configuration(
                  p, optimal_silent_scenario::valid_ranking, rng));
  seeds.insert(seeds.end(), valid.begin(), valid.end());
  check_dead_states(states, delta, seeds, ctx, d);
}

void run_sublinear(std::uint32_t n, std::uint32_t h, lint_context& ctx) {
  const sublinear_time_ssr p(n, h);
  const sublinear_time_ssr::tuning& t = p.params();

  // Table-1 per-agent memory audit (L012): the bits formula must be
  // positive, finite, at least the name field alone, and nondecreasing in n.
  const double bits = sublinear_state_bits(n, t);
  const double bits_next = sublinear_state_bits(
      n + 1, sublinear_time_ssr::tuning::defaults(n + 1, h));
  if (!std::isfinite(bits) || bits <= 0.0) {
    ctx.emit(finding_code::state_bits_bound, severity::error,
             "sublinear_state_bits(" + std::to_string(n) +
                 ") is not positive and finite");
  } else {
    if (bits < static_cast<double>(t.name_bits)) {
      ctx.emit(finding_code::state_bits_bound, severity::error,
               "per-agent bits " + std::to_string(bits) +
                   " below the name field alone (" +
                   std::to_string(t.name_bits) + " bits)");
    }
    if (bits_next < bits) {
      ctx.emit(finding_code::state_bits_bound, severity::error,
               "per-agent bits decrease from n=" + std::to_string(n) + " (" +
                   std::to_string(bits) + ") to n+1 (" +
                   std::to_string(bits_next) + ")");
    }
  }

  // The state space is quasi-exponential (exp(O(n^H) log n)), so closure is
  // checked as declared-space *invariants* along sampled runs from every
  // adversarial scenario, and stabilization as bounded-time convergence to
  // a valid ranking (the protocol is self-stabilizing, so every legal
  // starting configuration must converge).
  const auto validate_tree =
      [&t](const history_tree& tree) -> std::optional<std::string> {
    for (const history_tree::entry& e : tree.entries()) {
      if (e.sync < 1 || e.sync > t.s_max) {
        return "history-tree edge sync " + std::to_string(e.sync) +
               " outside {1.." + std::to_string(t.s_max) + "}";
      }
      if (e.timer > t.t_h) {
        return "history-tree edge timer " + std::to_string(e.timer) +
               " exceeds T_H=" + std::to_string(t.t_h);
      }
    }
    return std::nullopt;
  };
  // Structural legality of the *declared* space: what adversarial starting
  // states may look like.  Rosters may exceed n here -- ghost names are
  // exactly the error the protocol detects -- but see `validate` below.
  const auto initial_validate =
      [&](const sublinear_time_ssr::agent_state& s)
      -> std::optional<std::string> {
    if (s.name.length() > t.name_bits) {
      return "name of " + std::to_string(s.name.length()) +
             " bits exceeds name_bits=" + std::to_string(t.name_bits);
    }
    if (s.role == sublinear_time_ssr::role_t::collecting) {
      if (s.rank > n) {
        return "rank " + std::to_string(s.rank) + " outside {0.." +
               std::to_string(n) + "}";
      }
      if (!std::is_sorted(s.roster.begin(), s.roster.end()) ||
          std::adjacent_find(s.roster.begin(), s.roster.end()) !=
              s.roster.end()) {
        return std::string("roster is not sorted-unique");
      }
      if (s.tree.depth() > t.h) {
        return "history tree depth " + std::to_string(s.tree.depth()) +
               " exceeds H=" + std::to_string(t.h);
      }
      if (!s.tree.simply_labelled()) {
        return std::string("history tree is not simply labelled");
      }
      if (!(s.tree.root_name() == s.name)) {
        return std::string("history tree root not labelled with own name");
      }
      return validate_tree(s.tree);
    }
    if (s.reset.resetcount > t.r_max) {
      return "resetcount " + std::to_string(s.reset.resetcount) +
             " exceeds R_max=" + std::to_string(t.r_max);
    }
    if (s.reset.delaytimer > t.d_max) {
      return "delaytimer " + std::to_string(s.reset.delaytimer) +
             " exceeds D_max=" + std::to_string(t.d_max);
    }
    return std::nullopt;
  };
  // The tighter invariant every *produced* state satisfies: a merge either
  // stays within n names or trips the ghost check and resets, so an
  // oversized roster can only enter a run through the adversary.
  const auto validate =
      [&](const sublinear_time_ssr::agent_state& s)
      -> std::optional<std::string> {
    if (s.role == sublinear_time_ssr::role_t::collecting &&
        s.roster.size() > n) {
      return "roster of " + std::to_string(s.roster.size()) +
             " names exceeds n=" + std::to_string(n);
    }
    return initial_validate(s);
  };
  const auto converged =
      [&p](const std::vector<sublinear_time_ssr::agent_state>& config) {
        return is_valid_ranking(p, config);
      };

  constexpr sublinear_scenario kScenarios[] = {
      sublinear_scenario::uniform_random,
      sublinear_scenario::all_same_name,
      sublinear_scenario::single_collision,
      sublinear_scenario::ghost_names,
      sublinear_scenario::missing_own_name,
      sublinear_scenario::planted_histories,
      sublinear_scenario::mid_reset,
      sublinear_scenario::valid_ranking,
  };
  std::uint64_t seed = 0x5b11feedULL + h;
  for (const sublinear_scenario scenario : kScenarios) {
    rng_t rng(seed);
    std::vector<sublinear_time_ssr::agent_state> config =
        adversarial_configuration(p, scenario, rng);
    check_sampled_run(p, std::move(config), /*max_interactions=*/200'000,
                      seed, validate, initial_validate, converged,
                      finding_code::no_convergence, to_string(scenario), ctx);
    ++seed;
  }
}

void run_loose(std::uint32_t n, lint_context& ctx) {
  const loose_stabilizing_le p(n, loose_t_max(n));
  const std::vector<loose_stabilizing_le::agent_state> states = p.all_states();
  const describe_fn d = make_describer(states, describe_loose);
  const auto delta =
      check_transition_table(p, states, /*deterministic=*/true, ctx, d);
  check_state_count(loose_stabilizing_le::state_count(p.t_max()),
                    states.size(), ctx);
  // Not a ranking protocol and only *loosely* stabilizing (terminal SCCs
  // wobble by design), so no rank or terminal-component claims; instead
  // the worst-case dead configuration must elect a unique leader.
  const auto member = membership_validator(states);
  check_sampled_run(
      p, p.dead_configuration(), /*max_interactions=*/100'000,
      /*seed=*/0x100053ULL, member, member,
      [&p](const std::vector<loose_stabilizing_le::agent_state>& config) {
        return p.leader_count(config) == 1;
      },
      finding_code::no_convergence, "dead-configuration", ctx);
  check_dead_states(states, delta,
                    seed_indices(states, p.dead_configuration()), ctx, d);
}

void run_initialized_le(std::uint32_t n, lint_context& ctx) {
  const initialized_leader_election p(n);
  const std::vector<initialized_leader_election::agent_state> states =
      p.all_states();
  debug_assert_protocol_registration(p, states);
  const describe_fn d = make_describer(states, describe_initialized_le);
  const auto delta =
      check_transition_table(p, states, /*deterministic=*/true, ctx, d);
  check_rank_range(p, states, ctx, d);
  check_state_count(initialized_leader_election::state_count(n),
                    states.size(), ctx);
  // Not self-stabilizing by design (the all-followers configuration is a
  // deadlock); the verified claim is convergence from the designated
  // all-leaders configuration.
  const auto member = membership_validator(states);
  check_sampled_run(
      p, p.initial_configuration(), /*max_interactions=*/10'000,
      /*seed=*/0x1e11eULL, member, member,
      [&p](const std::vector<initialized_leader_election::agent_state>&
               config) { return leader_count(p, config) == 1; },
      finding_code::no_convergence, "designated-configuration", ctx);
  check_dead_states(states, delta,
                    seed_indices(states, p.initial_configuration()), ctx, d);
}

void run_initialized_ranking(std::uint32_t n, lint_context& ctx) {
  const initialized_tree_ranking p(n);
  const std::vector<initialized_tree_ranking::agent_state> states =
      p.all_states();
  debug_assert_protocol_registration(p, states);
  const describe_fn d = make_describer(states, describe_tree_ranking);
  const auto delta =
      check_transition_table(p, states, /*deterministic=*/true, ctx, d);
  check_rank_range(p, states, ctx, d);
  check_state_count(initialized_tree_ranking::state_count(n), states.size(),
                    ctx);
  // Not self-stabilizing (all-Unsettled deadlocks); the verified claim is
  // that the designated configuration converges to a rank *permutation*
  // (is_valid_ranking is exactly the permutation predicate).
  const auto member = membership_validator(states);
  check_sampled_run(
      p, p.initial_configuration(), /*max_interactions=*/50'000,
      /*seed=*/0x7ee4a6ULL, member, member,
      [&p](const std::vector<initialized_tree_ranking::agent_state>& config) {
        return is_valid_ranking(p, config);
      },
      finding_code::no_convergence, "designated-configuration", ctx);
  check_dead_states(states, delta,
                    seed_indices(states, p.initial_configuration()), ctx, d);
}

void run_fixture(fixture_defect defect, std::uint32_t n, lint_context& ctx) {
  const broken_fixture_protocol p(n, defect);
  const std::vector<broken_fixture_protocol::agent_state> states =
      p.all_states();
  // No registration assert here: fixtures violate it by design, and the
  // linter is the layer whose job is to *report* rather than abort.
  const describe_fn d = make_describer(
      states, [](const broken_fixture_protocol::agent_state& s) {
        return describe_rank_state(s.rank);
      });
  const auto delta =
      check_transition_table(p, states, /*deterministic=*/true, ctx, d);
  check_rank_range(p, states, ctx, d);
  check_state_count(broken_fixture_protocol::state_count(n), states.size(),
                    ctx);
  check_batch_partition(p, states, ctx, d);
  if (ctx.count(finding_code::closure_escape) == 0) {
    check_terminal_components(p, states, {true, true}, ctx);
  }
  check_dead_states(states, delta, {}, ctx, d);
}

protocol_entry fixture_entry(std::string name, fixture_defect defect,
                             std::string target) {
  protocol_entry e;
  e.name = std::move(name);
  e.summary = "broken fixture (" + std::string(to_string(defect)) +
              "); must trip " + target;
  e.claims = {true, true, true, true, true, true};
  e.hidden = true;
  e.run = [defect](std::uint32_t n, lint_context& ctx) {
    run_fixture(defect, n, ctx);
  };
  return e;
}

// Model-only fixture: no state-level check composition, just the exact
// configuration-space pass -- each finding is attributable to the model
// checker alone.
protocol_entry model_fixture_entry(std::string name, std::string summary,
                                   model_attachment model) {
  protocol_entry e;
  e.name = std::move(name);
  e.summary = std::move(summary);
  e.claims = {true, true, true, true, true, true};
  e.hidden = true;
  e.run = [](std::uint32_t, lint_context&) {};
  e.model = std::move(model);
  return e;
}

std::vector<protocol_entry> build_registry() {
  std::vector<protocol_entry> reg;

  reg.push_back({"baseline",
                 "Silent-n-state-SSR (Protocol 1): n states, Theta(n^2) time",
                 {true, true, true, true, true, true},
                 false,
                 run_baseline});
  reg.back().model = baseline_model();
  reg.push_back({"optimal",
                 "Optimal-Silent-SSR (Protocols 3+4), verification tuning "
                 "(E_max=n, R_max=2, D_max=2): full config-space proof",
                 {true, true, true, true, true, true},
                 false,
                 [](std::uint32_t n, lint_context& ctx) {
                   run_optimal(n, /*tiny=*/true, ctx);
                 }});
  reg.back().model = optimal_tiny_model();
  reg.push_back({"optimal-default",
                 "Optimal-Silent-SSR, paper tuning (E_max=20n, R_max=60 ln n, "
                 "D_max=8n): state-level checks only",
                 {true, true, true, true, true, true},
                 false,
                 [](std::uint32_t n, lint_context& ctx) {
                   run_optimal(n, /*tiny=*/false, ctx);
                 }});
  for (std::uint32_t h = 0; h <= 2; ++h) {
    reg.push_back({"sublinear-h" + std::to_string(h),
                   "Sublinear-Time-SSR (Protocols 5+6), H=" +
                       std::to_string(h) +
                       ": sampled declared-space invariants + convergence",
                   {false, false, true, false, true, h == 0},
                   false,
                   [h](std::uint32_t n, lint_context& ctx) {
                     run_sublinear(n, h, ctx);
                   }});
  }
  reg.push_back({"loose",
                 "Loosely-stabilizing leader election (timeout scheme), "
                 "T=4 ceil(log2 n)",
                 {true, true, false, false, false, false},
                 false,
                 run_loose});
  reg.back().model = loose_model();
  reg.push_back({"initialized-le",
                 "Initialized (l,l)->(l,f) leader election: NOT "
                 "self-stabilizing by design",
                 {true, true, true, false, false, false},
                 false,
                 run_initialized_le});
  reg.back().model = initialized_le_model();
  reg.push_back({"initialized-ranking",
                 "Initialized binary-tree ranking (3n+1 states): NOT "
                 "self-stabilizing by design",
                 {true, true, true, false, false, false},
                 false,
                 run_initialized_ranking});
  reg.back().model = initialized_ranking_model();

  reg.push_back(fixture_entry("broken-closure",
                              fixture_defect::escaping_state,
                              "L001 closure-escape"));
  reg.push_back(fixture_entry("broken-silence", fixture_defect::false_silence,
                              "L008 non-silent-terminal"));
  reg.push_back(fixture_entry("broken-rank", fixture_defect::duplicate_rank,
                              "L006 ranking-not-permutation"));
  reg.push_back(fixture_entry("broken-rank-range",
                              fixture_defect::rank_overflow,
                              "L005 rank-out-of-range"));
  reg.push_back(fixture_entry("broken-change-flag",
                              fixture_defect::stale_change_flag,
                              "L004 change-flag-mismatch"));
  reg.push_back(fixture_entry("broken-batch", fixture_defect::batch_mixing,
                              "L010 batch-partition-violation"));

  // Model-only fixtures: one per model-checker finding code.
  reg.push_back(model_fixture_entry(
      "broken-hot-class",
      "broken fixture (false-silence), model pass only; must trip L014 "
      "exhaustive-silence",
      fixture_model(fixture_defect::false_silence)));
  reg.push_back(model_fixture_entry(
      "broken-regressing-rank",
      "broken fixture (regressing-rank), model pass only; must trip L015 "
      "exhaustive-stabilization",
      fixture_model(fixture_defect::regressing_rank)));
  {
    model_attachment m = baseline_model();
    // Clean dynamics, absurd claim: the exact worst case (1 interaction at
    // n=2) already exceeds a quarter-interaction budget.
    m.budget = [](std::uint32_t) { return 0.25; };
    reg.push_back(model_fixture_entry(
        "broken-time-budget",
        "clean baseline dynamics with a 0.25-interaction declared budget; "
        "must trip L016 expected-time-budget",
        std::move(m)));
  }
  reg.push_back(model_fixture_entry(
      "broken-isolated-class",
      "broken fixture (isolated-class), model pass only; must trip L017 "
      "spurious-terminal-class at n=2",
      fixture_model(fixture_defect::isolated_class)));
  return reg;
}

}  // namespace

const std::vector<protocol_entry>& lint_registry() {
  static const std::vector<protocol_entry> registry = build_registry();
  return registry;
}

const protocol_entry* find_protocol(std::string_view name) {
  for (const protocol_entry& e : lint_registry()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<std::string> registry_names(bool include_hidden) {
  std::vector<std::string> names;
  for (const protocol_entry& e : lint_registry()) {
    if (e.hidden && !include_hidden) continue;
    names.push_back(e.name);
  }
  return names;
}

}  // namespace ssr::lint
