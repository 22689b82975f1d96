#include "protocols/adversary.hpp"

#include <algorithm>

#include "pp/assert.hpp"
#include "pp/random.hpp"
#include "protocols/history_tree.hpp"

namespace ssr {
namespace {

using os_role = optimal_silent_ssr::role_t;
using os_state = optimal_silent_ssr::agent_state;
using sl_role = sublinear_time_ssr::role_t;
using sl_state = sublinear_time_ssr::agent_state;

os_state random_optimal_silent_state(const optimal_silent_ssr& protocol,
                                     rng_t& rng) {
  const auto& t = protocol.params();
  const std::uint32_t n = protocol.population_size();
  os_state s;
  switch (uniform_below(rng, 3)) {
    case 0:
      s.role = os_role::settled;
      s.rank = static_cast<std::uint32_t>(1 + uniform_below(rng, n));
      s.children = static_cast<std::uint8_t>(uniform_below(rng, 3));
      break;
    case 1:
      s.role = os_role::unsettled;
      s.errorcount =
          static_cast<std::uint32_t>(uniform_below(rng, t.e_max + 1));
      break;
    default:
      s.role = os_role::resetting;
      s.leader = coin_flip(rng);
      s.reset.resetcount =
          static_cast<std::uint32_t>(uniform_below(rng, t.r_max + 1));
      // The delaytimer field only exists in the dormant sub-role
      // (resetcount = 0); while propagating it is pinned to D_max (the
      // canonical dead value, cf. propagate_reset.hpp).
      s.reset.delaytimer =
          s.reset.resetcount == 0
              ? static_cast<std::uint32_t>(uniform_below(rng, t.d_max + 1))
              : t.d_max;
      break;
  }
  return s;
}

name_t random_short_name(rng_t& rng, std::uint32_t max_bits) {
  const auto len =
      static_cast<std::uint32_t>(uniform_below(rng, max_bits + 1));
  return random_name(rng, len);
}

/// A random simply-labelled tree over `pool` names, depth <= depth_limit.
/// Used for uniform-random and planted-history scenarios; the syncs and
/// timers are arbitrary, which is exactly what an adversary would plant.
tree_node random_tree(rng_t& rng, const name_t& root_name,
                      const std::vector<name_t>& pool,
                      std::uint32_t depth_limit,
                      const sublinear_time_ssr::tuning& t,
                      std::vector<name_t>& trail) {
  tree_node node;
  node.name = root_name;
  if (depth_limit == 0) return node;
  trail.push_back(root_name);
  for (const name_t& candidate : pool) {
    if (node.edges.size() >= 3) break;     // keep generated trees small
    if (!bernoulli(rng, 0.4)) continue;
    if (std::find(trail.begin(), trail.end(), candidate) != trail.end())
      continue;  // preserve simple labelling
    tree_edge e;
    e.sync = static_cast<std::uint32_t>(1 + uniform_below(rng, t.s_max));
    e.timer = static_cast<std::uint32_t>(uniform_below(rng, t.t_h + 1));
    e.child = random_tree(rng, candidate, pool, depth_limit - 1, t, trail);
    node.edges.push_back(std::move(e));
  }
  trail.pop_back();
  return node;
}

history_tree make_random_tree(rng_t& rng, const name_t& own,
                              const std::vector<name_t>& pool,
                              const sublinear_time_ssr::tuning& t) {
  history_tree tree(own);
  if (t.h == 0) return tree;
  std::vector<name_t> trail;
  tree_node root = random_tree(rng, own, pool, std::min(t.h, 3u), t, trail);
  // Rebuild through the public interface so invariants hold: graft each
  // child as a partner snapshot.
  history_tree out(own);
  for (tree_edge& e : root.edges) {
    history_tree partner;
    partner.reset(e.child.name);
    // temporarily wrap the subtree: copy children into partner via grafts
    // is equivalent; for adversarial purposes the one-level structure plus
    // random syncs is already the interesting part, so attach directly.
    out.graft_partner(partner, t.h - 1, e.sync, e.timer);
  }
  return out;
}

std::vector<name_t> sorted_unique(std::vector<name_t> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

}  // namespace

std::vector<silent_n_state_ssr::agent_state> adversarial_configuration(
    const silent_n_state_ssr& protocol, rng_t& rng) {
  const std::uint32_t n = protocol.population_size();
  std::vector<silent_n_state_ssr::agent_state> config(n);
  for (auto& s : config)
    s.rank = static_cast<std::uint32_t>(uniform_below(rng, n));
  return config;
}

std::vector<os_state> adversarial_configuration(
    const optimal_silent_ssr& protocol, optimal_silent_scenario scenario,
    rng_t& rng) {
  const std::uint32_t n = protocol.population_size();
  const auto& t = protocol.params();
  std::vector<os_state> config(n);

  switch (scenario) {
    case optimal_silent_scenario::uniform_random:
      for (auto& s : config) s = random_optimal_silent_state(protocol, rng);
      break;
    case optimal_silent_scenario::all_settled_rank_one:
      for (auto& s : config) {
        s.role = os_role::settled;
        s.rank = 1;
        s.children = 2;  // pretend the tree is already built
      }
      break;
    case optimal_silent_scenario::no_leader:
      // Ranks 2..n settled with full children counters (so nobody recruits)
      // plus one Unsettled agent.  No rank collision exists; the *only*
      // error signal is the Unsettled agent's patience running out, which
      // isolates the errorcount detection path.
      for (std::uint32_t i = 0; i + 1 < n; ++i) {
        config[i].role = os_role::settled;
        config[i].rank = i + 2;
        config[i].children = 2;
      }
      config[n - 1].role = os_role::unsettled;
      config[n - 1].errorcount = t.e_max;
      break;
    case optimal_silent_scenario::all_unsettled_expired:
      for (auto& s : config) {
        s.role = os_role::unsettled;
        s.errorcount = 0;
      }
      break;
    case optimal_silent_scenario::all_dormant_followers:
      for (auto& s : config) {
        s.role = os_role::resetting;
        s.leader = false;
        s.reset.resetcount = 0;
        s.reset.delaytimer = static_cast<std::uint32_t>(
            uniform_below(rng, t.d_max) + 1);
      }
      break;
    case optimal_silent_scenario::duplicated_ranks:
      for (std::uint32_t i = 0; i < n; ++i) {
        config[i].role = os_role::settled;
        config[i].rank = i / 2 + 1;  // each rank held twice
        config[i].children = static_cast<std::uint8_t>(uniform_below(rng, 3));
      }
      break;
    case optimal_silent_scenario::valid_ranking:
      for (std::uint32_t i = 0; i < n; ++i) {
        config[i].role = os_role::settled;
        config[i].rank = i + 1;
        const std::uint64_t first_child = 2ull * (i + 1);
        config[i].children = first_child + 1 <= n ? 2
                             : first_child <= n  ? 1
                                                 : 0;
      }
      break;
  }
  return config;
}

std::string to_string(optimal_silent_scenario scenario) {
  switch (scenario) {
    case optimal_silent_scenario::uniform_random: return "uniform_random";
    case optimal_silent_scenario::all_settled_rank_one:
      return "all_settled_rank_one";
    case optimal_silent_scenario::no_leader: return "no_leader";
    case optimal_silent_scenario::all_unsettled_expired:
      return "all_unsettled_expired";
    case optimal_silent_scenario::all_dormant_followers:
      return "all_dormant_followers";
    case optimal_silent_scenario::duplicated_ranks: return "duplicated_ranks";
    case optimal_silent_scenario::valid_ranking: return "valid_ranking";
  }
  return "unknown";
}

std::vector<sl_state> adversarial_configuration(
    const sublinear_time_ssr& protocol, sublinear_scenario scenario,
    rng_t& rng) {
  const std::uint32_t n = protocol.population_size();
  const auto& t = protocol.params();
  std::vector<sl_state> config(n);

  // A pool of names used to fill rosters and trees.
  std::vector<name_t> pool;
  for (std::uint32_t i = 0; i < n + 2; ++i)
    pool.push_back(random_name(rng, t.name_bits));
  pool = sorted_unique(pool);

  auto fresh_collecting = [&](sl_state& s, const name_t& name) {
    s.role = sl_role::collecting;
    s.name = name;
    s.roster.assign(1, name);
    s.tree.reset(name);
    s.rank = 0;
  };

  switch (scenario) {
    case sublinear_scenario::uniform_random:
      for (auto& s : config) {
        if (bernoulli(rng, 0.7)) {
          s.role = sl_role::collecting;
          s.name = random_short_name(rng, t.name_bits);
          // Random roster: random subset of the pool, possibly without the
          // agent's own name.
          std::vector<name_t> roster;
          for (const name_t& candidate : pool)
            if (bernoulli(rng, 0.3)) roster.push_back(candidate);
          if (bernoulli(rng, 0.5)) roster.push_back(s.name);
          roster = sorted_unique(roster);
          if (roster.size() > n) roster.resize(n);
          if (roster.empty()) roster.push_back(s.name);
          s.roster = std::move(roster);
          s.rank = static_cast<std::uint32_t>(uniform_below(rng, n + 1));
          s.tree = make_random_tree(rng, s.name, pool, t);
        } else {
          s.role = sl_role::resetting;
          s.name = random_short_name(rng, t.name_bits);
          s.reset.resetcount =
              static_cast<std::uint32_t>(uniform_below(rng, t.r_max + 1));
          s.reset.delaytimer =
              static_cast<std::uint32_t>(uniform_below(rng, t.d_max + 1));
        }
      }
      break;
    case sublinear_scenario::all_same_name: {
      const name_t shared = random_name(rng, t.name_bits);
      for (auto& s : config) fresh_collecting(s, shared);
      break;
    }
    case sublinear_scenario::single_collision: {
      // n-1 distinct names, the first duplicated onto two agents.  Every
      // roster holds exactly those n-1 names: unions never exceed n-1, so
      // neither the ghost check nor the roster-size check can fire and the
      // only way back to correctness is detecting the collision itself.
      std::vector<name_t> names;
      while (names.size() < n - 1) {
        names.push_back(random_name(rng, t.name_bits));
        names = sorted_unique(std::move(names));
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        auto& s = config[i];
        s.role = sl_role::collecting;
        s.name = names[i == 0 ? 0 : i - 1];  // agents 0 and 1 collide
        s.roster = names;
        s.tree.reset(s.name);
        s.rank = 0;
      }
      break;
    }
    case sublinear_scenario::ghost_names: {
      // Unique real names plus ghosts planted in every roster.
      for (std::uint32_t i = 0; i < n; ++i)
        fresh_collecting(config[i], pool[i % pool.size()]);
      std::vector<name_t> ghosts;
      for (int g = 0; g < 3; ++g)
        ghosts.push_back(random_name(rng, t.name_bits));
      for (auto& s : config) {
        std::vector<name_t> padded = s.roster;
        padded.insert(padded.end(), ghosts.begin(), ghosts.end());
        s.roster = sorted_unique(std::move(padded));
      }
      break;
    }
    case sublinear_scenario::missing_own_name:
      for (std::uint32_t i = 0; i < n; ++i) {
        fresh_collecting(config[i], pool[i % pool.size()]);
        // Roster filled with *other* agents' names only.
        std::vector<name_t> roster;
        for (std::uint32_t k = 0; k < n; ++k)
          if (k != i % pool.size()) roster.push_back(pool[k % pool.size()]);
        config[i].roster = sorted_unique(std::move(roster));
      }
      break;
    case sublinear_scenario::planted_histories:
      for (std::uint32_t i = 0; i < n; ++i) {
        fresh_collecting(config[i], pool[i % pool.size()]);
        config[i].tree = make_random_tree(rng, config[i].name, pool, t);
      }
      break;
    case sublinear_scenario::mid_reset:
      for (std::uint32_t i = 0; i < n; ++i) {
        auto& s = config[i];
        s.role = sl_role::resetting;
        if (i % 3 == 0) {
          s.reset.resetcount = t.r_max;
          s.reset.delaytimer = t.d_max;
          s.name = name_t{};
        } else if (i % 3 == 1) {
          s.reset.resetcount = 0;
          s.reset.delaytimer = static_cast<std::uint32_t>(
              1 + uniform_below(rng, t.d_max));
          s.name = random_short_name(rng, t.name_bits);
        } else {
          fresh_collecting(s, pool[i % pool.size()]);
        }
      }
      break;
    case sublinear_scenario::valid_ranking: {
      std::vector<name_t> names;
      while (names.size() < n) {
        names.push_back(random_name(rng, t.name_bits));
        names = sorted_unique(std::move(names));
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        auto& s = config[i];
        s.role = sl_role::collecting;
        s.name = names[i];
        s.roster = names;
        s.tree.reset(s.name);
        s.rank = i + 1;
      }
      break;
    }
  }
  return config;
}

std::string to_string(sublinear_scenario scenario) {
  switch (scenario) {
    case sublinear_scenario::uniform_random: return "uniform_random";
    case sublinear_scenario::all_same_name: return "all_same_name";
    case sublinear_scenario::single_collision: return "single_collision";
    case sublinear_scenario::ghost_names: return "ghost_names";
    case sublinear_scenario::missing_own_name: return "missing_own_name";
    case sublinear_scenario::planted_histories: return "planted_histories";
    case sublinear_scenario::mid_reset: return "mid_reset";
    case sublinear_scenario::valid_ranking: return "valid_ranking";
  }
  return "unknown";
}

template <class Scenario>
std::optional<Scenario> scenario_named(std::string_view name) {
  // valid_ranking is the last enumerator of both scenario types.
  for (int s = 0; s <= static_cast<int>(Scenario::valid_ranking); ++s) {
    if (to_string(static_cast<Scenario>(s)) == name)
      return static_cast<Scenario>(s);
  }
  return std::nullopt;
}

template std::optional<optimal_silent_scenario> scenario_named(
    std::string_view);
template std::optional<sublinear_scenario> scenario_named(std::string_view);

}  // namespace ssr
