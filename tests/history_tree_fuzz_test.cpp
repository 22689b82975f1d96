// Fuzz-style property tests for the history-tree operations: arbitrary
// interleavings of grafts, own-name scrubs and aging must preserve the
// structural invariants Protocol 7 relies on, and a faithfully simulated
// multi-agent soup must never produce a tree the protocol could not have
// built.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "pp/random.hpp"
#include "protocols/history_tree.hpp"
#include "protocols/serialize.hpp"

namespace ssr {
namespace {

name_t make_name(std::uint32_t id) {
  name_t n;
  for (int b = 5; b >= 0; --b) n.append_bit((id >> b) & 1);
  return n;
}

struct soup {
  static constexpr std::uint32_t kAgents = 10;
  std::uint32_t h;
  std::uint32_t t_h;
  std::vector<history_tree> trees;

  explicit soup(std::uint32_t depth, std::uint32_t timer)
      : h(depth), t_h(timer) {
    for (std::uint32_t i = 0; i < kAgents; ++i)
      trees.emplace_back(make_name(i));
  }

  // One protocol-faithful interaction between agents i and j.
  void meet(std::uint32_t i, std::uint32_t j, rng_t& rng,
            std::int64_t retention) {
    const auto sync = static_cast<std::uint32_t>(1 + uniform_below(rng, 100));
    const history_tree before_i = trees[i];
    trees[i].graft_partner(trees[j], h - 1, sync, t_h);
    trees[j].graft_partner(before_i, h - 1, sync, t_h);
    trees[i].remove_named_subtrees(trees[i].root_name());
    trees[j].remove_named_subtrees(trees[j].root_name());
    trees[i].age_edges(retention);
    trees[j].age_edges(retention);
  }
};

class HistoryTreeFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(HistoryTreeFuzz, InvariantsSurviveRandomInterleavings) {
  const auto [h, seed] = GetParam();
  soup world(h, /*timer=*/12);
  rng_t rng(derive_seed(4242 + h, seed));
  for (int step = 0; step < 1500; ++step) {
    const auto i = static_cast<std::uint32_t>(uniform_below(rng, soup::kAgents));
    auto j = static_cast<std::uint32_t>(uniform_below(rng, soup::kAgents - 1));
    if (j >= i) ++j;
    world.meet(i, j, rng, /*retention=*/12);

    if (step % 100 != 0) continue;
    for (std::uint32_t agent = 0; agent < soup::kAgents; ++agent) {
      const auto& tree = world.trees[agent];
      ASSERT_LE(tree.depth(), h) << "agent " << agent << " step " << step;
      ASSERT_TRUE(tree.simply_labelled())
          << "agent " << agent << " step " << step;
      ASSERT_EQ(tree.root_name(), make_name(agent));
      // Serialization round-trips arbitrary reachable trees.
      const std::string text = tree_to_text(tree);
      ASSERT_EQ(tree_to_text(tree_from_text(text)), text);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistoryTreeFuzz,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Range(0, 3)));

// With pruning disabled the node count is monotone in information content
// but still bounded by the structural cap sum_{d<=H} (kAgents-1)^d.
TEST(HistoryTreeFuzz, NodeCountRespectsStructuralCap) {
  const std::uint32_t h = 2;
  soup world(h, /*timer=*/1000);
  rng_t rng(99);
  for (int step = 0; step < 3000; ++step) {
    const auto i = static_cast<std::uint32_t>(uniform_below(rng, soup::kAgents));
    auto j = static_cast<std::uint32_t>(uniform_below(rng, soup::kAgents - 1));
    if (j >= i) ++j;
    world.meet(i, j, rng, /*retention=*/-1);
  }
  const std::size_t cap = 1 + 9 + 9 * 9;  // root + depth1 + depth2
  for (const auto& tree : world.trees) {
    EXPECT_LE(tree.node_count(), cap);
  }
}

// Aggressive pruning (retention 0) keeps trees small without ever breaking
// the structural invariants -- only detection power is affected.
TEST(HistoryTreeFuzz, AggressivePruningStaysStructurallySound) {
  const std::uint32_t h = 3;
  soup world(h, /*timer=*/4);
  rng_t rng(7);
  for (int step = 0; step < 2000; ++step) {
    const auto i = static_cast<std::uint32_t>(uniform_below(rng, soup::kAgents));
    auto j = static_cast<std::uint32_t>(uniform_below(rng, soup::kAgents - 1));
    if (j >= i) ++j;
    world.meet(i, j, rng, /*retention=*/0);
  }
  for (const auto& tree : world.trees) {
    EXPECT_TRUE(tree.simply_labelled());
    EXPECT_LE(tree.depth(), h);
    EXPECT_LT(tree.node_count(), 200u);  // timers cap the fresh horizon
  }
}

// The nested-node operations the flat history_tree replaced, kept as the
// reference that pins its semantics: the graft via copy_truncated, the
// own-name scrub, aging with pruning, and the Protocol 7/8 scan.
namespace reference {

tree_node copy_truncated(const tree_node& node, std::uint32_t depth_limit) {
  tree_node out;
  out.name = node.name;
  if (depth_limit == 0) return out;
  for (const tree_edge& e : node.edges) {
    tree_edge copy;
    copy.sync = e.sync;
    copy.timer = e.timer;
    copy.expired_for = e.expired_for;
    copy.child = copy_truncated(e.child, depth_limit - 1);
    out.edges.push_back(std::move(copy));
  }
  return out;
}

void graft(tree_node& root, const tree_node& partner, std::uint32_t depth_limit,
           std::uint32_t sync, std::uint32_t timer) {
  std::erase_if(root.edges, [&](const tree_edge& e) {
    return e.child.name == partner.name;
  });
  tree_edge e;
  e.sync = sync;
  e.timer = timer;
  e.child = copy_truncated(partner, depth_limit);
  root.edges.push_back(std::move(e));
}

void scrub(tree_node& node, const name_t& name) {
  std::erase_if(node.edges,
                [&](const tree_edge& e) { return e.child.name == name; });
  for (tree_edge& e : node.edges) scrub(e.child, name);
}

void age(tree_node& node, std::int64_t retention) {
  for (tree_edge& e : node.edges) {
    if (e.timer > 0) {
      --e.timer;
    } else {
      ++e.expired_for;
    }
    age(e.child, retention);
  }
  if (retention >= 0) {
    std::erase_if(node.edges, [&](const tree_edge& e) {
      return e.timer == 0 &&
             e.expired_for > static_cast<std::uint64_t>(retention);
    });
  }
}

bool consistent_with_path(const tree_node& responder, const name_t& asker_root,
                          std::span<const std::pair<name_t, std::uint32_t>>
                              path) {
  const std::size_t p = path.size();
  const tree_node* cur = &responder;
  for (std::size_t k = 1; k <= p; ++k) {
    const name_t& wanted = k < p ? path[p - 1 - k].first : asker_root;
    const tree_edge* next = nullptr;
    for (const tree_edge& e : cur->edges) {
      if (e.child.name == wanted) {
        next = &e;
        break;
      }
    }
    if (next == nullptr) return false;
    if (next->sync == path[p - k].second) return true;
    cur = &next->child;
  }
  return false;
}

bool inconsistent_below(const tree_node& node, const name_t& asker_root,
                        const name_t& partner_name, const tree_node& partner,
                        std::vector<std::pair<name_t, std::uint32_t>>& steps) {
  for (const tree_edge& e : node.edges) {
    if (e.timer == 0) continue;
    steps.emplace_back(e.child.name, e.sync);
    const bool collision =
        (e.child.name == partner_name &&
         !consistent_with_path(partner, asker_root, steps)) ||
        inconsistent_below(e.child, asker_root, partner_name, partner, steps);
    steps.pop_back();
    if (collision) return true;
  }
  return false;
}

bool detects_collision_against(const tree_node& asker,
                               const name_t& partner_name,
                               const tree_node& partner) {
  std::vector<std::pair<name_t, std::uint32_t>> steps;
  return inconsistent_below(asker, asker.name, partner_name, partner, steps);
}

/// serialize's tree_to_text format, written from the nested form.
void write(const tree_node& node, std::ostringstream& os) {
  os << '(' << node.name.to_string();
  for (const tree_edge& e : node.edges) {
    os << " (" << e.sync << ' ' << e.timer << ' ' << e.expired_for << ' ';
    write(e.child, os);
    os << ')';
  }
  os << ')';
}

std::string to_text(const tree_node& node) {
  std::ostringstream os;
  write(node, os);
  return os.str();
}

}  // namespace reference

/// One soup three ways: the flat tree through history_tree::exchange (the
/// protocol's path), the flat tree through the separate graft / scrub / age
/// steps, and the nested reference.
struct reference_soup {
  std::uint32_t h;
  std::uint32_t t_h;
  std::int64_t retention;
  std::vector<history_tree> exchanged;
  std::vector<history_tree> stepped;
  std::vector<tree_node> nested;

  reference_soup(std::uint32_t depth, std::uint32_t timer,
                 std::int64_t prune_retention)
      : h(depth), t_h(timer), retention(prune_retention) {
    for (std::uint32_t i = 0; i < soup::kAgents; ++i) {
      exchanged.emplace_back(make_name(i));
      stepped.emplace_back(make_name(i));
      nested.push_back(tree_node{make_name(i), {}});
    }
  }

  void meet(std::uint32_t i, std::uint32_t j, std::uint32_t sync) {
    history_tree::exchange(exchanged[i], exchanged[j], h - 1, sync, t_h,
                           retention);

    const history_tree before_i = stepped[i];
    stepped[i].graft_partner(stepped[j], h - 1, sync, t_h);
    stepped[j].graft_partner(before_i, h - 1, sync, t_h);
    stepped[i].remove_named_subtrees(stepped[i].root_name());
    stepped[j].remove_named_subtrees(stepped[j].root_name());
    stepped[i].age_edges(retention);
    stepped[j].age_edges(retention);

    const tree_node nested_before_i = nested[i];
    reference::graft(nested[i], nested[j], h - 1, sync, t_h);
    reference::graft(nested[j], nested_before_i, h - 1, sync, t_h);
    reference::scrub(nested[i], nested[i].name);
    reference::scrub(nested[j], nested[j].name);
    reference::age(nested[i], retention);
    reference::age(nested[j], retention);
  }
};

class HistoryTreeReference
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

// After every meet both flat paths render exactly the reference's tree, and
// Protocol 7's scan agrees with the reference for every ordered pair of
// agents -- honest partners, and impostors carrying one agent's name with
// another agent's tree, so inconsistent histories occur too.
TEST_P(HistoryTreeReference, FlatTreeMatchesNestedReference) {
  const auto [h, retention] = GetParam();
  reference_soup world(h, /*timer=*/12, retention);
  rng_t rng(derive_seed(77 + h, static_cast<std::uint64_t>(retention + 1)));
  const std::uint32_t n = soup::kAgents;
  const int steps = retention < 0 && h == 3 ? 250 : 600;
  for (int step = 0; step < steps; ++step) {
    const auto i = static_cast<std::uint32_t>(uniform_below(rng, n));
    auto j = static_cast<std::uint32_t>(uniform_below(rng, n - 1));
    if (j >= i) ++j;
    const auto sync = static_cast<std::uint32_t>(1 + uniform_below(rng, 100));
    world.meet(i, j, sync);

    for (const std::uint32_t agent : {i, j}) {
      const std::string expected = reference::to_text(world.nested[agent]);
      ASSERT_EQ(tree_to_text(world.exchanged[agent]), expected)
          << "agent " << agent << " step " << step;
      ASSERT_EQ(tree_to_text(world.stepped[agent]), expected)
          << "agent " << agent << " step " << step;
    }
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = 0; b < n; ++b) {
        if (a == b) continue;
        const std::uint32_t impostor = (b + 1 + step % (n - 1)) % n;
        for (const std::uint32_t tree : {b, impostor}) {
          const name_t& partner_name = world.nested[b].name;
          ASSERT_EQ(world.exchanged[a].detects_collision_against(
                        partner_name, world.exchanged[tree]),
                    reference::detects_collision_against(
                        world.nested[a], partner_name, world.nested[tree]))
              << "asker " << a << " name " << b << " tree " << tree
              << " step " << step;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistoryTreeReference,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(12, -1)));

}  // namespace
}  // namespace ssr
