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

std::size_t node_count(const tree_node& node) {
  std::size_t count = 1;
  for (const tree_edge& e : node.edges) count += node_count(e.child);
  return count;
}

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
  std::size_t pruned = 0;  // meets in which the reference's aging pruned

  /// Agent i starts from `start[i]`, or from its singleton tree.
  reference_soup(std::uint32_t depth, std::uint32_t timer,
                 std::int64_t prune_retention,
                 std::vector<tree_node> start = {})
      : h(depth), t_h(timer), retention(prune_retention) {
    for (std::uint32_t i = 0; i < soup::kAgents; ++i) {
      if (i < start.size()) {
        exchanged.push_back(history_tree::adopt(start[i]));
        stepped.push_back(history_tree::adopt(start[i]));
        nested.push_back(start[i]);
      } else {
        exchanged.emplace_back(make_name(i));
        stepped.emplace_back(make_name(i));
        nested.push_back(tree_node{make_name(i), {}});
      }
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
    const std::size_t before = node_count(nested[i]) + node_count(nested[j]);
    reference::age(nested[i], retention);
    reference::age(nested[j], retention);
    if (node_count(nested[i]) + node_count(nested[j]) < before) ++pruned;
  }
};

/// Runs `steps` random meets.  After each, both flat paths render exactly
/// the reference's tree, and Protocol 7's scan agrees with the reference for
/// every ordered pair of agents -- honest partners, and impostors carrying
/// one agent's name with another agent's tree, so inconsistent histories
/// occur too.
void replay(reference_soup& world, rng_t& rng, int steps) {
  const std::uint32_t n = soup::kAgents;
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

class HistoryTreeReference
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

// Every retention that can prune does prune inside the soup, so the
// clock-driven pruning is compared against the reference's countdown.
TEST_P(HistoryTreeReference, FlatTreeMatchesNestedReference) {
  const auto [h, retention] = GetParam();
  reference_soup world(h, /*timer=*/12, retention);
  rng_t rng(derive_seed(77 + h, static_cast<std::uint64_t>(retention + 1)));
  replay(world, rng, retention < 0 && h == 3 ? 250 : 600);
  if (retention >= 0) {
    EXPECT_GT(world.pruned, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistoryTreeReference,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(12, -1)));
INSTANTIATE_TEST_SUITE_P(Pruning, HistoryTreeReference,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(2)));

/// A random tree of depth at most `depth` below `agent`'s root, over the
/// soup's names with repeats allowed, plus a depth-1 edge to the root's own
/// name and two depth-1 edges to one other name: shapes only adopt()
/// produces, which the general compaction handles.
tree_node unclean_tree(rng_t& rng, std::uint32_t agent, std::uint32_t depth) {
  const auto random_below = [&rng](const name_t& name, std::uint32_t levels,
                                   const auto& self) -> tree_node {
    tree_node node{name, {}};
    if (levels == 0) return node;
    const auto children = uniform_below(rng, 3);
    for (std::uint64_t c = 0; c < children; ++c) {
      tree_edge e;
      e.sync = static_cast<std::uint32_t>(1 + uniform_below(rng, 100));
      e.timer = static_cast<std::uint32_t>(uniform_below(rng, 13));
      e.expired_for = static_cast<std::uint32_t>(uniform_below(rng, 4));
      e.child = self(make_name(static_cast<std::uint32_t>(
                         uniform_below(rng, soup::kAgents))),
                     levels - 1, self);
      node.edges.push_back(std::move(e));
    }
    return node;
  };
  tree_node root = random_below(make_name(agent), depth, random_below);
  const name_t twice = make_name((agent + 1) % soup::kAgents);
  for (const name_t& name : {make_name(agent), twice, twice}) {
    tree_edge e;
    e.sync = static_cast<std::uint32_t>(1 + uniform_below(rng, 100));
    e.timer = static_cast<std::uint32_t>(1 + uniform_below(rng, 12));
    e.child = random_below(name, depth - 1, random_below);
    root.edges.push_back(std::move(e));
  }
  return root;
}

// Adopted trees with own-name entries and duplicate depth-1 names start
// the soup: both flat paths and the scans take the general route until the
// trees are clean, and still match the reference throughout.
TEST(HistoryTreeReference, AdoptedUncleanTreesMatchNestedReference) {
  for (const std::uint32_t h : {1u, 2u, 3u}) {
    SCOPED_TRACE("H=" + std::to_string(h));
    rng_t rng(derive_seed(555, h));
    std::vector<tree_node> start;
    for (std::uint32_t i = 0; i < soup::kAgents; ++i)
      start.push_back(unclean_tree(rng, i, h));
    reference_soup world(h, /*timer=*/12, /*prune_retention=*/4, start);
    for (std::uint32_t i = 0; i < soup::kAgents; ++i) {
      ASSERT_FALSE(world.exchanged[i].simply_labelled());
      ASSERT_EQ(tree_to_text(world.exchanged[i]),
                reference::to_text(world.nested[i]));
    }
    replay(world, rng, 300);
    if (HasFatalFailure()) return;
    EXPECT_GT(world.pruned, 0u);
  }
}

// One soup aged under changing retentions: each change recomputes the
// earliest prune time, and a negative retention stops pruning.
TEST(HistoryTreeReference, RetentionChangesMidRun) {
  for (const std::uint32_t h : {1u, 2u, 3u}) {
    SCOPED_TRACE("H=" + std::to_string(h));
    reference_soup world(h, /*timer=*/8, /*prune_retention=*/30);
    rng_t rng(derive_seed(909, h));
    for (const std::int64_t retention : {30, 1, -1, 6, 0}) {
      SCOPED_TRACE("retention " + std::to_string(retention));
      world.retention = retention;
      const std::size_t pruned = world.pruned;
      replay(world, rng, 150);
      if (HasFatalFailure()) return;
      if (retention < 0) {
        EXPECT_EQ(world.pruned, pruned);
      } else if (retention < 8) {
        EXPECT_GT(world.pruned, pruned);
      }
    }
  }
}

// A tree whose clock has run writes the nested writer's bytes, reads back
// to the same bytes, and the copy read back (its clock at 0) evolves
// exactly like the original.
TEST(HistoryTreeReference, TextRoundTripAtANonzeroClock) {
  for (const std::uint32_t h : {1u, 2u, 3u}) {
    SCOPED_TRACE("H=" + std::to_string(h));
    reference_soup world(h, /*timer=*/12, /*prune_retention=*/5);
    rng_t rng(derive_seed(313, h));
    replay(world, rng, 400);
    if (HasFatalFailure()) return;
    std::vector<history_tree> reread;
    for (std::uint32_t i = 0; i < soup::kAgents; ++i) {
      const std::string text = tree_to_text(world.exchanged[i]);
      ASSERT_EQ(text, reference::to_text(world.nested[i]));
      reread.push_back(tree_from_text(text));
      ASSERT_EQ(tree_to_text(reread.back()), text);
    }
    for (int step = 0; step < 200; ++step) {
      const auto i =
          static_cast<std::uint32_t>(uniform_below(rng, soup::kAgents));
      auto j =
          static_cast<std::uint32_t>(uniform_below(rng, soup::kAgents - 1));
      if (j >= i) ++j;
      const auto sync =
          static_cast<std::uint32_t>(1 + uniform_below(rng, 100));
      history_tree::exchange(world.exchanged[i], world.exchanged[j], h - 1,
                             sync, world.t_h, world.retention);
      history_tree::exchange(reread[i], reread[j], h - 1, sync, world.t_h,
                             world.retention);
      for (const std::uint32_t agent : {i, j}) {
        ASSERT_EQ(tree_to_text(reread[agent]),
                  tree_to_text(world.exchanged[agent]))
            << "agent " << agent << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace ssr
