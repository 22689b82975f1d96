// The interaction-history tree of Detect-Name-Collision (Protocols 7 and 8,
// Section 5.2).
//
// Each Collecting agent stores a tree of depth at most H whose root is
// labelled with its own name.  A root-to-leaf path
//   i --s1--> v1 --s2--> v2 ... --sp--> vp
// records a *history*: a chain of interactions along which i heard about vp,
// where s_k is the sync value generated by the interaction between v_{k-1}
// and v_k that i (transitively) heard about.  Each edge also carries a timer
// in {0..T_H}; only paths whose edges are all unexpired participate in
// collision detection, which defuses adversarially planted histories.
//
// When agents a and b interact they (1) check each other's fresh histories
// for consistency (Protocol 8: walk the reversed path in the partner's tree
// and accept if *any* edge sync matches -- a later re-interaction overwrites
// the first edge but then imports a matching deeper record, cf. Figure 2
// right), (2) draw one shared sync value and graft each other's trees
// (truncated to depth H-1) under a fresh edge, (3) drop any subtree labelled
// with their own name (keeping paths simply labelled), and (4) age every
// edge timer by one.
//
// Layout: the root name plus one flat preorder array of entries, each a
// non-root node with the edge into it, its depth and its subtree size.  A
// node's children follow it, each one subtree size after the previous, so
// child lookup hops instead of scanning, and steps (2)-(4) are one
// compaction pass per side that allocates nothing once the array's capacity
// has grown.  `root()` and `adopt()` convert to and from the nested
// `tree_node` form that serialization, adversarial construction and tests
// read and build.
//
// Simulation-only memory bound (DESIGN.md deviation #2): the paper's
// protocol never frees expired subtrees, so trees can grow to ~n^H nodes.
// Expired edges cannot take part in detection (all-timers-positive is
// required), and the records that the safety argument needs on the
// *responding* side are rewritten fresh on every re-interaction, so we prune
// a subtree once its edge has been expired for `prune_retention` additional
// owner interactions.  Retention is configurable; tests verify no
// false-positive collisions arise from clean configurations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "protocols/names.hpp"

namespace ssr {

struct tree_edge;

/// Nested form of a tree (serialization, adversarial construction, tests).
struct tree_node {
  name_t name;
  std::vector<tree_edge> edges;  // children; names are pairwise distinct
};

struct tree_edge {
  std::uint32_t sync = 0;     // {1..S_max}
  std::uint32_t timer = 0;    // {0..T_H}; 0 = expired
  std::uint32_t expired_for = 0;  // simulation-only pruning age
  tree_node child;
};

class history_tree {
 public:
  /// A non-root node and the edge into it, in preorder.  The node's
  /// subtree is this entry and the `size - 1` entries after it.
  struct entry {
    name_t name;
    std::uint32_t sync = 0;         // {1..S_max}
    std::uint32_t timer = 0;        // {0..T_H}; 0 = expired
    std::uint32_t expired_for = 0;  // simulation-only pruning age
    std::uint32_t depth = 1;        // 1 for the root's children
    std::uint32_t size = 1;
  };

  history_tree() = default;
  explicit history_tree(const name_t& own_name);

  const name_t& root_name() const { return root_name_; }
  /// The nodes below the root, in preorder.
  std::span<const entry> entries() const { return entries_; }
  /// The tree in nested form (a copy).
  tree_node root() const;

  /// Reinitializes to the singleton tree {own_name} (used by Reset).
  void reset(const name_t& own_name);

  /// Builds a tree from its nested form (deserialization and adversarial
  /// construction); the caller is responsible for the simply-labelled /
  /// depth invariants.
  static history_tree adopt(const tree_node& root);

  /// Protocol 7 lines 1-4 for one direction: scans every *fresh* history in
  /// this tree ending at a node labelled `partner_name` and checks it
  /// against the partner's tree (Protocol 8).  Returns true iff some history
  /// is inconsistent, i.e. a name collision has been detected.
  bool detects_collision_against(const name_t& partner_name,
                                 const history_tree& partner) const;

  /// Protocol 7 lines 6-14 for two distinct interacting agents: each tree
  /// grafts the other's pre-interaction tree truncated to depth
  /// `depth_limit` (H-1) under a fresh edge carrying `sync` and `timer`,
  /// drops the subtrees labelled with its own root name, and ages its
  /// edges with `age_edges(prune_retention)`.  Equivalent to both grafts,
  /// both scrubs and both agings in that order.
  static void exchange(history_tree& a, history_tree& b,
                       std::uint32_t depth_limit, std::uint32_t sync,
                       std::uint32_t timer, std::int64_t prune_retention);

  /// Protocol 7 lines 7-10: replaces any depth-1 child labelled
  /// `partner.root_name()` with the partner's tree truncated to depth
  /// `depth_limit` (H-1), attached via a new edge carrying `sync` and
  /// `timer`.  `partner` must be another tree.
  void graft_partner(const history_tree& partner, std::uint32_t depth_limit,
                     std::uint32_t sync, std::uint32_t timer);

  /// Protocol 7 lines 11-12: removes every subtree rooted at a node
  /// labelled `name` (keeps the root itself even if labelled `name`).
  void remove_named_subtrees(const name_t& name);

  /// Protocol 7 lines 13-14 plus the simulation-only pruning: decrements
  /// every timer (floor 0) and frees subtrees expired for longer than
  /// `prune_retention` (pass a negative value to never prune, as in the
  /// paper).
  void age_edges(std::int64_t prune_retention);

  /// Diagnostics / test support.
  std::size_t node_count() const { return entries_.size() + 1; }
  std::uint32_t depth() const;
  /// True iff no root-to-leaf path repeats a name (the simply-labelled
  /// invariant) and no non-root node is labelled with the root's name.
  bool simply_labelled() const;
  /// Multi-line ASCII rendering (Figure 2-style) for traces.
  std::string to_string() const;

 private:
  /// One pass over the entries: drops the subtrees of every depth-1 entry
  /// before `graft_at` labelled like the entry at `graft_at` (the record a
  /// graft replaces; pass entries_.size() when nothing was grafted), of
  /// every entry labelled `*scrub` (when not null) and, when `age` is set,
  /// of every entry aged past `prune_retention`; then recomputes sizes.
  void compact(std::size_t graft_at, const name_t* scrub, bool age,
               std::int64_t prune_retention);

  name_t root_name_;
  std::vector<entry> entries_;
};

}  // namespace ssr
