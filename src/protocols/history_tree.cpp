#include "protocols/history_tree.hpp"

#include <algorithm>
#include <sstream>

#include "pp/assert.hpp"

namespace ssr {
namespace {

using entry = history_tree::entry;

/// Appends `partner`'s tree, truncated to depth `depth_limit`, below a
/// fresh depth-1 edge (Protocol 7 lines 9-10).  The appended sizes are
/// stale until compact() recomputes them.
void append_graft(std::vector<entry>& out, const name_t& partner_root,
                  std::span<const entry> partner, std::uint32_t depth_limit,
                  std::uint32_t sync, std::uint32_t timer) {
  out.push_back({partner_root, sync, timer, 0, 1, 1});
  if (depth_limit == 0) return;
  for (std::size_t i = 0; i < partner.size();) {
    if (partner[i].depth > depth_limit) {
      i += partner[i].size;
      continue;
    }
    entry copy = partner[i];
    ++copy.depth;
    out.push_back(copy);
    ++i;
  }
}

/// One step of a fresh history being scanned, linked back towards the
/// asker's root; the links live in the scan's stack frames.
struct history_link {
  const entry* step;
  const history_link* up;  // nullptr: `step` is a child of the root
};

/// Protocol 8, Check-Path-Consistency, from the responder's side: walks
/// `responder` from its root along the asker's path reversed -- the k-th
/// step (k = 1..p) follows the child labelled v_{p-k} (v_0 being the
/// asker's root) and compares syncs with the asker's edge e_{p+1-k}.  Any
/// match certifies a shared interaction history (Figure 2); if the walk
/// ends -- possibly immediately -- without a match, the path is
/// inconsistent.
bool consistent_with_path(std::span<const entry> responder,
                          const name_t& asker_root, const history_link& last) {
  std::size_t first = 0;  // children of the current node: [first, end)
  std::size_t end = responder.size();
  for (const history_link* link = &last; link != nullptr; link = link->up) {
    const name_t& wanted =
        link->up != nullptr ? link->up->step->name : asker_root;
    std::size_t child = first;
    while (child < end && !(responder[child].name == wanted))
      child += responder[child].size;
    if (child >= end) return false;  // reversed suffix ends: no match found
    if (responder[child].sync == link->step->sync) return true;
    first = child + 1;
    end = child + responder[child].size;
  }
  return false;
}

/// Protocol 7 lines 1-4: a depth-first walk over the asker's fresh
/// histories that runs Protocol 8 at every node labelled `partner_name`.
/// It reads the entries front to back, so each step's index is known before
/// the step's entry is loaded.
struct collision_scan {
  std::span<const entry> asker;
  const name_t& asker_root;
  const name_t& partner_name;
  std::span<const entry> partner;
  bool found = false;

  /// Scans the siblings at `depth` from `i` on, and their subtrees; returns
  /// the index after them.
  std::size_t siblings(std::size_t i, std::uint32_t depth,
                       const history_link* up) {
    while (i < asker.size() && asker[i].depth == depth) {
      const entry& e = asker[i];
      if (e.timer == 0) {  // only fresh histories count (line 2)
        i += e.size;
        continue;
      }
      const history_link link{&e, up};
      if (e.name == partner_name &&
          !consistent_with_path(partner, asker_root, link)) {
        found = true;
        return asker.size();
      }
      ++i;
      if (i < asker.size() && asker[i].depth > depth)
        i = siblings(i, depth + 1, &link);
    }
    return i;
  }
};

void nest(std::span<const entry> entries, std::size_t first, std::size_t end,
          tree_node& node) {
  for (std::size_t i = first; i < end; i += entries[i].size) {
    const entry& e = entries[i];
    tree_edge edge;
    edge.sync = e.sync;
    edge.timer = e.timer;
    edge.expired_for = e.expired_for;
    edge.child.name = e.name;
    nest(entries, i + 1, i + e.size, edge.child);
    node.edges.push_back(std::move(edge));
  }
}

void flatten(const tree_node& node, std::uint32_t depth,
             std::vector<entry>& out) {
  for (const tree_edge& e : node.edges) {
    const std::size_t at = out.size();
    out.push_back({e.child.name, e.sync, e.timer, e.expired_for, depth, 1});
    flatten(e.child, depth + 1, out);
    out[at].size = static_cast<std::uint32_t>(out.size() - at);
  }
}

}  // namespace

history_tree::history_tree(const name_t& own_name) { reset(own_name); }

tree_node history_tree::root() const {
  tree_node out;
  out.name = root_name_;
  nest(entries_, 0, entries_.size(), out);
  return out;
}

void history_tree::reset(const name_t& own_name) {
  root_name_ = own_name;
  entries_.clear();
}

history_tree history_tree::adopt(const tree_node& root) {
  history_tree tree;
  tree.root_name_ = root.name;
  flatten(root, 1, tree.entries_);
  return tree;
}

bool history_tree::detects_collision_against(const name_t& partner_name,
                                             const history_tree& partner) const {
  collision_scan scan{entries_, root_name_, partner_name, partner.entries_};
  scan.siblings(0, 1, nullptr);
  return scan.found;
}

void history_tree::exchange(history_tree& a, history_tree& b,
                            std::uint32_t depth_limit, std::uint32_t sync,
                            std::uint32_t timer,
                            std::int64_t prune_retention) {
  SSR_REQUIRE(&a != &b);
  // Each graft reads the partner's pre-interaction tree: a's graft is
  // appended first, so b's graft reads a's untouched prefix.
  const std::size_t a_graft = a.entries_.size();
  append_graft(a.entries_, b.root_name_, b.entries_, depth_limit, sync,
               timer);
  const std::size_t b_graft = b.entries_.size();
  append_graft(b.entries_, a.root_name_,
               std::span<const entry>(a.entries_).first(a_graft), depth_limit,
               sync, timer);
  a.compact(a_graft, &a.root_name_, true, prune_retention);
  b.compact(b_graft, &b.root_name_, true, prune_retention);
}

void history_tree::graft_partner(const history_tree& partner,
                                 std::uint32_t depth_limit, std::uint32_t sync,
                                 std::uint32_t timer) {
  SSR_REQUIRE(&partner != this);
  const std::size_t graft_at = entries_.size();
  append_graft(entries_, partner.root_name_, partner.entries_, depth_limit,
               sync, timer);
  compact(graft_at, nullptr, false, -1);
}

void history_tree::remove_named_subtrees(const name_t& name) {
  compact(entries_.size(), &name, false, -1);
}

void history_tree::age_edges(std::int64_t prune_retention) {
  compact(entries_.size(), nullptr, true, prune_retention);
}

void history_tree::compact(std::size_t graft_at, const name_t* scrub,
                           bool age, std::int64_t prune_retention) {
  const std::size_t end = entries_.size();
  const bool grafted = graft_at < end;
  const name_t replaced = grafted ? entries_[graft_at].name : name_t{};
  std::size_t kept = 0;
  for (std::size_t i = 0; i < end;) {
    entry& e = entries_[i];
    bool drop = (grafted && i < graft_at && e.depth == 1 &&
                 e.name == replaced) ||
                (scrub != nullptr && e.name == *scrub);
    if (!drop && age) {
      if (e.timer > 0) {
        --e.timer;
      } else {
        ++e.expired_for;
      }
      drop = prune_retention >= 0 && e.timer == 0 &&
             e.expired_for > static_cast<std::uint64_t>(prune_retention);
    }
    if (drop) {
      const std::uint32_t depth = e.depth;
      do {
        ++i;
      } while (i < end && entries_[i].depth > depth);
      continue;
    }
    if (kept != i) entries_[kept] = e;  // kept < i: an entry already read
    ++kept;
    ++i;
  }
  entries_.resize(kept);
  // Back to front, so every later subtree's size is final: a subtree ends
  // at the first later entry that is not deeper, found by hopping over the
  // children.
  for (std::size_t i = kept; i-- > 0;) {
    std::size_t next = i + 1;
    while (next < kept && entries_[next].depth > entries_[i].depth)
      next += entries_[next].size;
    entries_[i].size = static_cast<std::uint32_t>(next - i);
  }
}

std::uint32_t history_tree::depth() const {
  std::uint32_t deepest = 0;
  for (const entry& e : entries_) deepest = std::max(deepest, e.depth);
  return deepest;
}

bool history_tree::simply_labelled() const {
  // trail[d] is the ancestor at depth d of the entry being checked.
  std::vector<name_t> trail{root_name_};
  for (const entry& e : entries_) {
    trail.resize(e.depth);
    if (std::find(trail.begin(), trail.end(), e.name) != trail.end())
      return false;
    trail.push_back(e.name);
  }
  return true;
}

std::string history_tree::to_string() const {
  std::ostringstream os;
  os << root_name_.to_string() << '\n';
  for (const entry& e : entries_) {
    os << std::string(2 * std::size_t{e.depth}, ' ') << "--" << e.sync
       << "(t" << e.timer << ")--> " << e.name.to_string() << '\n';
  }
  return os.str();
}

}  // namespace ssr
