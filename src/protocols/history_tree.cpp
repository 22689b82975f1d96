#include "protocols/history_tree.hpp"

#include <algorithm>
#include <sstream>

#include "pp/assert.hpp"

namespace ssr {
namespace {

using entry = history_tree::entry;

/// Fibonacci hashing of the packed name; the caller masks the result.
std::size_t name_hash(const name_t& name) {
  const std::uint64_t key =
      name.bits() ^ (std::uint64_t{name.length()} << 58);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
}

void flatten(const tree_node& node, std::uint32_t depth,
             std::vector<entry>& out) {
  for (const tree_edge& e : node.edges) {
    const std::size_t at = out.size();
    // An adopted tree's clock starts at 0, so the timer is the expiry.
    out.push_back({e.child.name, e.timer, e.sync, e.expired_for, depth, 1});
    flatten(e.child, depth + 1, out);
    out[at].size = static_cast<std::uint32_t>(out.size() - at);
  }
}

}  // namespace

/// One step of a fresh history being scanned, linked back towards the
/// asker's root; the links live in the scan's stack frames.
struct history_tree::history_link {
  const entry* step;
  const history_link* up;  // nullptr: `step` is a child of the root
};

/// Protocol 7 lines 1-4: a depth-first walk over the asker's fresh
/// histories that runs Protocol 8 at every node labelled `partner_name`.
/// It reads the entries front to back, so each step's index is known before
/// the step's entry is loaded.
struct history_tree::collision_scan {
  const history_tree& asker;
  const name_t& partner_name;
  const history_tree& partner;
  bool found = false;

  /// Protocol 8, Check-Path-Consistency, from the responder's side: walks
  /// `responder` from its root along the asker's path reversed -- the k-th
  /// step (k = 1..p) follows the child labelled v_{p-k} (v_0 being the
  /// asker's root) and compares syncs with the asker's edge e_{p+1-k}.  Any
  /// match certifies a shared interaction history (Figure 2); if the walk
  /// ends -- possibly immediately -- without a match, the path is
  /// inconsistent.  The first step goes through the responder's index.
  static bool consistent_with_path(const history_tree& responder,
                                   const name_t& asker_root,
                                   const history_link& last) {
    const std::vector<entry>& entries = responder.entries_;
    std::size_t first = 0;  // children of the current node: [first, end)
    std::size_t end = entries.size();
    for (const history_link* link = &last; link != nullptr; link = link->up) {
      const name_t& wanted =
          link->up != nullptr ? link->up->step->name : asker_root;
      std::size_t child = first;
      if (link == &last) {
        child = responder.record_of(wanted);
      } else {
        while (child < end && !(entries[child].name == wanted))
          child += entries[child].size;
      }
      if (child >= end) return false;  // reversed suffix ends: no match found
      if (entries[child].sync == link->step->sync) return true;
      first = child + 1;
      end = child + entries[child].size;
    }
    return false;
  }

  /// Scans the siblings at `depth` from `i` on, and their subtrees; returns
  /// the index after them.
  std::size_t siblings(std::size_t i, std::uint32_t depth,
                       const history_link* up) {
    const std::vector<entry>& entries = asker.entries_;
    while (i < entries.size()) {
      const entry& e = entries[i];
      // Dead records (depth 0) lie among the root's children.
      if (std::max(e.depth, 1u) != depth) break;
      // Only fresh histories count (line 2).
      if (e.depth == 0 || asker.timer_of(e) == 0) {
        i += e.size;
        continue;
      }
      const history_link link{&e, up};
      if (e.name == partner_name &&
          !consistent_with_path(partner, asker.root_name_, link)) {
        found = true;
        return entries.size();
      }
      ++i;
      if (i < entries.size() && entries[i].depth > depth)
        i = siblings(i, depth + 1, &link);
    }
    return i;
  }
};

history_tree::history_tree(const name_t& own_name) { reset(own_name); }

std::uint32_t history_tree::timer_of(const entry& e) const {
  return e.expiry > clock_ ? static_cast<std::uint32_t>(e.expiry - clock_)
                           : 0;
}

std::uint32_t history_tree::expired_for_of(const entry& e) const {
  // Wraps like the countdown's 32-bit counter did.
  return e.expiry > clock_
             ? e.expired_base
             : static_cast<std::uint32_t>(e.expired_base + (clock_ - e.expiry));
}

std::uint64_t history_tree::prune_time(const entry& e) const {
  if (retention_ < 0) return UINT64_MAX;
  // Pruned once the timer is 0 and expired_for exceeds the retention.
  const auto retention = static_cast<std::uint64_t>(retention_);
  return e.expiry +
         (e.expired_base > retention ? 0 : retention - e.expired_base + 1);
}

template <class Visit>
void history_tree::for_each_live(Visit visit) const {
  for (std::size_t i = 0; i < entries_.size();) {
    const entry& e = entries_[i];
    if (e.depth == 0) {
      i += e.size;
      continue;
    }
    visit(e);
    ++i;
  }
}

std::vector<history_tree::live_entry> history_tree::entries() const {
  std::vector<live_entry> out;
  for_each_live([&](const entry& e) {
    out.push_back({e.name, e.sync, timer_of(e), expired_for_of(e), e.depth});
  });
  return out;
}

tree_node history_tree::root() const {
  tree_node out;
  out.name = root_name_;
  // path[d] is the node at depth d above the entry being placed; a node's
  // edges only grow while it is on the path, so the pointers stay valid.
  std::vector<tree_node*> path{&out};
  for_each_live([&](const entry& e) {
    path.resize(e.depth);
    tree_edge& edge = path.back()->edges.emplace_back();
    edge.sync = e.sync;
    edge.timer = timer_of(e);
    edge.expired_for = expired_for_of(e);
    edge.child.name = e.name;
    path.push_back(&edge.child);
  });
  return out;
}

void history_tree::reset(const name_t& own_name) {
  root_name_ = own_name;
  clock_ = 0;
  entries_.clear();
  std::fill(index_.begin(), index_.end(), 0);
  records_ = 0;
  dead_ = 0;
  deep_ = 0;
  next_prune_ = UINT64_MAX;
  clean_ = true;
}

history_tree history_tree::adopt(const tree_node& root) {
  history_tree tree;
  tree.root_name_ = root.name;
  flatten(root, 1, tree.entries_);
  tree.compact(tree.entries_.size(), nullptr, false);
  return tree;
}

bool history_tree::detects_collision_against(const name_t& partner_name,
                                             const history_tree& partner) const {
  if (clean_ && deep_ == 0) {
    // Every history is one depth-1 record, and at most one is labelled
    // partner_name.
    const std::size_t at = record_of(partner_name);
    if (at == entries_.size() || timer_of(entries_[at]) == 0) return false;
    const history_link link{&entries_[at], nullptr};
    return !collision_scan::consistent_with_path(partner, root_name_, link);
  }
  collision_scan scan{*this, partner_name, partner};
  scan.siblings(0, 1, nullptr);
  return scan.found;
}

void history_tree::exchange(history_tree& a, history_tree& b,
                            std::uint32_t depth_limit, std::uint32_t sync,
                            std::uint32_t timer,
                            std::int64_t prune_retention) {
  SSR_REQUIRE(&a != &b);
  // Each graft reads the partner's pre-interaction tree: the entries before
  // the partner's own graft, whose replaced record is still live.  The
  // own-name scrub of each graft happens while it is copied.
  const std::size_t a_graft = a.entries_.size();
  const std::size_t b_graft = b.entries_.size();
  a.append_graft(b, b_graft, depth_limit, sync, timer, &a.root_name_);
  b.append_graft(a, a_graft, depth_limit, sync, timer, &b.root_name_);
  a.settle_exchange(a_graft, prune_retention);
  b.settle_exchange(b_graft, prune_retention);
}

void history_tree::append_graft(const history_tree& partner,
                                std::size_t partner_end,
                                std::uint32_t depth_limit, std::uint32_t sync,
                                std::uint32_t timer, const name_t* skip) {
  if (skip != nullptr && partner.root_name_ == *skip) return;
  const std::size_t graft_at = entries_.size();
  entries_.push_back({partner.root_name_, clock_ + timer, sync, 0, 1, 1});
  if (depth_limit == 0) return;
  for (std::size_t i = 0; i < partner_end;) {
    const entry& p = partner.entries_[i];
    if (p.depth == 0 || p.depth > depth_limit ||
        (skip != nullptr && p.name == *skip)) {
      i += p.size;
      continue;
    }
    entries_.push_back({p.name, clock_ + partner.timer_of(p), p.sync,
                        partner.expired_for_of(p), p.depth + 1, 1});
    ++i;
  }
  // Back to front, so every later subtree's size is final: a subtree ends
  // at the first later entry that is not deeper, found by hopping over the
  // children.
  const std::size_t end = entries_.size();
  for (std::size_t i = end; i-- > graft_at;) {
    std::size_t next = i + 1;
    while (next < end && entries_[next].depth > entries_[i].depth)
      next += entries_[next].size;
    entries_[i].size = static_cast<std::uint32_t>(next - i);
  }
}

void history_tree::settle_exchange(std::size_t graft_at,
                                   std::int64_t prune_retention) {
  if (!clean_) {
    ++clock_;
    retention_ = prune_retention;
    compact(graft_at, &root_name_, true);
    return;
  }
  if (graft_at < entries_.size()) {
    // The record the graft replaces dies in place, and its index slot
    // points at the graft.
    const std::size_t slot = slot_of(entries_[graft_at].name);
    if (slot < index_.size() && index_[slot] != 0) {
      entry& replaced = entries_[index_[slot] - 1];
      dead_ += replaced.size;
      deep_ -= replaced.size - 1;
      replaced.depth = 0;
      index_[slot] = static_cast<std::uint32_t>(graft_at + 1);
    } else {
      index_insert(graft_at);
    }
    deep_ += static_cast<std::uint32_t>(entries_.size() - graft_at - 1);
    for (std::size_t i = graft_at; i < entries_.size(); ++i)
      next_prune_ = std::min(next_prune_, prune_time(entries_[i]));
  }
  age_edges(prune_retention);
}

void history_tree::graft_partner(const history_tree& partner,
                                 std::uint32_t depth_limit, std::uint32_t sync,
                                 std::uint32_t timer) {
  SSR_REQUIRE(&partner != this);
  const std::size_t graft_at = entries_.size();
  append_graft(partner, partner.entries_.size(), depth_limit, sync, timer,
               nullptr);
  compact(graft_at, nullptr, false);
}

void history_tree::remove_named_subtrees(const name_t& name) {
  compact(entries_.size(), &name, false);
}

void history_tree::age_edges(std::int64_t prune_retention) {
  ++clock_;
  if (prune_retention != retention_ || clock_ >= next_prune_ ||
      2 * std::size_t{dead_} > entries_.size()) {
    retention_ = prune_retention;
    compact(entries_.size(), nullptr, true);
  }
}

void history_tree::compact(std::size_t graft_at, const name_t* scrub,
                           bool aged) {
  const std::size_t end = entries_.size();
  const bool grafted = graft_at < end;
  const name_t replaced = grafted ? entries_[graft_at].name : name_t{};
  // Only exchanges read the index, so only their agings rebuild it.
  if (aged) std::fill(index_.begin(), index_.end(), 0);
  records_ = 0;
  dead_ = 0;
  deep_ = 0;
  next_prune_ = UINT64_MAX;
  clean_ = aged;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < end;) {
    const entry& e = entries_[i];
    if (e.depth == 0 ||
        (grafted && i < graft_at && e.depth == 1 && e.name == replaced) ||
        (scrub != nullptr && e.name == *scrub) ||
        (aged && prune_time(e) <= clock_)) {
      i += e.size;
      continue;
    }
    if (kept != i) entries_[kept] = e;  // kept < i: an entry already read
    const entry& moved = entries_[kept];
    if (moved.name == root_name_) clean_ = false;
    if (moved.depth > 1) {
      ++deep_;
    } else if (clean_ && !index_insert(kept)) {
      clean_ = false;  // two depth-1 records share a name
    }
    next_prune_ = std::min(next_prune_, prune_time(moved));
    ++kept;
    ++i;
  }
  entries_.resize(kept);
  // Back to front, as in append_graft.
  for (std::size_t i = kept; i-- > 0;) {
    std::size_t next = i + 1;
    while (next < kept && entries_[next].depth > entries_[i].depth)
      next += entries_[next].size;
    entries_[i].size = static_cast<std::uint32_t>(next - i);
  }
}

std::size_t history_tree::record_of(const name_t& name) const {
  if (clean_) {
    const std::size_t slot = slot_of(name);
    return slot < index_.size() && index_[slot] != 0 ? index_[slot] - 1
                                                     : entries_.size();
  }
  // Dead records only arise in clean trees, and every compaction drops them.
  for (std::size_t i = 0; i < entries_.size(); i += entries_[i].size) {
    if (entries_[i].name == name) return i;
  }
  return entries_.size();
}

std::size_t history_tree::slot_of(const name_t& name) const {
  if (index_.empty()) return 0;
  const std::size_t mask = index_.size() - 1;
  // At most half the slots are full, so the probe ends.
  for (std::size_t slot = name_hash(name) & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t held = index_[slot];
    if (held == 0 || entries_[held - 1].name == name) return slot;
  }
}

bool history_tree::index_insert(std::size_t at) {
  if (2 * (std::size_t{records_} + 1) > index_.size()) {
    std::vector<std::uint32_t> old(std::max<std::size_t>(8, 2 * index_.size()));
    old.swap(index_);
    for (const std::uint32_t held : old) {
      if (held != 0) index_[slot_of(entries_[held - 1].name)] = held;
    }
  }
  const std::size_t slot = slot_of(entries_[at].name);
  if (index_[slot] != 0) return false;
  index_[slot] = static_cast<std::uint32_t>(at + 1);
  ++records_;
  return true;
}

std::uint32_t history_tree::depth() const {
  std::uint32_t deepest = 0;
  for_each_live([&](const entry& e) { deepest = std::max(deepest, e.depth); });
  return deepest;
}

bool history_tree::simply_labelled() const {
  // trail[d] is the ancestor at depth d of the entry being checked.
  std::vector<name_t> trail{root_name_};
  bool simple = true;
  for_each_live([&](const entry& e) {
    trail.resize(e.depth);
    if (std::find(trail.begin(), trail.end(), e.name) != trail.end())
      simple = false;
    trail.push_back(e.name);
  });
  return simple;
}

std::string history_tree::to_string() const {
  std::ostringstream os;
  os << root_name_.to_string() << '\n';
  for_each_live([&](const entry& e) {
    os << std::string(2 * std::size_t{e.depth}, ' ') << "--" << e.sync
       << "(t" << timer_of(e) << ")--> " << e.name.to_string() << '\n';
  });
  return os.str();
}

}  // namespace ssr
