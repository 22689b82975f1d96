// The roster of Sublinear-Time-SSR (Protocol 5): the sorted, duplicate-free
// set of names an agent has collected.
//
// A roster is immutable and shared by the agents that hold it.  Once the
// names have spread, most Collecting pairs hold equal rosters, so a merge
// that finds one shared object costs a pointer compare instead of an O(n)
// pass, and only a union larger than both inputs allocates a new object.
// Which object an agent holds never shows in a trajectory: every reader
// sees only the names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "protocols/names.hpp"

namespace ssr {

class roster_t {
 public:
  using const_iterator = std::vector<name_t>::const_iterator;

  /// The empty roster (held in the Resetting role).
  roster_t() = default;
  /// `names` must be sorted and duplicate-free.
  explicit roster_t(std::vector<name_t> names);
  roster_t(std::initializer_list<name_t> names)
      : roster_t(std::vector<name_t>(names)) {}

  const std::vector<name_t>& names() const {
    return names_ ? *names_ : no_names_;
  }
  std::size_t size() const { return names_ ? names_->size() : 0; }
  bool empty() const { return size() == 0; }
  const name_t& operator[](std::size_t i) const { return names()[i]; }
  const_iterator begin() const { return names().begin(); }
  const_iterator end() const { return names().end(); }

  /// The 1-based position of `name` (Protocol 5 line 9's rank), 0 when the
  /// roster does not hold it.
  std::uint32_t rank_of(const name_t& name) const;

  /// True iff both hold one object.
  bool shares(const roster_t& other) const { return names_ == other.names_; }

  /// Protocol 5 line 6: sets both rosters to their union, whose size
  /// `united` is union_size(a, b).  Rosters with equal names end up sharing
  /// the object that sorts first by address, so equal rosters collapse onto
  /// one object as an epidemic spreads, not as slowly as voter-model
  /// coalescence would.
  static void unite(roster_t& a, roster_t& b, std::size_t united);

  friend bool operator==(const roster_t& a, const roster_t& b) {
    return a.shares(b) || a.names() == b.names();
  }

 private:
  static inline const std::vector<name_t> no_names_{};
  std::shared_ptr<const std::vector<name_t>> names_;  // null when empty
};

/// |a ∪ b| (the ghost-name check |a.roster ∪ b.roster| > n), O(1) when
/// both share one object.
std::size_t union_size(const roster_t& a, const roster_t& b);

/// Merged sorted-unique union size without materializing.
std::size_t union_size(const std::vector<name_t>& a,
                       const std::vector<name_t>& b);

/// Materialized sorted-unique union.
std::vector<name_t> roster_union(const std::vector<name_t>& a,
                                 const std::vector<name_t>& b);

}  // namespace ssr
