#include "protocols/roster.hpp"

#include <algorithm>
#include <functional>
#include <iterator>

namespace ssr {

roster_t::roster_t(std::vector<name_t> names) {
  if (!names.empty())
    names_ = std::make_shared<const std::vector<name_t>>(std::move(names));
}

std::uint32_t roster_t::rank_of(const name_t& name) const {
  const std::vector<name_t>& all = names();
  const auto it = std::lower_bound(all.begin(), all.end(), name);
  if (it == all.end() || !(*it == name)) return 0;
  return static_cast<std::uint32_t>(it - all.begin()) + 1;
}

void roster_t::unite(roster_t& a, roster_t& b, std::size_t united) {
  if (a.shares(b)) return;
  // The union holds both rosters, so it equals one exactly when it has
  // that roster's size.
  const bool a_is_union = united == a.size();
  const bool b_is_union = united == b.size();
  if (a_is_union && b_is_union) {
    if (std::less<>{}(b.names_.get(), a.names_.get())) {
      a = b;
    } else {
      b = a;
    }
  } else if (a_is_union) {
    b = a;
  } else if (b_is_union) {
    a = b;
  } else {
    a = roster_t(roster_union(a.names(), b.names()));
    b = a;
  }
}

std::size_t union_size(const roster_t& a, const roster_t& b) {
  return a.shares(b) ? a.size() : union_size(a.names(), b.names());
}

std::size_t union_size(const std::vector<name_t>& a,
                       const std::vector<name_t>& b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    const auto order = *ia <=> *ib;
    if (order < 0) {
      ++ia;
    } else if (order > 0) {
      ++ib;
    } else {
      ++ia;
      ++ib;
    }
    ++count;
  }
  count += static_cast<std::size_t>(a.end() - ia);
  count += static_cast<std::size_t>(b.end() - ib);
  return count;
}

std::vector<name_t> roster_union(const std::vector<name_t>& a,
                                 const std::vector<name_t>& b) {
  std::vector<name_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace ssr
