#include "pp/graph.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>

#include "pp/assert.hpp"

namespace ssr {
namespace {

std::vector<std::uint32_t> degrees(
    std::uint32_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  std::vector<std::uint32_t> deg(n, 0);
  for (const auto& [u, v] : edges) {
    ++deg[u];
    ++deg[v];
  }
  return deg;
}

}  // namespace

interaction_graph::interaction_graph(
    std::uint32_t n,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges)
    : n_(n), edges_(std::move(edges)) {
  SSR_REQUIRE(n >= 2);
  SSR_REQUIRE(!edges_.empty());
  for (auto& [u, v] : edges_) {
    SSR_REQUIRE(u < n && v < n && u != v);
    if (u > v) std::swap(u, v);
  }
  // No duplicate edges, checked on a sorted copy (8 bytes per edge).
  auto sorted = edges_;
  std::sort(sorted.begin(), sorted.end());
  SSR_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

interaction_graph interaction_graph::complete(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(std::size_t{n} * (n - 1) / 2);
  for (std::uint32_t u = 0; u < n; ++u)
    for (std::uint32_t v = u + 1; v < n; ++v) edges.push_back({u, v});
  return {n, std::move(edges)};
}

interaction_graph interaction_graph::ring(std::uint32_t n) {
  SSR_REQUIRE(n >= 3);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n);
  for (std::uint32_t u = 0; u < n; ++u)
    edges.push_back({u, (u + 1) % n});
  return {n, std::move(edges)};
}

interaction_graph interaction_graph::path(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n - 1);
  for (std::uint32_t u = 0; u + 1 < n; ++u) edges.push_back({u, u + 1});
  return {n, std::move(edges)};
}

interaction_graph interaction_graph::star(std::uint32_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n - 1);
  for (std::uint32_t leaf = 1; leaf < n; ++leaf) edges.push_back({0, leaf});
  return {n, std::move(edges)};
}

interaction_graph interaction_graph::erdos_renyi(std::uint32_t n, double p,
                                                 std::uint64_t seed) {
  SSR_REQUIRE(p >= 0.0 && p <= 1.0);
  rng_t rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      if (bernoulli(rng, p)) edges.push_back({u, v});
    }
  }
  // Union-find connectivity repair: stitch components along a random
  // permutation so the scheduler's fairness assumption (connectedness)
  // holds.
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  const std::function<std::uint32_t(std::uint32_t)> find =
      [&](std::uint32_t x) {
        while (parent[x] != x) x = parent[x] = parent[parent[x]];
        return x;
      };
  for (const auto& [u, v] : edges) parent[find(u)] = find(v);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::uint32_t i = n - 1; i > 0; --i)
    std::swap(order[i], order[uniform_below(rng, i + 1)]);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    const std::uint32_t u = order[i], v = order[i + 1];
    if (find(u) != find(v)) {
      edges.push_back({std::min(u, v), std::max(u, v)});
      parent[find(u)] = find(v);
    }
  }
  return {n, std::move(edges)};
}

interaction_graph interaction_graph::random_regular(std::uint32_t n,
                                                    std::uint32_t d,
                                                    std::uint64_t seed) {
  SSR_REQUIRE(d >= 2 && d < n);
  SSR_REQUIRE((std::uint64_t{n} * d) % 2 == 0);
  rng_t rng(seed);
  for (int attempt = 0; attempt < 100; ++attempt) {
    // Start from a connected circulant graph of degree d, then randomize
    // with degree-preserving 2-opt edge swaps.  (The classical pairing
    // model has an e^{-Theta(d^2)} success probability per draw, hopeless
    // for dense d; the swap chain mixes to the same distribution.)
    std::set<std::pair<std::uint32_t, std::uint32_t>> edge_set;
    auto add = [&](std::uint32_t u, std::uint32_t v) {
      if (u > v) std::swap(u, v);
      edge_set.insert({u, v});
    };
    for (std::uint32_t k = 1; k <= d / 2; ++k)
      for (std::uint32_t v = 0; v < n; ++v) add(v, (v + k) % n);
    if (d % 2 == 1)  // n is even here (n*d even)
      for (std::uint32_t v = 0; v < n / 2; ++v) add(v, v + n / 2);

    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges(
        edge_set.begin(), edge_set.end());
    const std::size_t swaps = 20 * edges.size();
    for (std::size_t s = 0; s < swaps; ++s) {
      const std::size_t i = uniform_below(rng, edges.size());
      const std::size_t j = uniform_below(rng, edges.size());
      if (i == j) continue;
      auto [a, b] = edges[i];
      auto [c, e] = edges[j];
      if (coin_flip(rng)) std::swap(c, e);
      // Propose replacing {a,b},{c,e} with {a,c},{b,e}.
      if (a == c || a == e || b == c || b == e) continue;
      auto key = [](std::uint32_t u, std::uint32_t v) {
        if (u > v) std::swap(u, v);
        return std::pair{u, v};
      };
      const auto e1 = key(a, c);
      const auto e2 = key(b, e);
      if (edge_set.count(e1) || edge_set.count(e2)) continue;
      edge_set.erase(key(a, b));
      edge_set.erase(key(c, e));
      edge_set.insert(e1);
      edge_set.insert(e2);
      edges[i] = e1;
      edges[j] = e2;
    }
    interaction_graph g(n, std::move(edges));
    if (g.is_connected()) return g;
  }
  throw std::logic_error("random_regular: no simple connected graph found");
}

bool interaction_graph::is_connected() const {
  std::vector<std::vector<std::uint32_t>> adj(n_);
  for (const auto& [u, v] : edges_) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<bool> visited(n_, false);
  std::vector<std::uint32_t> stack{0};
  visited[0] = true;
  std::uint32_t count = 1;
  while (!stack.empty()) {
    const std::uint32_t u = stack.back();
    stack.pop_back();
    for (const std::uint32_t v : adj[u]) {
      if (!visited[v]) {
        visited[v] = true;
        ++count;
        stack.push_back(v);
      }
    }
  }
  return count == n_;
}

std::uint32_t interaction_graph::min_degree() const {
  const auto deg = degrees(n_, edges_);
  return *std::min_element(deg.begin(), deg.end());
}

std::uint32_t interaction_graph::max_degree() const {
  const auto deg = degrees(n_, edges_);
  return *std::max_element(deg.begin(), deg.end());
}

}  // namespace ssr
