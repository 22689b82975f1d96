// The uniformly random scheduler of the population protocol model.
//
// At each discrete step an ordered pair of distinct agents (initiator,
// responder) is drawn uniformly from the n(n-1) possibilities (complete
// communication graph).
#pragma once

#include <cstdint>
#include <utility>

#include "pp/random.hpp"
#include "pp/rng.hpp"

namespace ssr {

/// An ordered interaction pair: indices into the configuration vector.
struct agent_pair {
  std::uint32_t initiator;
  std::uint32_t responder;

  friend bool operator==(const agent_pair&, const agent_pair&) = default;
};

/// Draws a uniform ordered pair of distinct agents from a population of
/// size n (n >= 2).
agent_pair sample_pair(rng_t& rng, std::uint32_t n);

/// The scheduler above as a type: direct_engine's default.  It holds no
/// state, because the engine draws sample_pair over its own population.
/// interaction_graph (pp/graph.hpp) is the other scheduler, one uniform
/// edge per draw.
struct uniform_pairs {};

}  // namespace ssr
