// Simulation under a non-complete interaction graph: identical to
// simulation<P> except the scheduler draws a uniformly random *edge*
// (uniformly oriented) instead of a uniform ordered pair.  On the complete
// graph the two are the same distribution.  It is a simulation_engine
// (pp/engine.hpp), so the run core (pp/convergence.hpp) measures graph
// runs the way it measures the uniform-scheduler engines.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pp/assert.hpp"
#include "pp/graph.hpp"
#include "pp/protocol.hpp"
#include "pp/rng.hpp"

namespace ssr {

template <population_protocol P>
class graph_simulation {
 public:
  using protocol_type = P;
  using agent_state = typename P::agent_state;

  graph_simulation(P protocol, interaction_graph graph,
                   std::vector<agent_state> initial, std::uint64_t seed)
      : protocol_(std::move(protocol)),
        graph_(std::move(graph)),
        agents_(std::move(initial)),
        rng_(seed) {
    SSR_REQUIRE(agents_.size() == protocol_.population_size());
    SSR_REQUIRE(graph_.size() == protocol_.population_size());
  }

  agent_pair step() {
    const agent_pair pair = graph_.sample(rng_);
    last_changed_ = protocol_.interact(agents_[pair.initiator],
                                       agents_[pair.responder], rng_);
    ++interactions_;
    return pair;
  }

  template <class Pred>
  bool run_until(Pred stop, std::uint64_t max_interactions) {
    return run(max_interactions, [](const agent_pair&) {},
               [&](const agent_pair&, bool) { return stop(*this); });
  }

  /// The engines' hooked run (pp/engine.hpp): pre(pair) immediately before
  /// and post(pair, changed) immediately after every interaction; post
  /// returns true to stop.  Returns true iff a post stopped the run.
  template <class Pre, class Post>
  bool run(std::uint64_t max_interactions, Pre&& pre, Post&& post) {
    while (interactions_ < max_interactions) {
      const agent_pair pair = graph_.sample(rng_);
      pre(pair);
      last_changed_ = protocol_.interact(agents_[pair.initiator],
                                         agents_[pair.responder], rng_);
      ++interactions_;
      if (post(pair, last_changed_)) return true;
    }
    return false;
  }

  std::uint32_t population_size() const {
    return protocol_.population_size();
  }
  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) / population_size();
  }
  bool last_step_changed() const { return last_changed_; }
  bool quiescent() const { return false; }  // no structural knowledge

  std::span<const agent_state> agents() const { return agents_; }
  std::span<agent_state> mutable_agents() { return agents_; }
  const P& protocol() const { return protocol_; }
  const interaction_graph& graph() const { return graph_; }

  /// Silence over the graph: only adjacent pairs can interact, so a
  /// configuration may be silent on a sparse graph while the same multiset
  /// of states would not be silent on the complete graph -- the root cause
  /// of the livelocks tests/topology_test.cpp demonstrates.
  bool is_silent_configuration() const {
    P probe = protocol_;
    rng_t probe_rng(0xdeadbeef);
    for (const auto& [u, v] : graph_.edges()) {
      for (const auto& [i, j] : {std::pair{u, v}, std::pair{v, u}}) {
        agent_state a = agents_[i];
        agent_state b = agents_[j];
        if (probe.interact(a, b, probe_rng)) return false;
      }
    }
    return true;
  }

 private:
  P protocol_;
  interaction_graph graph_;
  std::vector<agent_state> agents_;
  rng_t rng_;
  std::uint64_t interactions_ = 0;
  bool last_changed_ = false;
};

}  // namespace ssr
