// Stepping helpers for tests, over an engine's hooked run()
// (pp/engine.hpp): run a fixed number of interactions, or run until a
// predicate on the engine holds.
#pragma once

#include <cstdint>

#include "pp/scheduler.hpp"

namespace ssr {

/// Executes `k` more interactions of `engine`.
template <class E>
void run_for(E& engine, std::uint64_t k) {
  engine.run(engine.interactions() + k, [](const agent_pair&) {},
             [](const agent_pair&, bool) { return false; });
}

/// Runs `engine` until `stop(engine)` holds after an interaction, or until
/// `max_interactions` have elapsed.  Returns true iff `stop` fired.
template <class E, class Stop>
bool run_until(E& engine, Stop stop, std::uint64_t max_interactions) {
  return engine.run(max_interactions, [](const agent_pair&) {},
                    [&](const agent_pair&, bool) { return stop(engine); });
}

}  // namespace ssr
