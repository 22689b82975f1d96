// Umbrella header: the full public API of the library.
//
//   #include "ssr.hpp"
//
// pulls in the population-protocol engine, the three self-stabilizing
// ranking protocols of the paper (plus the initialized contrast protocol),
// the probabilistic tool processes, the adversarial configuration
// generators, and the analysis utilities.  Individual headers remain
// includable on their own; see README.md for the architecture map.
#pragma once

#include "analysis/regression.hpp"
#include "analysis/statistics.hpp"
#include "analysis/table.hpp"
#include "pp/batch_scheduler.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "pp/graph.hpp"
#include "pp/protocol.hpp"
#include "pp/random.hpp"
#include "pp/rng.hpp"
#include "pp/scheduler.hpp"
#include "pp/sharded_scheduler.hpp"
#include "pp/simd.hpp"
#include "pp/trial.hpp"
#include "processes/analytic.hpp"
#include "processes/bounded_epidemic.hpp"
#include "processes/epidemic.hpp"
#include "processes/roll_call.hpp"
#include "protocols/adversary.hpp"
#include "protocols/history_tree.hpp"
#include "protocols/describe.hpp"
#include "protocols/initialized.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "protocols/names.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/propagate_reset.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/state_space.hpp"
#include "protocols/serialize.hpp"
#include "protocols/sublinear.hpp"
#include "verify/graph_reachability.hpp"
#include "verify/reachability.hpp"
#include "verify/smc.hpp"
