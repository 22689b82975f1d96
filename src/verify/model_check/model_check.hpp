// Exact model checking over the multiset configuration space.
//
// Population-protocol agents are anonymous, so a configuration is fully
// described by its state-count vector: C(n+k-1, n) multisets instead of k^n
// tuples -- the exponential reduction that makes exhaustive verification
// tractable at small n.  config_space.hpp enumerates that lattice for a
// concrete protocol and resolves every ordered state pair through the
// transition function into a `config_graph`: an untyped weighted digraph
// whose edge weights are ordered-agent-pair counts under the uniform-pair
// scheduler (probability = weight / n(n-1)).
//
// run_model_check() answers the paper's claims exactly on that graph:
//
//   closure      -- enforced during construction (an escaping transition
//                   throws; pp/transition_table.hpp)
//   silence      -- every terminal SCC is a single configuration with no
//                   enabled non-null transition
//   stabilization-- every terminal SCC satisfies the correctness predicate
//                   (both verdicts: classify_terminal_classes in
//                   verify/scc.hpp, shared with the boolean verifiers)
//   expected time-- exact expected interactions to absorption into the
//                   *stably correct* set (configurations that cannot reach
//                   an incorrect configuration), by a linear solve over the
//                   transient configurations: SCC condensation makes the
//                   system block-triangular, so each SCC is solved densely
//                   in reverse topological order.  Reported per
//                   configuration, as the worst case over all initial
//                   configurations, and weighted by the uniform-per-agent
//                   initial distribution (the multinomial over multisets)
//                   for cross-checking against empirical benches.
//
// Violations carry shortest counterexamples (paths/cycles of concrete
// interactions) that write_counterexample_jsonl() serializes as a
// trace_stats-compatible ssr.trace JSONL artifact: states become the phase
// table, each interaction a phase_transition, and a correct->incorrect
// crossing a correctness_lost event.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace ssr::verify {

/// One non-null resolved transition out of a configuration: the ordered
/// state pair (initiator_state, responder_state) occurs `weight` times
/// among the n(n-1) ordered agent pairs and rewrites the pair to
/// (initiator_after, responder_after), taking the configuration to
/// `target` (which may equal the source: a state swap is a non-null
/// self-loop in multiset space).
struct config_edge {
  std::size_t target = 0;
  std::uint64_t weight = 0;
  std::uint32_t initiator_state = 0;
  std::uint32_t responder_state = 0;
  std::uint32_t initiator_after = 0;
  std::uint32_t responder_after = 0;
};

/// The configuration digraph: one vertex per state multiset, weighted
/// non-null edges, null-pair mass, and the correctness flag per vertex.
/// Built by build_config_graph (config_space.hpp); consumed untyped by
/// run_model_check, the lint layer, the CLI, and the bench.
struct config_graph {
  std::uint32_t n = 0;             // population size
  std::size_t state_count = 0;     // k, the state inventory size
  std::vector<std::string> state_labels;            // k labels
  std::vector<std::vector<std::uint32_t>> configs;  // counts, k per config
  std::vector<std::vector<config_edge>> edges;      // non-null transitions
  std::vector<std::uint64_t> null_weight;           // null ordered-pair mass
  std::vector<bool> correct;

  /// Total ordered-pair weight per configuration, n(n-1).
  std::uint64_t pair_weight() const {
    return static_cast<std::uint64_t>(n) * (n - 1);
  }

  /// Edge targets per configuration, self-loops included: the adjacency
  /// classify_terminal_classes (verify/scc.hpp) takes.
  std::vector<std::vector<std::size_t>> adjacency() const;

  /// "{rank=0 x2, rank=1}" -- human-readable multiset rendering.
  std::string config_name(std::size_t config) const;

  /// P(config) under independent uniform-per-agent initial states: the
  /// multinomial n! / prod(c_i!) * k^-n.  Sums to 1 over all configs.
  double uniform_initial_probability(std::size_t config) const;
};

/// One interaction along a counterexample.
struct counterexample_step {
  std::size_t from_config = 0;
  std::size_t to_config = 0;
  std::uint32_t initiator_state = 0;
  std::uint32_t responder_state = 0;
  std::uint32_t initiator_after = 0;
  std::uint32_t responder_after = 0;
};

struct counterexample {
  enum class kind_t : std::uint8_t {
    /// A terminal SCC keeps interacting forever: `steps` is a shortest
    /// non-null cycle inside the component, starting and ending at
    /// `witness`.
    hot_terminal,
    /// An incorrect configuration is stably reachable: `steps` is a
    /// shortest path from a *correct* configuration into the incorrect
    /// terminal witness (empty when no correct configuration can reach
    /// it -- the witness alone is the counterexample, since
    /// self-stabilization quantifies over every initial configuration).
    incorrect_terminal,
  };
  kind_t kind = kind_t::hot_terminal;
  std::size_t witness = 0;
  std::vector<counterexample_step> steps;
};

struct model_check_options {
  /// SCCs up to this size are solved by dense Gaussian elimination; larger
  /// ones fall back to Gauss-Seidel sweeps (residual recorded in the
  /// result).  3000^2 doubles = 72 MB scratch, the practical ceiling.
  std::size_t dense_scc_cap = 3000;
  /// Gauss-Seidel convergence threshold (max absolute residual) and sweep
  /// budget for the fallback path.
  double iterative_tolerance = 1e-10;
  std::size_t max_sweeps = 200000;
};

struct model_check_result {
  std::size_t configurations = 0;
  std::size_t transitions = 0;  // non-null config edges, self-loops included
  std::size_t scc_count = 0;
  std::size_t terminal_classes = 0;
  std::size_t largest_scc = 0;

  /// Every terminal SCC is a single configuration with no enabled
  /// transition.
  bool silent = false;
  /// Every terminal SCC satisfies the correctness predicate.
  bool self_stabilizing = false;

  std::optional<counterexample> silence_counterexample;
  std::optional<counterexample> stabilization_counterexample;

  /// Witness configurations of *spurious* terminal classes: terminal SCCs
  /// with no incoming edge from outside the class.  Such stable outcomes
  /// exist only as initial conditions (deserialization artifacts) -- the
  /// configuration-level analogue of the L011 dead-state audit.
  std::vector<std::size_t> spurious_terminal_witnesses;

  /// Exact expected interactions to absorption into the stably correct
  /// set, from each configuration.  Computed only when self_stabilizing
  /// (otherwise some configuration never absorbs and the expectation
  /// diverges).
  bool expected_time_computed = false;
  std::vector<double> expected_interactions;
  double worst_expected_interactions = 0.0;
  std::size_t worst_config = 0;
  /// Expectation under the uniform-per-agent initial distribution.
  double uniform_expected_interactions = 0.0;
  /// Max absolute residual of the linear solve (0 for pure dense solves).
  double solve_residual = 0.0;
};

model_check_result run_model_check(const config_graph& graph,
                                   const model_check_options& options = {});

/// Serializes a counterexample as ssr.trace JSONL (schema_version 2): the
/// state inventory becomes the phase-name table, every step one or two
/// phase_transition events (initiator = agent 0, responder = agent 1 --
/// agents are anonymous, the ids only distinguish the two slots), and
/// correctness crossings convergence / correctness_lost events.  The
/// output parses with trace_stats unchanged.
void write_counterexample_jsonl(std::ostream& os, const config_graph& graph,
                                const counterexample& cx);

}  // namespace ssr::verify
