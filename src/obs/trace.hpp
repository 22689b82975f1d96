// Structured tracing for protocol executions.
//
// A trace is a bounded, optionally sampled stream of structured events
// (phase transitions, reset waves, rank collisions, convergence) produced
// by observers attached through the engines' existing run(budget, pre,
// post) hook API.  Because both engines surface exactly the executed
// interactions to those hooks (certain-null skips cannot change state, so
// they carry no events), the direct and batched engines emit an identical
// *kind* of observable stream -- same event vocabulary, same invariants --
// and from identical executed trajectories, identical events.
//
// The protocol-side contract is three members (the "phase instrumentation
// hooks" of optimal_silent.hpp and sublinear.hpp):
//
//   std::uint32_t obs_phase_count() const;
//   std::uint32_t obs_phase(const agent_state&) const;  // < obs_phase_count
//   static std::string_view obs_phase_name(std::uint32_t);
//   static bool obs_phase_is_reset(std::uint32_t);
//
// phase_observer<P> maintains incremental per-phase occupancy (O(1) per
// surfaced interaction, mirroring rank_tracker) and emits:
//
//   phase_transition  -- an agent moved between phases (sampled)
//   reset_wave_start  -- resetting occupancy left zero
//   reset_wave_end    -- resetting occupancy returned to zero
//   rank_collision    -- two agents holding the same nonzero rank interacted
//                        and state changed (ranking protocols' error event)
//   convergence       -- the tracked ranking became correct
//   correctness_lost  -- a previously correct ranking was revoked
//
// run_start/run_end frame the stream for consumers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "pp/scheduler.hpp"

namespace ssr::obs {

enum class trace_event_kind : std::uint8_t {
  run_start,
  run_end,
  phase_transition,
  reset_wave_start,
  reset_wave_end,
  rank_collision,
  convergence,
  correctness_lost,
};

std::string_view to_string(trace_event_kind kind);
/// Inverse of to_string; nullopt for unknown names (e.g. "trace_header",
/// which frames JSONL files but is not an event).
std::optional<trace_event_kind> trace_event_kind_from_string(
    std::string_view name);

inline constexpr std::uint32_t trace_no_agent = 0xffffffffu;

struct trace_event {
  trace_event_kind kind = trace_event_kind::run_start;
  double time = 0.0;            // parallel time at emission
  std::uint64_t interaction = 0;
  std::uint32_t agent = trace_no_agent;
  std::int32_t from_phase = -1;
  std::int32_t to_phase = -1;

  friend bool operator==(const trace_event&, const trace_event&) = default;
};

struct trace_options {
  /// Keep every k-th phase_transition event (1 = all).  Structural events
  /// (waves, collisions, convergence, run framing) are never sampled out.
  std::uint64_t sample_every = 1;
  /// Hard cap on buffered events; excess events are counted as dropped.
  std::size_t max_events = 1u << 20;
};

/// Collects events in memory; the buffer is bounded and sampling is
/// applied on emit, so a sink can sit on the hot path of multi-billion
/// interaction runs.
class trace_sink {
 public:
  explicit trace_sink(trace_options options = {});

  void emit(const trace_event& event);

  const std::vector<trace_event>& events() const { return events_; }
  /// Events offered to the sink, before sampling and capping.
  std::uint64_t offered() const { return offered_; }
  /// Events discarded by sampling.
  std::uint64_t sampled_out() const { return sampled_out_; }
  /// Events discarded because the buffer was full.
  std::uint64_t dropped() const { return dropped_; }

  /// Writes one JSON object per line (JSONL).  `phase_names` translates
  /// phase indices; pass an empty span to emit raw indices only.
  void write_jsonl(std::ostream& os,
                   std::span<const std::string_view> phase_names) const;

  /// The trace_header document write_jsonl emits as its first line
  /// (schema tag, producer revision, offered/sampled_out/dropped
  /// accounting, phase-name table).  Exposed so transports that carry a
  /// trace in-band (the serve wire) can ship header + events as
  /// structured JSON and clients can reconstruct the exact JSONL file
  /// trace_stats parses.
  json_value header_json(
      std::span<const std::string_view> phase_names) const;

  json_value event_to_json(
      const trace_event& event,
      std::span<const std::string_view> phase_names) const;

 private:
  trace_options options_;
  std::vector<trace_event> events_;
  std::uint64_t offered_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Concept for the protocol-side instrumentation hooks.
template <class P>
concept phase_instrumented_protocol =
    requires(const P p, const typename P::agent_state& s, std::uint32_t i) {
      { p.obs_phase_count() } -> std::convertible_to<std::uint32_t>;
      { p.obs_phase(s) } -> std::convertible_to<std::uint32_t>;
      { P::obs_phase_name(i) } -> std::convertible_to<std::string_view>;
      { P::obs_phase_is_reset(i) } -> std::convertible_to<bool>;
    };

/// P's phase-name table, the one its traces are written with; empty for
/// protocols without phase hooks.
template <class P>
std::vector<std::string_view> phase_names(const P& protocol) {
  std::vector<std::string_view> names;
  if constexpr (phase_instrumented_protocol<P>) {
    for (std::uint32_t ph = 0; ph < protocol.obs_phase_count(); ++ph)
      names.push_back(P::obs_phase_name(ph));
  }
  return names;
}

/// Incremental phase-occupancy tracker + event source.  Wire it into an
/// engine run as
///
///   observer.begin(engine.parallel_time(), engine.interactions());
///   engine.run(budget,
///              [&](const agent_pair& p) { observer.before(p); ... },
///              [&](const agent_pair& p, bool changed) {
///                observer.after(p, changed, engine.parallel_time(),
///                               engine.interactions());
///                ...
///              });
///   observer.end(engine.parallel_time(), engine.interactions());
///
/// The observer reads agent states through the span captured at
/// construction; engines never reallocate their agent storage during run(),
/// so the span stays valid for the engine's lifetime.
template <phase_instrumented_protocol P>
class phase_observer {
 public:
  using agent_state = typename P::agent_state;

  phase_observer(const P& protocol, std::span<const agent_state> agents,
                 trace_sink* sink)
      : protocol_(protocol),
        agents_(agents),
        sink_(sink),
        occupancy_(protocol.obs_phase_count(), 0) {
    for (std::uint32_t a = 0; a < agents_.size(); ++a) {
      ++occupancy_[protocol_.obs_phase(agents_[a])];
    }
    for (std::uint32_t ph = 0; ph < occupancy_.size(); ++ph) {
      if (P::obs_phase_is_reset(ph)) resetting_ += occupancy_[ph];
    }
  }

  void begin(double time, std::uint64_t interaction) {
    emit({trace_event_kind::run_start, time, interaction});
  }
  void end(double time, std::uint64_t interaction) {
    emit({trace_event_kind::run_end, time, interaction});
  }

  /// Call from the engine's pre hook.
  void before(const agent_pair& pair) {
    pre_a_ = protocol_.obs_phase(agents_[pair.initiator]);
    pre_b_ = protocol_.obs_phase(agents_[pair.responder]);
  }

  /// Call from the engine's post hook.
  void after(const agent_pair& pair, bool changed, double time,
             std::uint64_t interaction) {
    if (!changed) return;
    const std::uint64_t resetting_before = resetting_;
    apply(pair.initiator, pre_a_, time, interaction);
    apply(pair.responder, pre_b_, time, interaction);
    if (resetting_before == 0 && resetting_ > 0) {
      emit({trace_event_kind::reset_wave_start, time, interaction});
    } else if (resetting_before > 0 && resetting_ == 0) {
      emit({trace_event_kind::reset_wave_end, time, interaction});
    }
  }

  /// Report a rank-collision observation (the convergence harnesses see
  /// pre-interaction ranks; the observer does not re-derive them).
  void rank_collision(const agent_pair& pair, double time,
                      std::uint64_t interaction) {
    emit({trace_event_kind::rank_collision, time, interaction,
          pair.initiator});
  }

  void convergence(double time, std::uint64_t interaction) {
    emit({trace_event_kind::convergence, time, interaction});
  }
  void correctness_lost(double time, std::uint64_t interaction) {
    emit({trace_event_kind::correctness_lost, time, interaction});
  }

  /// Current per-phase agent counts; always sums to the population size.
  std::span<const std::uint64_t> occupancy() const { return occupancy_; }
  /// Agents currently in a reset phase.
  std::uint64_t resetting() const { return resetting_; }

  std::vector<std::string_view> phase_names() const {
    return obs::phase_names(protocol_);
  }

 private:
  void apply(std::uint32_t agent, std::uint32_t from, double time,
             std::uint64_t interaction) {
    const std::uint32_t to = protocol_.obs_phase(agents_[agent]);
    if (to == from) return;
    --occupancy_[from];
    ++occupancy_[to];
    if (P::obs_phase_is_reset(from)) --resetting_;
    if (P::obs_phase_is_reset(to)) ++resetting_;
    emit({trace_event_kind::phase_transition, time, interaction, agent,
          static_cast<std::int32_t>(from), static_cast<std::int32_t>(to)});
  }

  void emit(const trace_event& event) {
    if (sink_ != nullptr) sink_->emit(event);
  }

  const P& protocol_;
  std::span<const agent_state> agents_;
  trace_sink* sink_;
  std::vector<std::uint64_t> occupancy_;
  std::uint64_t resetting_ = 0;
  std::uint32_t pre_a_ = 0;
  std::uint32_t pre_b_ = 0;
};

}  // namespace ssr::obs
