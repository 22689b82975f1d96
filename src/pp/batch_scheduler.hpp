// Collision-aware batched pair sampling for the uniform scheduler.
//
// Drawing scheduler pairs one interaction at a time interleaves the RNG,
// the Lemire rejection loop, and the protocol's transition logic, which
// starves the pipeline.  The batch scheduler instead fills a block of up to
// B ordered pairs in one tight loop.  Batches are *collision-aware*: a
// drawn pair that touches an agent already used earlier in the same batch
// closes the batch (that pair is included as its final element), so every
// batch is an independent prefix -- pairs touching pairwise-distinct agents
// -- followed by at most one dependent pair.  Consumers that apply pairs
// strictly in order (the batched engine's generic path) may therefore
// treat a batch as reorderable up to its last element, and consumers that
// vectorize may process the prefix wholesale and fall back to direct
// stepping for the closing pair.
//
// The emitted sequence is exactly the i.i.d. uniform ordered-pair stream of
// sample_pair (batching changes only *when* draws happen, never their
// distribution), which is what the distribution-equivalence suite
// (tests/engine_equivalence_test.cpp) and the fuzz test
// (tests/batch_scheduler_fuzz_test.cpp) pin down.
//
// The draw path works a chunk at a time (pp/simd.hpp): raw RNG words are
// pre-drawn in chunks, mapped through the Lemire accept rule and the
// divide/modulo pair decode, and decoded pairs a batch does not take carry
// over to the next one.  The accept rule and the decode are bit-identical
// to uniform_below + sample_pair (tests/simd_test.cpp checks both), so
// the pairs are the ones sample_pair would draw from the same word stream;
// only the RNG's read-ahead position differs.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "obs/timeline.hpp"
#include "pp/rng.hpp"
#include "pp/scheduler.hpp"
#include "pp/simd.hpp"

namespace ssr {

class batch_scheduler {
 public:
  static constexpr std::uint32_t default_capacity = 256;

  explicit batch_scheduler(std::uint32_t n,
                           std::uint32_t capacity = default_capacity);

  /// Fills the internal buffer with up to min(capacity, limit) pairs and
  /// returns a view of it (valid until the next call).  At least one pair
  /// is returned whenever limit >= 1; the batch is cut short after the
  /// first pair that revisits an agent.  `limit` lets callers cap a batch
  /// at their remaining interaction budget so no drawn pair is wasted.
  std::span<const agent_pair> next_batch(
      rng_t& rng,
      std::uint64_t limit = std::numeric_limits<std::uint64_t>::max());

  /// Attaches (or with nullptr detaches) a section profiler; each
  /// next_batch call records a "batch.draw" section.  The batched engine
  /// forwards its profiler here so draws nest under "engine.run".
  void attach_profiler(obs::timeline_profiler* profiler) {
    profiler_ = profiler;
  }

  std::uint32_t population_size() const { return n_; }
  std::uint32_t capacity() const { return capacity_; }

  /// Lifetime counters, for the fuzz test and the scaling bench.
  std::uint64_t pairs_issued() const { return pairs_; }
  std::uint64_t batches_issued() const { return batches_; }
  std::uint64_t collision_truncations() const { return truncations_; }

 private:
  /// Raw words pre-drawn (and mapped together) per refill of the decoded-
  /// pair carry; spilled pairs survive across next_batch calls so no
  /// accepted draw is ever discarded.
  static constexpr std::size_t chunk_words = 32;

  void refill_carry(rng_t& rng);

  std::uint32_t n_;
  std::uint32_t capacity_;
  std::vector<agent_pair> buffer_;
  // Epoch stamps instead of a bool-vector reset: clearing n flags per batch
  // would cost more than the batch itself at large n.
  std::vector<std::uint64_t> stamp_;
  simd::u64_divider cols_;  // divide-by-(n-1) reciprocal for the decode
  std::vector<agent_pair> carry_;  // decoded pairs not yet emitted
  std::size_t carry_pos_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t pairs_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t truncations_ = 0;
  obs::timeline_profiler* profiler_ = nullptr;
};

}  // namespace ssr
