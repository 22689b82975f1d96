#include "pp/batch_scheduler.hpp"

#include <algorithm>

#include "pp/assert.hpp"

namespace ssr {

batch_scheduler::batch_scheduler(std::uint32_t n, std::uint32_t capacity)
    : n_(n), capacity_(capacity), cols_(n >= 2 ? n - 1 : 1) {
  SSR_REQUIRE(n >= 2);
  SSR_REQUIRE(capacity >= 1);
  buffer_.reserve(capacity);
  carry_.reserve(chunk_words);
  stamp_.assign(n, 0);
}

void batch_scheduler::refill_carry(rng_t& rng) {
  const std::uint64_t bound = std::uint64_t{n_} * (n_ - 1);
  std::uint64_t raw[chunk_words];
  std::uint64_t mapped[chunk_words];
  std::uint64_t initiator[chunk_words];
  std::uint64_t responder[chunk_words];
  std::uint8_t accept[chunk_words];
  carry_.clear();
  carry_pos_ = 0;
  // A chunk can reject every word (Lemire rejection is per word); keep
  // drawing until at least one pair lands.  Rejection probability is
  // (2^64 mod bound) / 2^64 < bound / 2^64, so in practice one pass.
  while (carry_.empty()) {
    for (std::uint64_t& word : raw) word = rng();
    simd::lemire_map(raw, chunk_words, bound, mapped, accept);
    // Rejected words decode garbage-but-bounded values (mapped < bound
    // always holds); they are filtered below, so the kernels run without
    // a branch.
    simd::decode_ordered_distinct(mapped, chunk_words, cols_, initiator,
                                  responder);
    for (std::size_t i = 0; i < chunk_words; ++i) {
      if (accept[i]) {
        carry_.push_back({static_cast<std::uint32_t>(initiator[i]),
                          static_cast<std::uint32_t>(responder[i])});
      }
    }
  }
}

std::span<const agent_pair> batch_scheduler::next_batch(rng_t& rng,
                                                        std::uint64_t limit) {
  obs::timeline_scope section(profiler_, "batch.draw");
  buffer_.clear();
  ++epoch_;
  ++batches_;
  const std::uint64_t want = std::min<std::uint64_t>(capacity_, limit);
  while (buffer_.size() < want) {
    if (carry_pos_ == carry_.size()) refill_carry(rng);
    const agent_pair pair = carry_[carry_pos_++];
    buffer_.push_back(pair);
    if (stamp_[pair.initiator] == epoch_ || stamp_[pair.responder] == epoch_) {
      ++truncations_;
      break;
    }
    stamp_[pair.initiator] = epoch_;
    stamp_[pair.responder] = epoch_;
  }
  pairs_ += buffer_.size();
  return buffer_;
}

}  // namespace ssr
