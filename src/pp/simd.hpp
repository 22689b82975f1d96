// Pair-sampling kernels for the block scheduler (pp/batch_scheduler.hpp).
//
// The block scheduler maps raw 64-bit RNG words to scheduler pairs a chunk
// at a time: a Lemire multiply-shift rejection (uniform index below
// n(n-1)) followed by a divide/modulo decode into (initiator, responder).
// Both steps are independent across draws, so this header exposes them as
// fixed-function kernels over small arrays:
//
//   lemire_map              raw words -> mapped values + accept flags,
//                           bit-identical to uniform_below's accept rule
//   decode_ordered_distinct mapped values -> ordered distinct pairs,
//                           bit-identical to sample_pair's decode
//
// Division goes through u64_divider, a libdivide-style multiply-shift
// reciprocal built once per population size.  tests/simd_test.cpp checks
// every kernel against first principles: the divider against native
// division, the map against uniform_below, and the decode against every
// ordered pair.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pp/assert.hpp"

namespace ssr::simd {

/// Precomputed multiply-shift reciprocal for truncating 64-bit division by
/// a runtime constant (libdivide's u64 "branchfull" scheme): divide() is
/// exact for every numerator, which tests/simd_test.cpp checks against
/// native division.  One divider per population size amortizes the setup.
class u64_divider {
 public:
  explicit u64_divider(std::uint64_t d) : d_(d) {
    SSR_REQUIRE(d >= 1);
    const std::uint32_t log2 = floor_log2(d);
    if ((d & (d - 1)) == 0) {
      magic_ = 0;  // power of two: pure shift
      shift_ = log2;
      return;
    }
    const unsigned __int128 numerator = static_cast<unsigned __int128>(1)
                                        << (64 + log2);
    auto proposed = static_cast<std::uint64_t>(numerator / d);
    const auto rem = static_cast<std::uint64_t>(numerator % d);
    const std::uint64_t e = d - rem;
    if (e < (std::uint64_t{1} << log2)) {
      shift_ = log2;  // rounding-down magic is exact at this shift
    } else {
      // Magic needs 65 bits; fold the top bit into the add-indicator path.
      proposed += proposed;
      const std::uint64_t twice_rem = rem + rem;
      if (twice_rem >= d || twice_rem < rem) ++proposed;
      shift_ = log2 | add_marker;
    }
    magic_ = proposed + 1;
  }

  std::uint64_t divide(std::uint64_t x) const {
    if (magic_ == 0) return x >> shift_;
    const std::uint64_t q = mulhi(magic_, x);
    if (shift_ & add_marker) {
      const std::uint64_t t = ((x - q) >> 1) + q;
      return t >> (shift_ & shift_mask);
    }
    return q >> shift_;
  }

  std::uint64_t divisor() const { return d_; }

 private:
  static constexpr std::uint32_t add_marker = 0x40;
  static constexpr std::uint32_t shift_mask = 0x3f;

  static std::uint64_t mulhi(std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b) >> 64);
  }

  static constexpr std::uint32_t floor_log2(std::uint64_t d) {
    std::uint32_t log2 = 0;
    while (d >>= 1) ++log2;
    return log2;
  }

  std::uint64_t d_;
  std::uint64_t magic_ = 0;
  std::uint32_t shift_ = 0;
};

/// For each raw RNG word x: value[i] = high 64 bits of x * bound, and
/// accept[i] = 1 iff low 64 bits >= 2^64 mod bound -- exactly the accept
/// rule of uniform_below (pp/random.hpp), so a raw word stream maps to the
/// identical accepted-value stream.
inline void lemire_map(const std::uint64_t* raw, std::size_t count,
                       std::uint64_t bound, std::uint64_t* value,
                       std::uint8_t* accept) {
  const std::uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(raw[i]) * bound;
    const auto low = static_cast<std::uint64_t>(m);
    value[i] = static_cast<std::uint64_t>(m >> 64);
    accept[i] = low >= threshold ? 1 : 0;
  }
}

/// Decodes pair indices k in [0, m(m+1)) into ordered distinct pairs over
/// {0..m} with cols = m: i = k / m, j = k mod m, j += (j >= i) -- the
/// sample_pair decode (pp/scheduler.cpp) with cols = n - 1.
inline void decode_ordered_distinct(const std::uint64_t* k, std::size_t count,
                                    const u64_divider& cols,
                                    std::uint64_t* i_out,
                                    std::uint64_t* j_out) {
  const std::uint64_t d = cols.divisor();
  for (std::size_t n = 0; n < count; ++n) {
    const std::uint64_t q = cols.divide(k[n]);
    const std::uint64_t r = k[n] - q * d;
    i_out[n] = q;
    j_out[n] = r + (r >= q ? 1 : 0);
  }
}

}  // namespace ssr::simd
