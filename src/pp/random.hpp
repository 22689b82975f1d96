// Unbiased small-range sampling helpers on top of rng_t.
//
// std::uniform_int_distribution is implementation-defined (not reproducible
// across standard libraries), so all sampling in the library goes through
// these functions instead.
#pragma once

#include <cmath>
#include <cstdint>

#include "pp/assert.hpp"
#include "pp/rng.hpp"

namespace ssr {

/// Uniform integer in [0, bound) via Lemire's multiply-shift rejection
/// method.  Unbiased for every bound >= 1.
inline std::uint64_t uniform_below(rng_t& rng, std::uint64_t bound) {
  SSR_REQUIRE(bound >= 1);
  while (true) {
    const std::uint64_t x = rng();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
    const std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low >= bound || low >= (0 - bound) % bound)
      return static_cast<std::uint64_t>(m >> 64);
  }
}

/// Uniform integer in [lo, hi] inclusive.
inline std::int64_t uniform_range(rng_t& rng, std::int64_t lo, std::int64_t hi) {
  SSR_REQUIRE(lo <= hi);
  return lo + static_cast<std::int64_t>(
                  uniform_below(rng, static_cast<std::uint64_t>(hi - lo) + 1));
}

/// Fair coin.
inline bool coin_flip(rng_t& rng) { return (rng() >> 63) != 0; }

/// Uniform double in [0, 1) with 53 bits of precision.
inline double uniform_unit(rng_t& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Bernoulli(p) draw.
inline bool bernoulli(rng_t& rng, double p) { return uniform_unit(rng) < p; }

/// Number of failures before the first success of a Bernoulli(p) sequence
/// (geometric distribution with support {0, 1, 2, ...}).  Used by the
/// accelerated simulators to jump over null interactions in one step.
inline std::uint64_t geometric_failures(rng_t& rng, double p) {
  SSR_REQUIRE(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  const double u = 1.0 - uniform_unit(rng);  // u in (0, 1]
  const double k = std::floor(std::log(u) / std::log1p(-p));
  if (k < 0.0) return 0;
  return static_cast<std::uint64_t>(k);
}

}  // namespace ssr
