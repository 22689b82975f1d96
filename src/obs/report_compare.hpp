// The regression gate shared by report_trend (a pair or a history of
// reports) and `ssr_cli compare` (a run bundle against its baseline).
//
// A matched pair of rows is flagged as a regression only when the change
// is both *significant* and *material*:
//
//   * sample rows with retained samples on both sides -- a two-sample KS
//     test rejects distribution equality (p < ks_alpha) AND the mean moved
//     in the bad direction by more than sample_mean_tolerance.
//   * sample rows where either side is stats-only (v2 sketch-backed) --
//     the KS test needs raw samples, so significance degrades to
//     non-overlapping 95% confidence intervals of the means; the same
//     mean tolerance still applies.
//   * value rows -- the value moved in the bad direction by more than
//     value_tolerance (single numbers carry no spread, so the threshold
//     is generous).
//
// Keeping this in one place guarantees the CI trend gate and the local
// diff tool can never disagree about what counts as a regression.
#pragma once

#include <string>

#include "obs/report.hpp"

namespace ssr::obs {

struct compare_limits {
  double ks_alpha = 0.01;
  double sample_mean_tolerance = 0.10;
  double value_tolerance = 1.0 / 3.0;
};

/// Positive = `now` is worse than `base`, as a fraction of `base`.
double worsening(bool lower_is_better, double base, double now);

struct row_verdict {
  bool regression = false;
  /// False when the pair could not be judged (e.g. both sides empty).
  bool comparable = true;
  double base_mean = 0.0;
  double new_mean = 0.0;
  /// Fractional move in the bad direction (can be negative = improved).
  double worse = 0.0;
  std::string detail;  // one-line human summary of the evidence
};

/// Compares two rows already matched on key() and kind.
row_verdict compare_rows(const report_row& base, const report_row& now,
                         const compare_limits& limits = {});

}  // namespace ssr::obs
