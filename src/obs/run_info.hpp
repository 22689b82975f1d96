// Run-identity helpers shared by every sink that frames output with
// provenance: bench reports (obs/report), the trace sink (obs/trace), and
// profile exports.  Lives at the bottom of the obs layer so ssr_obs
// targets can use it without depending on ssr_report.
#pragma once

#include <string>

namespace ssr::obs {

/// `git rev-parse HEAD` of the working tree, "unknown" when unavailable.
/// Asked once per process; later calls return the first answer.
std::string git_revision();

}  // namespace ssr::obs
