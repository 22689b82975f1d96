// Cooperative cancellation for long-running measurements.
//
// The serve layer (src/serve/) runs simulations on behalf of remote
// clients, which means runs must be abortable mid-flight: a client can
// disconnect, a per-request deadline can expire, or the daemon can drain
// for shutdown.  Simulation loops are pure compute with no natural yield
// points, so cancellation is cooperative: the measurement layers
// (pp/trial.hpp between trials, pp/convergence.hpp between bounded engine
// bursts) poll a shared token and abandon the run by throwing
// cancelled_error.
//
// Polling an engine burst boundary instead of every interaction keeps the
// hot loop untouched.  On the direct engine and the batched count path,
// interrupting engine.run() at any interaction budget and resuming later
// continues the identical trajectory (the RNG stream and any cut geometric
// skip are engine state, see pp/engine.hpp); the block path does too when
// the transition draws no randomness.  The one exception is sublinear on
// the block path, which follows a different trajectory with the same
// distribution: a shortened batch moves the scheduler's RNG reads against
// its randomized transition's (pp/convergence.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace ssr {

/// Thrown by measurement layers when a cancel_token fires mid-run.
class cancelled_error : public std::runtime_error {
 public:
  explicit cancelled_error(const char* what = "run cancelled")
      : std::runtime_error(what) {}
};

/// Shared cancellation flag with an optional absolute deadline.  One writer
/// side (request_cancel / set_deadline, e.g. a server connection thread or
/// an admission controller) and any number of polling readers; all
/// operations are thread-safe.
class cancel_token {
 public:
  using clock = std::chrono::steady_clock;

  /// Requests cancellation; sticky, cancelled() is true from now on.
  void request_cancel() {
    cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Cancels automatically once `deadline` passes.  time_point::max()
  /// (the default) means no deadline.
  void set_deadline(clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  void set_deadline_after(clock::duration timeout) {
    set_deadline(clock::now() + timeout);
  }

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) !=
           clock::time_point::max().time_since_epoch().count();
  }

  /// True iff cancellation was requested or the deadline has passed.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const auto deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline == clock::time_point::max().time_since_epoch().count())
      return false;
    return clock::now().time_since_epoch().count() >= deadline;
  }

  /// True iff cancelled() fired via the deadline rather than an explicit
  /// request (used to distinguish "deadline exceeded" from "cancelled" in
  /// error responses).
  bool deadline_expired() const {
    return cancelled() && !cancelled_.load(std::memory_order_relaxed);
  }

  /// Polls the token and throws cancelled_error when it fired.
  void throw_if_cancelled() const {
    if (cancelled()) throw cancelled_error();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<clock::rep> deadline_ns_{
      clock::time_point::max().time_since_epoch().count()};
};

}  // namespace ssr
