// Cooperative cancellation for long-running exploration work.
//
// A `CancellationToken` is a thread-safe "please stop" flag: `cancelled()`
// is true once any thread called `cancel()`.  Solvers poll it at a coarse
// stride (every few hundred moves / nodes), so a fired token degrades a
// sweep point to its best-so-far answer instead of wedging the sweep; the
// explorer's sweeps take the token as `ExplorerOptions::cancel`.
//
// Whoever fires the token decides when, so cancellation is the one
// sanctioned source of nondeterminism in the oracle: a point cut short is
// *reported* as timed out (never silently mispriced), and a token that never
// fires leaves the solvers' results exactly as without one.
#pragma once

#include <atomic>

namespace dtse::support {

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation (idempotent, callable from any thread).
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

}  // namespace dtse::support
