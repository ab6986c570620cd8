// Contention management: the inter-attempt policy of the atomically()
// retry loop.
//
// The paper's evaluation (§5) relies on the baseline algorithms' native
// progress behaviour plus a retry/backoff loop; which loop matters — CM
// choice is known to dominate STM behaviour under contention (Singh et al.,
// Synchrobench STM comparison). There is one policy, BackoffCm: randomized
// exponential backoff, and after kRetryLimit consecutive aborts of one
// transaction it escalates — atomically() acquires the global
// serial-irrevocable token (runtime/serial_gate.hpp) and the starving
// transaction runs alone, guaranteed to commit. This is GCC libitm's
// serialirr fallback, the progress backstop pure backoff lacks: under pure
// backoff a long transaction facing short conflicting writers can starve
// forever (tests/test_contention.cpp's livelock rig).
//
// The ContentionManager interface lets one context wrap or replace the
// policy (ThreadCtx's `manager` argument): a test's never-escalating
// control, the litmus suite's polite spinner, a harness that counts the
// accesses of aborted attempts.
//
// Observability (src/obs): for an observed descriptor atomically() times
// each on_abort() wait into TxStats::lat_backoff and records an escalation
// as a kFallback trace event; every run counts escalations in
// TxStats::fallbacks.
#pragma once

#include <cstdint>

#include "runtime/backoff.hpp"

namespace semstm {

/// Consecutive aborts of one transaction at which BackoffCm goes serial.
/// Ordinary contention rarely gets there. In the sim the longest streak of
/// the committed baseline (1–4 threads) is 26, and across the full fig1
/// and fig2 sweeps (up to 24 threads) only the two 24-thread NOrec
/// hashtable points reach the limit, once each. On 4 real cores, under
/// pure backoff, TL2/S-TL2 streaks on perfbench's hashtable and bank
/// reach 85–217; with the limit the fallback fires at most 4 times per
/// million commits.
inline constexpr std::uint64_t kRetryLimit = 64;

class ContentionManager {
 public:
  virtual ~ContentionManager() = default;

  virtual const char* name() const noexcept = 0;

  /// Called by atomically() after the `consecutive`-th consecutive abort
  /// (1-based) of the current transaction; performs the inter-attempt wait.
  /// Returns true to request escalation to the serial-irrevocable fallback
  /// for the next attempt (the caller then stops consulting the policy for
  /// this transaction — the token guarantees commit).
  virtual bool on_abort(std::uint64_t consecutive) = 0;

  /// Called when the transaction finishes for good — commit, or a user
  /// exception abandoning it. Resets per-transaction pacing state.
  virtual void on_finish() noexcept {}
};

/// Randomized exponential backoff below kRetryLimit consecutive aborts;
/// at the limit, escalate to the serial-irrevocable token without waiting.
class BackoffCm final : public ContentionManager {
 public:
  explicit BackoffCm(std::uint64_t seed) : backoff_(seed) {}
  const char* name() const noexcept override { return "backoff"; }
  bool on_abort(std::uint64_t consecutive) override {
    if (consecutive >= kRetryLimit) return true;  // go serial, no wait
    backoff_.pause();
    return false;
  }
  void on_finish() noexcept override { backoff_.reset(); }

 private:
  Backoff backoff_;
};

}  // namespace semstm
