// Per-logical-thread execution context.
//
// The context holds the thread's transaction descriptor and contention
// manager. It is reached through a thread_local *pointer slot* rather than
// a thread_local object so the fiber scheduler can re-point it on every
// fiber switch (all fibers share one OS thread, but each logical thread
// must own a private descriptor).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/tx.hpp"
#include "runtime/contention.hpp"
#include "util/rng.hpp"

namespace semstm {

/// Derive a per-context default seed for contention-manager randomization.
/// Mixing a process-wide counter into the base seed guarantees distinct
/// backoff streams even when every context is default-constructed — with
/// one shared seed all threads draw identical pause sequences and back off
/// in lockstep, defeating the randomization (a real historical bug).
/// Callers needing run-to-run determinism (the workload driver, seeded
/// tests) pass an explicit per-thread seed instead and never hit this path.
inline std::uint64_t default_ctx_seed() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  return SplitMix64(0xB0FFULL ^ (id * 0x9E3779B97F4A7C15ULL)).next();
}

struct ThreadCtx {
  std::unique_ptr<Tx> tx;
  std::unique_ptr<ContentionManager> cm;
  /// The descriptor atomically<TxT>() casts to TxT: tx->core, unless a
  /// caller re-points it at a wrapper of the same algorithm's core.
  void* core = nullptr;
  /// The algorithm of the bound descriptor. atomically<TxT>() checks it
  /// against TxT::kId in every build before casting `core`.
  AlgoId algo{};

  /// Default construction: the BackoffCm policy with a unique per-context
  /// seed (see default_ctx_seed()).
  explicit ThreadCtx(std::unique_ptr<Tx> t)
      : ThreadCtx(std::move(t), default_ctx_seed()) {}

  /// Deterministic construction: the caller owns seed uniqueness (pass a
  /// distinct stream seed per thread). An explicit policy may replace the
  /// default BackoffCm.
  ThreadCtx(std::unique_ptr<Tx> t, std::uint64_t seed,
            std::unique_ptr<ContentionManager> manager = nullptr)
      : tx(std::move(t)),
        cm(manager ? std::move(manager) : std::make_unique<BackoffCm>(seed)) {
    if (tx) {
      core = tx->core;
      algo = tx->algo;
    }
  }
};

/// The current thread's (or fiber's) context slot.
inline ThreadCtx*& tls_ctx() noexcept {
  thread_local ThreadCtx* ctx = nullptr;
  return ctx;
}

/// RAII binder used by workers and tests.
class CtxBinder {
 public:
  explicit CtxBinder(ThreadCtx& ctx) : prev_(tls_ctx()) { tls_ctx() = &ctx; }
  ~CtxBinder() { tls_ctx() = prev_; }
  CtxBinder(const CtxBinder&) = delete;
  CtxBinder& operator=(const CtxBinder&) = delete;

 private:
  ThreadCtx* prev_;
};

/// Diagnose-and-die for a missing context binding. Calling into the TM
/// runtime with no bound ThreadCtx is a programming error that previously
/// surfaced as a null dereference in release builds (the assert compiled
/// away); fail loudly in every build instead.
[[noreturn]] inline void die_no_ctx(const char* who) noexcept {
  std::fprintf(stderr,
               "semstm: %s called with no transaction context bound on this "
               "thread (bind a ThreadCtx via CtxBinder first)\n",
               who);
  std::abort();
}

/// Diagnose-and-die for atomically<TxT>() on a thread whose descriptor is
/// of another algorithm: casting it to TxT would silently reinterpret one
/// core as another.
[[noreturn]] inline void die_wrong_core(AlgoId requested,
                                        AlgoId bound) noexcept {
  std::fprintf(stderr,
               "semstm: atomically<%s>() called on a thread bound to a %s "
               "descriptor (instantiate atomically with the bound "
               "algorithm's core, or call the untemplated atomically())\n",
               algo_name(requested), algo_name(bound));
  std::abort();
}

}  // namespace semstm
