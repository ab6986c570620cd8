// atomically(): the TM_BEGIN / TM_END retry loop.
//
// Runs the user lambda against the bound thread context's transaction,
// retrying on every TxAbort with the context's contention-manager policy
// pacing the attempts (runtime/contention.hpp). The policy escalates a
// starving transaction to *serial-irrevocable* mode: the loop acquires the
// global token (runtime/serial_gate.hpp), every other transaction
// quiesces at begin(), and the next attempt runs alone and is guaranteed
// to commit.
//
// User exceptions roll the transaction back and propagate (lazy versioning
// means no shared state was touched); they are counted as `exceptions`,
// not aborts — see the accounting contract in core/stats.hpp.
//
// atomically<Core>(body) runs the loop on the bound descriptor at its
// concrete core type; atomically(body) with a generic body (`auto& tx`)
// picks that type from the bound context's AlgoId through
// dispatch_algorithm(), once per transaction (DESIGN.md §4.12).
//
// Observability: this loop is where abort causes recorded by abort_tx()
// are folded into TxStats::abort_causes, and — in SEMSTM_TRACE builds —
// where attempt latency, backoff waits and serial-token hold times are
// measured and begin/commit/abort/fallback events are pushed into the
// descriptor's trace ring (src/obs).
#pragma once

#include <type_traits>

#include "core/context.hpp"
#include "core/dispatch.hpp"
#include "core/tx.hpp"
#include "obs/clock.hpp"
#include "sched/yieldpoint.hpp"

namespace semstm {

namespace detail {

/// Retry-loop bookkeeping shared by the void and value-returning paths.
/// Templated on the concrete descriptor type (NorecCore, ...), so every
/// tx.* call below binds statically and inlines (DESIGN.md §4.12).
template <typename TxT>
struct AttemptLoop {
  TxT& tx;
  ContentionManager& cm;
  std::uint64_t consecutive = 0;
  bool irrevocable = false;
  std::uint64_t attempt_start = 0;  ///< obs ticks (traced builds only)
  std::uint64_t gate_acquired = 0;  ///< obs ticks of token acquisition

  void trace(obs::EventKind kind, std::uint64_t ts, std::uint64_t dur,
             obs::AbortCause cause = obs::AbortCause::kUnknown,
             const void* addr = nullptr) noexcept {
    if constexpr (obs::kTraceEnabled) {
      if (obs::TraceRing* ring = tx.trace_ring()) {
        ring->push(obs::TraceEvent{ts, dur, addr, kind, cause, 0});
      }
    } else {
      (void)kind, (void)ts, (void)dur, (void)cause, (void)addr;
    }
  }

  /// Windowed-metrics hook (obs/metrics.hpp): fold the descriptor's
  /// cumulative stats into its bound WindowSeries at every attempt end, so
  /// an attempt's whole delta lands in the window containing its end and
  /// windows partition the run exactly. No-op unless a series is bound;
  /// compiles away with the trace gate off.
  void sample_metrics() noexcept {
    if constexpr (obs::kTraceEnabled) {
      if (obs::WindowSeries* s = tx.metrics_series()) {
        s->sample(obs::now_ticks(), tx.stats);
      }
    }
  }

  void on_attempt_start() noexcept {
    tx.clear_last_abort();
    if constexpr (obs::kTraceEnabled) {
      attempt_start = obs::now_ticks();
      trace(obs::EventKind::kBegin, attempt_start, 0);
    }
  }

  void on_commit() noexcept {
    ++tx.stats.commits;
    if constexpr (obs::kTraceEnabled) {
      const std::uint64_t now = obs::now_ticks();
      tx.stats.lat_commit.record(now - attempt_start);
      trace(obs::EventKind::kCommit, now, now - attempt_start);
    }
    release_token();
    cm.on_finish();
    sample_metrics();
  }

  // The abort and exception unwinders stay out of line (cold): they are
  // reached only through the catch handlers, and inlining them — twice per
  // atomically() instantiation — costs hot-loop code footprint while
  // saving nothing on a path that just unwound.
  [[gnu::cold, gnu::noinline]] void on_abort() {
    tx.rollback();
    ++tx.stats.aborts;
    ++tx.stats.retries;
    ++consecutive;
    if (consecutive > tx.stats.max_consec_aborts) {
      tx.stats.max_consec_aborts = consecutive;
    }
    const obs::AbortInfo& why = tx.last_abort();
    tx.stats.note_abort_cause(why.cause);
    if constexpr (obs::kTraceEnabled) {
      const std::uint64_t now = obs::now_ticks();
      trace(obs::EventKind::kAbort, now, now - attempt_start, why.cause,
            why.addr);
    }
    // Already irrevocable transactions keep the token and simply retry
    // (with the system quiesced they cannot abort again); everyone else
    // asks the policy whether to wait or to escalate.
    if (!irrevocable) {
      std::uint64_t wait_start = 0;
      if constexpr (obs::kTraceEnabled) wait_start = obs::now_ticks();
      const bool escalate = cm.on_abort(consecutive);
      if constexpr (obs::kTraceEnabled) {
        tx.stats.lat_backoff.record(obs::now_ticks() - wait_start);
      }
      if (escalate && tx.serial_gate() != nullptr) {
        ++tx.stats.fallbacks;
        trace(obs::EventKind::kFallback, obs::now_ticks(), 0);
        tx.serial_gate()->acquire(tx.tx_id());
        if constexpr (obs::kTraceEnabled) gate_acquired = obs::now_ticks();
        irrevocable = true;
      }
    }
    sample_metrics();
  }

  [[gnu::cold, gnu::noinline]] void on_exception() noexcept {
    tx.rollback();
    ++tx.stats.exceptions;
    release_token();
    cm.on_finish();
    sample_metrics();
  }

 private:
  void release_token() noexcept {
    if (irrevocable) {
      tx.serial_gate()->release();
      if constexpr (obs::kTraceEnabled) {
        const std::uint64_t now = obs::now_ticks();
        tx.stats.lat_gate.record(now - gate_acquired);
        trace(obs::EventKind::kSerialHold, now, now - gate_acquired);
      }
      irrevocable = false;
    }
  }
};

/// Recover the bound descriptor at the requested static type: a downcast
/// of the cached core pointer, valid only when the bound algorithm
/// produced that type — checked in every build.
template <typename TxT>
TxT& bound_tx(ThreadCtx& ctx) {
  if (ctx.algo != TxT::kId) die_wrong_core(TxT::kId, ctx.algo);
  return *static_cast<TxT*>(ctx.core);
}

}  // namespace detail

/// TM_BEGIN/TM_END on the bound descriptor, typed as the core TxT (or a
/// wrapper with the same kId). Every per-access call binds statically.
template <typename TxT, typename F>
decltype(auto) atomically(F&& body) {
  ThreadCtx* ctx = tls_ctx();
  if (ctx == nullptr || ctx->tx == nullptr) die_no_ctx("atomically()");
  detail::AttemptLoop<TxT> loop{detail::bound_tx<TxT>(*ctx), *ctx->cm};
  TxT& tx = loop.tx;

  for (;;) {
    ++tx.stats.starts;
    loop.on_attempt_start();
    try {
      sched::tick(sched::Cost::kBegin);
      tx.begin();
      if constexpr (std::is_void_v<std::invoke_result_t<F&, TxT&>>) {
        body(tx);
        tx.commit();
        loop.on_commit();
        return;
      } else {
        auto result = body(tx);
        tx.commit();
        loop.on_commit();
        return result;
      }
    } catch (const TxAbort&) {
      loop.on_abort();
    } catch (...) {
      loop.on_exception();
      throw;
    }
  }
}

/// TM_BEGIN/TM_END for a generic body (`[&](auto& tx) {...}`): runs
/// atomically<Core>(body) for the core of the bound context's algorithm.
template <typename F>
decltype(auto) atomically(F&& body) {
  ThreadCtx* ctx = tls_ctx();
  if (ctx == nullptr || ctx->tx == nullptr) die_no_ctx("atomically()");
  return dispatch_algorithm(ctx->algo, [&](auto tag) -> decltype(auto) {
    return atomically<typename decltype(tag)::tx_type>(body);
  });
}

}  // namespace semstm
