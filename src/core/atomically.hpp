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
// are folded into TxStats::abort_causes, and — for a descriptor the run
// bound a trace ring or metrics series to — where attempt latency, backoff
// waits and serial-token hold times are measured, begin/commit/abort/
// fallback events are pushed into the trace ring and metrics windows are
// sampled (src/obs).
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
///
/// Observation is decided once per atomically() call from the sinks bound
/// to the descriptor. Unobserved, the hot path carries one predictable
/// branch at attempt start and one at commit; the recording bodies are
/// cold and out of line, like the abort and exception unwinders.
template <typename TxT>
struct AttemptLoop {
  TxT& tx;
  ContentionManager& cm;
  /// A trace ring or metrics series is bound (--trace, --metrics-out).
  bool observed = tx.trace_ring() != nullptr || tx.metrics_series() != nullptr;
  std::uint64_t consecutive = 0;
  bool irrevocable = false;
  std::uint64_t attempt_start = 0;  ///< obs ticks (observed runs only)
  std::uint64_t gate_acquired = 0;  ///< obs ticks of token acquisition

  void on_attempt_start() noexcept {
    tx.clear_last_abort();
    if (observed) [[unlikely]] observe_start();
  }

  void on_commit() noexcept {
    ++tx.stats.commits;
    if (observed) [[unlikely]] {
      observe_commit();
      return;
    }
    release_token();
    cm.on_finish();
  }

  // The abort and exception unwinders stay out of line (cold): they are
  // reached only through the catch handlers, and inlining them — twice per
  // atomically() instantiation — costs hot-loop code footprint while
  // saving nothing on a path that just unwound.
  [[gnu::cold, gnu::noinline]] void on_abort() {
    tx.rollback();
    ++tx.stats.aborts;
    ++consecutive;
    if (consecutive > tx.stats.max_consec_aborts) {
      tx.stats.max_consec_aborts = consecutive;
    }
    const obs::AbortInfo& why = tx.last_abort();
    tx.stats.note_abort_cause(why.cause);
    if (observed) {
      record_conflict(why);
      const std::uint64_t now = obs::now_ticks();
      trace(obs::EventKind::kAbort, now, now - attempt_start, why.cause,
            why.addr);
    }
    // Already irrevocable transactions keep the token and simply retry
    // (with the system quiesced they cannot abort again); everyone else
    // asks the policy whether to wait or to escalate.
    if (!irrevocable) {
      const std::uint64_t wait_start = observed ? obs::now_ticks() : 0;
      const bool escalate = cm.on_abort(consecutive);
      if (observed) tx.stats.lat_backoff.record(obs::now_ticks() - wait_start);
      if (escalate && tx.serial_gate() != nullptr) {
        ++tx.stats.fallbacks;
        if (observed) trace(obs::EventKind::kFallback, obs::now_ticks(), 0);
        tx.serial_gate()->acquire(tx.tx_id());
        if (observed) gate_acquired = obs::now_ticks();
        irrevocable = true;
      }
    }
    if (observed) sample_metrics();
  }

  [[gnu::cold, gnu::noinline]] void on_exception() noexcept {
    tx.rollback();
    ++tx.stats.exceptions;
    release_token();
    cm.on_finish();
    if (observed) sample_metrics();
  }

 private:
  /// Fold a location-carrying abort into the descriptor's conflict map, at
  /// the same point as the cause histogram, so per-site counts never
  /// exceed per-cause totals. A descriptor wrapper without a conflict map
  /// records no sites.
  void record_conflict(const obs::AbortInfo& why) {
    if constexpr (requires { tx.conflict_map(); }) {
      if (why.addr != nullptr) {
        tx.conflict_map().record(why.cause, why.addr, why.orec, why.owner);
      }
    }
  }

  void trace(obs::EventKind kind, std::uint64_t ts, std::uint64_t dur,
             obs::AbortCause cause = obs::AbortCause::kUnknown,
             const void* addr = nullptr) noexcept {
    if (obs::TraceRing* ring = tx.trace_ring()) {
      ring->push(obs::TraceEvent{ts, dur, addr, kind, cause, 0});
    }
  }

  /// Windowed-metrics hook (obs/metrics.hpp): fold the descriptor's
  /// cumulative stats into its bound WindowSeries at every attempt end, so
  /// an attempt's whole delta lands in the window containing its end and
  /// windows partition the run exactly.
  void sample_metrics() noexcept {
    if (obs::WindowSeries* s = tx.metrics_series()) {
      s->sample(obs::now_ticks(), tx.stats);
    }
  }

  [[gnu::cold, gnu::noinline]] void observe_start() noexcept {
    attempt_start = obs::now_ticks();
    trace(obs::EventKind::kBegin, attempt_start, 0);
  }

  [[gnu::cold, gnu::noinline]] void observe_commit() noexcept {
    const std::uint64_t now = obs::now_ticks();
    tx.stats.lat_commit.record(now - attempt_start);
    trace(obs::EventKind::kCommit, now, now - attempt_start);
    release_token();
    cm.on_finish();
    sample_metrics();
  }

  void release_token() noexcept {
    if (irrevocable) {
      tx.serial_gate()->release();
      if (observed) {
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
