// The transaction descriptor (DESIGN.md §4.12):
//
//  - TxCoreBase: the non-virtual facility base every concrete descriptor
//    core derives from — stats, serial-gate protocol, abort attribution,
//    trace hooks. Cores (src/algos/*.hpp) are `final` classes with NO
//    virtual functions: every caller names the core type, so the whole
//    begin→access→commit chain is statically dispatched and inlinable.
//
//  - Tx: the owning handle Algorithm::make_tx() returns and ThreadCtx
//    keeps. It names the core's type (AlgoId) and points at it, but has no
//    transactional API of its own: code reaches the core at its concrete
//    type through dispatch_algorithm() (core/dispatch.hpp), the single
//    place where a runtime algorithm choice becomes a type.
//
// Classical constructs:    read, write            (TM_READ / TM_WRITE)
// Semantic constructs:     cmp, cmp2, inc         (Table 1 / §4)
//
//   bool cmp (addr, Rel, value)   — address–value conditional (TM_GT, ...)
//   bool cmp2(addr, Rel, addr2)   — address–address conditional (paper §3:
//                                   "extending the algorithms ... is
//                                   straightforward"; we implement it)
//   void inc (addr, delta)        — deferred increment (TM_INC / TM_DEC:
//                                   delta is two's-complement, so decrement
//                                   is inc with a negative delta)
//   bool cmp_stable(tx, addr, Rel, value)
//                                 — a cmp whose true outcome the caller
//                                   declares permanent (extension beyond
//                                   Table 1; free function below)
//
// Non-semantic algorithms (NOrec, TL2, CGL) use the generic_* delegations
// below, which lower cmp/inc to read/write. That is exactly the paper's
// "NOrec Modified-GCC" configuration: the application calls the semantic
// API but the algorithm handles it non-semantically.
#pragma once

#include <concepts>
#include <cstdint>

#include "core/semantics.hpp"
#include "core/stats.hpp"
#include "core/word.hpp"
#include "obs/abort_cause.hpp"
#include "obs/clock.hpp"
#include "obs/conflict_map.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "runtime/serial_gate.hpp"

namespace semstm {

/// The closed set of registered algorithms, in canonical benchmark order.
/// dispatch_algorithm() switches over it: AlgoId → one concrete descriptor
/// core type (each core's kId).
enum class AlgoId : std::uint8_t { kCgl, kNorec, kSnorec, kTl2, kStl2 };

/// The registered name of `id`; the inverse of algo_id() (core/algorithm.hpp).
constexpr const char* algo_name(AlgoId id) noexcept {
  constexpr const char* kNames[] = {"cgl", "norec", "snorec", "tl2", "stl2"};
  return kNames[static_cast<unsigned>(id)];
}

/// Thrown by an algorithm to roll back the current transaction attempt.
/// Caught exclusively by atomically(); user code never sees it. Always
/// thrown through TxCoreBase::abort_tx(cause, addr), which records the
/// abort's attribution first (see obs/abort_cause.hpp).
struct TxAbort {};

/// Non-virtual facilities shared by every concrete descriptor core. The
/// core object's address is the transaction's identity everywhere identity
/// matters (serial-gate ownership, orec ownership): tx_id() below is what
/// atomically() hands to SerialGate::acquire, and what gate_enter()'s
/// held_by() check compares against.
class TxCoreBase {
 public:
  TxCoreBase() = default;
  TxCoreBase(const TxCoreBase&) = delete;
  TxCoreBase& operator=(const TxCoreBase&) = delete;

  TxStats stats;

  /// The serial-irrevocable gate shared by every descriptor of the owning
  /// Algorithm (null only for descriptors built outside an Algorithm, e.g.
  /// bare test doubles). atomically() uses it for the serial-irrevocable
  /// fallback; the algorithms honour it through gate_enter()/gate_exit().
  SerialGate* serial_gate() const noexcept { return gate_; }

  /// The identity this transaction presents to shared metadata (gate,
  /// orecs). Stable across the descriptor's lifetime.
  const void* tx_id() const noexcept { return this; }

  /// Attribution of the most recent abort_tx() of this descriptor.
  /// atomically() clears it at attempt start and folds it into
  /// stats.abort_causes on each abort.
  const obs::AbortInfo& last_abort() const noexcept { return last_abort_; }
  void clear_last_abort() noexcept { last_abort_ = obs::AbortInfo{}; }

  /// Explicitly abort and retry the current transaction (cause
  /// kUserAbort). The attempt rolls back and atomically() re-runs the
  /// body, so the caller must expect the condition that triggered the
  /// abort to change between attempts (another thread committing).
  [[noreturn]] void user_abort() { abort_tx(obs::AbortCause::kUserAbort); }

  /// The event-trace ring this descriptor records into, or null. Bound by
  /// the driver when a run is traced (--trace).
  void bind_trace(obs::TraceRing* ring) noexcept { trace_ = ring; }
  obs::TraceRing* trace_ring() const noexcept { return trace_; }

  /// The windowed-metrics series this descriptor samples into, or null.
  /// Bound by the driver when a run collects metrics (--metrics-out);
  /// atomically()'s retry loop samples at every attempt end.
  void bind_metrics(obs::WindowSeries* series) noexcept { metrics_ = series; }
  obs::WindowSeries* metrics_series() const noexcept { return metrics_; }

  /// Whether a sink is bound. Only an observed descriptor records latency
  /// histograms, trace events, metrics windows and conflict sites; an
  /// unobserved one keeps only the TxStats counters.
  bool observed() const noexcept {
    return trace_ != nullptr || metrics_ != nullptr;
  }

  /// Conflict sites this descriptor aborted over (obs/conflict_map.hpp).
  /// atomically() fills it while the descriptor is observed; empty
  /// otherwise.
  const obs::ConflictMap& conflict_map() const noexcept { return conflicts_; }
  obs::ConflictMap& conflict_map() noexcept { return conflicts_; }

 protected:
  // Destroyed only as a concrete core (owned by a Tx handle or by value);
  // never deleted through a TxCoreBase*, hence no virtual destructor.
  ~TxCoreBase() = default;

  /// Abort the current attempt, recording *why* and (when known) the
  /// conflicting address, orec table index and owning transaction. Does
  /// not count stats; atomically() does. One reclassification applies: a
  /// conflict observed while another transaction holds (or is draining
  /// into) the serial-irrevocable token is attributed to
  /// kSerialGatePreempt — the root cause is the serial transaction the
  /// system is quiescing for, not ordinary contention.
  ///
  /// atomically() folds the recorded attribution into stats.abort_causes
  /// and, when the descriptor is observed, into its ConflictMap (DESIGN.md
  /// §4.15 accounting contract). `owner` is the conflicting orec's owner
  /// when the site could read one (best-effort; self-owned hints are
  /// dropped — a transaction is never its own victim).
  ///
  /// Kept out of line (cold): every per-access fast path carries several
  /// abort sites, and with the core type known at every call site
  /// (DESIGN.md §4.12) they would otherwise all inline into the transaction
  /// loop, bloating the hot code footprint for a path only taken on
  /// conflicts.
  [[noreturn, gnu::cold, gnu::noinline]] void abort_tx(
      obs::AbortCause cause, const void* addr = nullptr,
      std::uint32_t orec = obs::kNoOrec, const void* owner = nullptr) {
    if (cause != obs::AbortCause::kUserAbort &&
        cause != obs::AbortCause::kClockOverflow && gate_ != nullptr &&
        gate_->held() && !gate_->held_by(this)) {
      cause = obs::AbortCause::kSerialGatePreempt;
    }
    if (owner == this) owner = nullptr;
    last_abort_.cause = cause;
    last_abort_.addr = addr;
    last_abort_.orec = orec;
    last_abort_.owner = owner;
    throw TxAbort{};
  }

  /// Record a semantic-operation trace event when a ring is bound. Called
  /// from the semantic algorithms' hooks; unobserved, one branch.
  void trace_semantic_op(obs::SemanticOp op, const void* addr) noexcept {
    if (trace_ != nullptr) [[unlikely]] push_semantic_op(op, addr);
  }

  /// The histogram a validation pass times into (obs::ScopedLatency):
  /// `h` when the descriptor is observed, null otherwise.
  obs::LatencyHistogram* latency_sink(obs::LatencyHistogram& h) noexcept {
    return observed() ? &h : nullptr;
  }

  /// Called by concrete cores' constructors to share the algorithm's gate.
  void bind_gate(SerialGate& gate) noexcept { gate_ = &gate; }

  /// begin() protocol: block while another transaction holds the
  /// serial-irrevocable token, then register as in-flight. A token-holding
  /// transaction passes straight through (it must not wait on itself, and
  /// it is excluded from the drain count by construction). Idempotent
  /// across repeated begin() calls without an intervening attempt end.
  void gate_enter() {
    if (gate_ == nullptr || gate_entered_ || gate_->held_by(this)) return;
    gate_->enter(tx_id());  // identity picks the announce slot
    gate_entered_ = true;
  }

  /// commit()/rollback() protocol: deregister from the gate. Safe to call
  /// redundantly; only the first call after a gate_enter() counts.
  void gate_exit() noexcept {
    if (gate_entered_) {
      gate_->exit(tx_id());  // same identity, same slot as gate_enter()
      gate_entered_ = false;
    }
  }

 private:
  [[gnu::cold, gnu::noinline]] void push_semantic_op(
      obs::SemanticOp op, const void* addr) noexcept {
    trace_->push(obs::TraceEvent{obs::now_ticks(), 0, addr,
                                 obs::EventKind::kSemanticOp,
                                 obs::AbortCause::kUnknown,
                                 static_cast<std::uint8_t>(op)});
  }

  SerialGate* gate_ = nullptr;
  bool gate_entered_ = false;
  obs::AbortInfo last_abort_;
  obs::TraceRing* trace_ = nullptr;
  obs::WindowSeries* metrics_ = nullptr;
  obs::ConflictMap conflicts_;  // lazy: allocates on first recorded conflict
};

// -- Generic semantic-op delegations ----------------------------------------
//
// The non-semantic handling of the semantic API: cmp/cmp2/cmp_or lower to
// plain reads + a local compare, inc to read-modify-write. Non-semantic
// cores (CGL, NOrec, TL2) use these as their cmp/inc implementations, and
// the semantic cores fall back to them when an operand is buffered in the
// write-set (private data needs no semantic validation). `TxT` is any
// descriptor exposing read/write.

template <typename TxT>
bool generic_cmp(TxT& tx, const tword* addr, Rel rel, word_t operand) {
  return eval(rel, tx.read(addr), operand);
}

/// A descriptor with a native stable compare (S-NOrec, S-TL2; each core's
/// header asserts it, so a renamed member cannot quietly fall back).
template <typename TxT>
concept HasStableCmp = requires(TxT& tx, const tword* a, Rel r, word_t v) {
  { tx.cmp_stable(a, r, v) } -> std::same_as<bool>;
};

/// Stable compare `*addr REL operand` (an extension beyond Table 1,
/// DESIGN.md §4.7): the caller declares that once the relation holds, no
/// committed transaction and no non-transactional store ever makes it
/// false again. A core with the member records nothing when it holds —
/// validating that entry could not fail — and an ordinary cmp entry when it
/// does not. Every other descriptor runs its ordinary cmp.
template <typename TxT>
bool cmp_stable(TxT& tx, const tword* addr, Rel rel, word_t operand) {
  if constexpr (HasStableCmp<TxT>) {
    return tx.cmp_stable(addr, rel, operand);
  } else {
    return tx.cmp(addr, rel, operand);
  }
}

template <typename TxT>
bool generic_cmp2(TxT& tx, const tword* a, Rel rel, const tword* b) {
  const word_t va = tx.read(a);
  const word_t vb = tx.read(b);
  return eval(rel, va, vb);
}

/// Disjunctive conditional `term_0 || term_1 || ...` (paper §3: composed
/// conditional expressions treated as ONE semantic read operation, e.g.
/// `x > 0 || y > 0`, or the hashtable probe's per-cell clause). Semantic
/// algorithms validate the clause as a unit — only a change that flips
/// the OR's outcome aborts. This delegation is short-circuit evaluation
/// over plain reads, exactly how a non-semantic TM executes the original
/// condition.
template <typename TxT>
bool generic_cmp_or(TxT& tx, const CmpTerm* terms, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const word_t lhs = tx.read(terms[i].addr);
    const word_t rhs =
        terms[i].rhs_addr ? tx.read(terms[i].rhs_addr) : terms[i].operand;
    if (eval(terms[i].rel, lhs, rhs)) return true;
  }
  return false;
}

template <typename TxT>
void generic_inc(TxT& tx, tword* addr, word_t delta) {
  tx.write(addr, tx.read(addr) + delta);
}

// -- The owning handle ------------------------------------------------------

/// One thread's descriptor as Algorithm::make_tx() hands it out: owns the
/// concrete core (the virtual destructor is the only virtual call), names
/// its type and exposes its shared facilities. atomically() reaches the
/// core itself through ThreadCtx, at the type `algo` names.
class Tx {
 public:
  virtual ~Tx() = default;

  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;

  const AlgoId algo;   ///< names the concrete type of *core
  void* const core;    ///< the owned core, as that concrete type
  TxCoreBase& base;    ///< the same core, as its non-virtual facilities
  TxStats& stats;      ///< base.stats: the core's own block

 protected:
  Tx(AlgoId id, void* concrete, TxCoreBase& facilities) noexcept
      : algo(id), core(concrete), base(facilities), stats(facilities.stats) {}
};

}  // namespace semstm
