// Lock-free per-thread event tracing: a fixed-capacity single-producer /
// single-consumer ring of TraceEvents.
//
// Producer = the logical thread running transactions (its descriptor records at
// begin/commit/abort/fallback and at semantic-operation hooks); consumer =
// the TraceExporter draining rings after (or during) a run. The classic
// SPSC discipline makes every operation wait-free: the producer owns
// head_, the consumer owns tail_, each reads the other's index with
// acquire and publishes its own with release. When the ring is full the
// producer *drops* the event and counts it (dropped()) — tracing must
// never block or abort a transaction, and a bounded ring with an honest
// drop counter beats an unbounded one that perturbs the run it observes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/abort_cause.hpp"
#include "util/padded.hpp"

namespace semstm::obs {

enum class EventKind : std::uint8_t {
  kBegin = 0,    ///< attempt started (instant)
  kCommit,       ///< attempt committed; dur = begin -> commit
  kAbort,        ///< attempt aborted;  dur = begin -> abort, cause set
  kFallback,     ///< escalation to the serial-irrevocable token (instant)
  kSerialHold,   ///< serial token held; dur = acquire -> release
  kSemanticOp,   ///< semantic construct executed (cmp/inc/promotion)
};

inline const char* event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kBegin:      return "begin";
    case EventKind::kCommit:     return "commit";
    case EventKind::kAbort:      return "abort";
    case EventKind::kFallback:   return "fallback";
    case EventKind::kSerialHold: return "serial_hold";
    case EventKind::kSemanticOp: return "semantic_op";
  }
  return "invalid";
}

/// Sub-kinds for kSemanticOp events (stored in `aux`).
enum class SemanticOp : std::uint8_t { kCmp = 0, kCmp2, kCmpOr, kInc, kPromote };

inline const char* semantic_op_name(SemanticOp op) noexcept {
  switch (op) {
    case SemanticOp::kCmp:     return "cmp";
    case SemanticOp::kCmp2:    return "cmp2";
    case SemanticOp::kCmpOr:   return "cmp_or";
    case SemanticOp::kInc:     return "inc";
    case SemanticOp::kPromote: return "promote";
  }
  return "invalid";
}

/// One POD record. `ts` is in obs::now_ticks() units (virtual ticks under
/// the simulator, nanoseconds under real threads); `dur` is 0 for instant
/// events. `addr` is the conflicting/operand location (or null) and
/// `cause` is meaningful only for kAbort.
struct TraceEvent {
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  const void* addr = nullptr;
  EventKind kind = EventKind::kBegin;
  AbortCause cause = AbortCause::kUnknown;
  std::uint8_t aux = 0;  ///< SemanticOp for kSemanticOp events
};

class TraceRing {
 public:
  /// Capacity is 2^capacity_log2 events (default 2^14 = 16384, ~640 KiB).
  explicit TraceRing(unsigned capacity_log2 = 14)
      : mask_((std::size_t{1} << capacity_log2) - 1),
        slots_(std::make_unique<TraceEvent[]>(std::size_t{1}
                                              << capacity_log2)) {}

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side. Returns false (and counts the drop) when full.
  bool push(const TraceEvent& e) noexcept {
    const std::size_t head = head_.value.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.value.load(std::memory_order_acquire);
    if (head - tail > mask_) {  // full
      dropped_.value.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[head & mask_] = e;
    head_.value.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when empty.
  bool pop(TraceEvent& out) noexcept {
    const std::size_t tail = tail_.value.load(std::memory_order_relaxed);
    const std::size_t head = head_.value.load(std::memory_order_acquire);
    if (tail == head) return false;
    out = slots_[tail & mask_];
    tail_.value.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Events currently buffered (racy snapshot; exact when quiescent).
  std::size_t size() const noexcept {
    return head_.value.load(std::memory_order_acquire) -
           tail_.value.load(std::memory_order_acquire);
  }

  bool empty() const noexcept { return size() == 0; }

  /// Events the producer had to discard because the ring was full.
  std::uint64_t dropped() const noexcept {
    return dropped_.value.load(std::memory_order_relaxed);
  }

 private:
  std::size_t mask_;
  std::unique_ptr<TraceEvent[]> slots_;
  // Free-running indices (wrap naturally); padded so the producer-owned
  // and consumer-owned lines never false-share.
  Padded<std::atomic<std::size_t>> head_{};    ///< producer cursor
  Padded<std::atomic<std::size_t>> tail_{};    ///< consumer cursor
  Padded<std::atomic<std::uint64_t>> dropped_{};
};

}  // namespace semstm::obs
