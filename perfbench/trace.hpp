// Span tracing from outside the library: a descriptor shim that forwards
// every call to the real core and timestamps it.
//
// TracedTx<Core> has the member set atomically<TxT>() and the workloads'
// op_t<TxT>() need, so binding it is a matter of pointing ThreadCtx::core
// at the shim and instantiating the workload with TxT = TracedTx<Core>.
// A traced op records one span per call into the thread's SpanRecorder:
//
//   op                       one workload operation (root)
//   +- tx                    first begin() .. the committing commit() returns
//      +- attempt            begin() call .. commit()/rollback() returns
//      |  +- begin, commit, rollback
//      |  +- read, write, cmp (cmp, cmp2, cmp_or), inc
//      |  +- ht_insert, ht_remove, ht_contains   (hashtable body only)
//      +- backoff            rollback() returns .. the next begin() call
//
// A span's self time is its duration minus its children's. At the end of
// each op, fold() checks that every span is closed, lies inside its
// parent, does not overlap its siblings, and that the self times add up to
// the op span; an op that fails the check is counted, not folded.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/tx.hpp"

namespace perfbench {

/// Span timestamps. On x86 the TSC, which costs about a third of a
/// steady_clock read; elsewhere steady_clock nanoseconds. The benchmark
/// converts ticks to ns with a factor measured against steady_clock over
/// the run (TickCalibration).
inline std::uint64_t span_ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Measures ns per span tick between construction and finish().
class TickCalibration {
 public:
  TickCalibration()
      : ticks_(span_ticks()), start_(std::chrono::steady_clock::now()) {}

  double finish() const {
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    const std::uint64_t ticks = span_ticks() - ticks_;
    return ticks == 0 ? 1.0 : ns / static_cast<double>(ticks);
  }

 private:
  std::uint64_t ticks_;
  std::chrono::steady_clock::time_point start_;
};

enum class Layer : std::uint8_t {
  kOp,
  kTx,
  kAttempt,
  kBackoff,
  kBegin,
  kCommit,
  kRollback,
  kRead,
  kWrite,
  kCmp,
  kInc,
  kHtInsert,
  kHtRemove,
  kHtContains,
  kCount_,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount_);

/// Per-layer sums over the ops that passed the partition check.
struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> self{};   ///< ticks
  std::array<std::uint64_t, kLayerCount> incl{};   ///< ticks
  std::array<std::uint64_t, kLayerCount> calls{};
  std::uint64_t aborted_attempts = 0;  ///< ticks in attempts that rolled back
  std::uint64_t ops = 0;
  std::uint64_t bad_ops = 0;           ///< ops that failed the check

  std::uint64_t self_of(Layer l) const {
    return self[static_cast<std::size_t>(l)];
  }
  std::uint64_t incl_of(Layer l) const {
    return incl[static_cast<std::size_t>(l)];
  }
  std::uint64_t calls_of(Layer l) const {
    return calls[static_cast<std::size_t>(l)];
  }

  LayerTotals& operator+=(const LayerTotals& o) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      self[i] += o.self[i];
      incl[i] += o.incl[i];
      calls[i] += o.calls[i];
    }
    aborted_attempts += o.aborted_attempts;
    ops += o.ops;
    bad_ops += o.bad_ops;
    return *this;
  }
};

/// One thread's span stack for the op being traced. Inactive between
/// traced ops, so the shim costs one branch per call on untraced ops.
class SpanRecorder {
 public:
  bool active() const noexcept { return active_; }

  void start_op() {
    spans_.clear();
    stack_.clear();
    broken_ = false;
    tx_open_ = false;
    backoff_pending_ = false;
    active_ = true;
    open(Layer::kOp);
  }

  /// Closes the root span; fold() then checks and accumulates the op.
  void end_op() {
    close();
    active_ = false;
  }

  /// Drops an op whose body threw: its spans may still be open.
  void abandon_op() noexcept { active_ = false; }

  void open(Layer l) { open_at(l, span_ticks()); }

  std::uint64_t close() {
    const std::uint64_t t = span_ticks();
    close_at(t);
    return t;
  }

  /// begin() was called: open the tx span on the first attempt, or close
  /// the backoff gap since the last rollback, then open the attempt.
  void attempt_begin() {
    const std::uint64_t t = span_ticks();
    if (backoff_pending_) {
      add_closed(Layer::kBackoff, backoff_from_, t);
      backoff_pending_ = false;
    } else if (!tx_open_) {
      open_at(Layer::kTx, t);
      tx_open_ = true;
    }
    open_at(Layer::kAttempt, t);
  }

  /// commit() or rollback() returned at tick `t`: close the attempt, and
  /// on commit the tx span too.
  void attempt_end(std::uint64_t t, bool committed) {
    if (stack_.empty()) {
      broken_ = true;
      return;
    }
    spans_[stack_.back()].aborted = !committed;
    close_at(t);
    if (committed) {
      close_at(t);
      tx_open_ = false;
    } else {
      backoff_pending_ = true;
      backoff_from_ = t;
    }
  }

  void fold(LayerTotals& out) {
    const std::size_t n = spans_.size();
    child_.assign(n, 0);
    last_end_.assign(n, 0);
    bool ok = !broken_ && stack_.empty() && n > 0 &&
              spans_[0].parent == kNoParent;
    for (std::size_t i = 0; ok && i < n; ++i) {
      const Span& s = spans_[i];
      if (s.end < s.start) ok = false;
      if (i == 0) continue;
      if (s.parent >= i) {
        ok = false;
        break;
      }
      const Span& p = spans_[s.parent];
      if (s.start < p.start || s.end > p.end || s.start < last_end_[s.parent]) {
        ok = false;
      }
      last_end_[s.parent] = s.end;
      child_[s.parent] += s.end - s.start;
    }
    std::uint64_t self_sum = 0;
    for (std::size_t i = 0; ok && i < n; ++i) {
      const std::uint64_t dur = spans_[i].end - spans_[i].start;
      if (child_[i] > dur) ok = false;
      self_sum += dur - child_[i];
    }
    if (!ok || self_sum != spans_[0].end - spans_[0].start) {
      ++out.bad_ops;
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      const auto l = static_cast<std::size_t>(s.layer);
      const std::uint64_t dur = s.end - s.start;
      out.self[l] += dur - child_[i];
      out.incl[l] += dur;
      ++out.calls[l];
      if (s.aborted) out.aborted_attempts += dur;
    }
    ++out.ops;
  }

 private:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    Layer layer;
    bool aborted;
    std::uint32_t parent;
    std::uint64_t start;
    std::uint64_t end;
  };

  void open_at(Layer l, std::uint64_t t) {
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
    stack_.push_back(static_cast<std::uint32_t>(spans_.size()));
    spans_.push_back(Span{l, false, parent, t, 0});
  }

  void close_at(std::uint64_t t) {
    if (stack_.empty()) {
      broken_ = true;
      return;
    }
    spans_[stack_.back()].end = t;
    stack_.pop_back();
  }

  void add_closed(Layer l, std::uint64_t start, std::uint64_t end) {
    if (stack_.empty()) {
      broken_ = true;
      return;
    }
    spans_.push_back(Span{l, false, stack_.back(), start, end});
  }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint64_t> child_;     // fold() scratch
  std::vector<std::uint64_t> last_end_;  // fold() scratch
  bool active_ = false;
  bool broken_ = false;
  bool tx_open_ = false;
  bool backoff_pending_ = false;
  std::uint64_t backoff_from_ = 0;
};

/// A span that closes when it leaves scope, so a TxAbort thrown through a
/// barrier still ends the barrier's span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, Layer l) : rec_(rec) { rec_.open(l); }
  ~ScopedSpan() {
    if (open_) rec_.close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t close() {
    open_ = false;
    return rec_.close();
  }

 private:
  SpanRecorder& rec_;
  bool open_ = true;
};

/// The descriptor shim. Forwards to `Core` and, while the recorder is
/// active, wraps each call in a span.
template <typename Core>
class TracedTx {
 public:
  static constexpr semstm::AlgoId kId = Core::kId;
  static constexpr const char* kName = Core::kName;

  TracedTx(Core& core, SpanRecorder& rec) noexcept
      : stats(core.stats), core_(core), rec_(rec) {}
  TracedTx(const TracedTx&) = delete;
  TracedTx& operator=(const TracedTx&) = delete;

  semstm::TxStats& stats;

  SpanRecorder& recorder() noexcept { return rec_; }
  const char* algorithm() const noexcept { return kName; }
  semstm::SerialGate* serial_gate() const noexcept {
    return core_.serial_gate();
  }
  const void* tx_id() const noexcept { return core_.tx_id(); }
  const semstm::obs::AbortInfo& last_abort() const noexcept {
    return core_.last_abort();
  }
  void clear_last_abort() noexcept { core_.clear_last_abort(); }
  semstm::obs::TraceRing* trace_ring() const noexcept {
    return core_.trace_ring();
  }
  semstm::obs::WindowSeries* metrics_series() const noexcept {
    return core_.metrics_series();
  }

  void begin() {
    if (!rec_.active()) return core_.begin();
    rec_.attempt_begin();
    ScopedSpan s(rec_, Layer::kBegin);
    core_.begin();
  }
  void commit() {
    if (!rec_.active()) return core_.commit();
    ScopedSpan s(rec_, Layer::kCommit);
    core_.commit();
    rec_.attempt_end(s.close(), true);
  }
  void rollback() {
    if (!rec_.active()) return core_.rollback();
    ScopedSpan s(rec_, Layer::kRollback);
    core_.rollback();
    rec_.attempt_end(s.close(), false);
  }

  semstm::word_t read(const semstm::tword* addr) {
    return traced(Layer::kRead, [&] { return core_.read(addr); });
  }
  void write(semstm::tword* addr, semstm::word_t value) {
    traced(Layer::kWrite, [&] { core_.write(addr, value); });
  }
  bool cmp(const semstm::tword* addr, semstm::Rel rel, semstm::word_t v) {
    return traced(Layer::kCmp, [&] { return core_.cmp(addr, rel, v); });
  }
  bool cmp2(const semstm::tword* a, semstm::Rel rel, const semstm::tword* b) {
    return traced(Layer::kCmp, [&] { return core_.cmp2(a, rel, b); });
  }
  bool cmp_or(const semstm::CmpTerm* terms, std::size_t n) {
    return traced(Layer::kCmp, [&] { return core_.cmp_or(terms, n); });
  }
  void inc(semstm::tword* addr, semstm::word_t delta) {
    traced(Layer::kInc, [&] { core_.inc(addr, delta); });
  }

 private:
  template <typename F>
  decltype(auto) traced(Layer l, F&& f) {
    if (!rec_.active()) return f();
    ScopedSpan s(rec_, l);
    return f();
  }

  Core& core_;
  SpanRecorder& rec_;
};

template <typename TxT>
inline constexpr bool kIsTraced = false;
template <typename Core>
inline constexpr bool kIsTraced<TracedTx<Core>> = true;

/// Wraps a container call in a span when `tx` is a traced descriptor.
template <typename TxT, typename F>
decltype(auto) container_call(TxT& tx, Layer l, F&& f) {
  if constexpr (kIsTraced<TxT>) {
    if (tx.recorder().active()) {
      ScopedSpan s(tx.recorder(), l);
      return f();
    }
  }
  return f();
}

}  // namespace perfbench
