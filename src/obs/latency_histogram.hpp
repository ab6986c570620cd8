// Power-of-two-bucket latency histogram.
//
// Designed for the transaction hot path of an observed run: record() is a
// bit_width, one array increment and four scalar updates — no floating
// point, no allocation, no locks (each histogram is written by exactly one
// thread; aggregation happens after the run via operator+=, the same
// single-writer-then-merge discipline as TxStats itself).
//
// Bucket i >= 1 covers durations in [2^(i-1), 2^i - 1]; bucket 0 holds
// exact zeros. Quantiles are therefore approximate: percentile() returns
// the upper bound of the bucket containing the requested rank (clamped to
// the observed maximum), i.e. an at-most-2x overestimate — the right
// trade for "did p99 commit latency move between algorithms" questions.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "obs/clock.hpp"

namespace semstm::obs {

struct LatencyHistogram {
  /// 0, plus one bucket per possible bit_width of a uint64_t duration.
  static constexpr std::size_t kBuckets = 65;

  std::uint64_t buckets[kBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< meaningful only when count > 0
  std::uint64_t max = 0;

  static constexpr std::size_t bucket_of(std::uint64_t dt) noexcept {
    return static_cast<std::size_t>(std::bit_width(dt));  // 0 for dt == 0
  }

  /// Inclusive upper bound of bucket `i` (the quantile representative).
  static constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  void record(std::uint64_t dt) noexcept {
    ++buckets[bucket_of(dt)];
    if (count == 0 || dt < min) min = dt;
    if (dt > max) max = dt;
    ++count;
    sum += dt;
  }

  bool empty() const noexcept { return count == 0; }

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Approximate p-th percentile (p in [0, 100]): the upper bound of the
  /// bucket holding the ceil(p% * count)-th smallest sample, clamped to
  /// the observed max. Returns 0 on an empty histogram.
  std::uint64_t percentile(double p) const noexcept {
    if (count == 0) return 0;
    if (p <= 0.0) return min;
    const double target_f = p / 100.0 * static_cast<double>(count);
    std::uint64_t target = static_cast<std::uint64_t>(target_f);
    if (static_cast<double>(target) < target_f) ++target;  // ceil
    if (target == 0) target = 1;
    if (target > count) target = count;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets[i];
      if (seen >= target) {
        const std::uint64_t upper = bucket_upper(i);
        return upper < max ? upper : max;
      }
    }
    return max;  // unreachable: seen == count after the loop
  }

  LatencyHistogram& operator+=(const LatencyHistogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
    if (o.count > 0) {
      if (count == 0 || o.min < min) min = o.min;
      if (o.max > max) max = o.max;
    }
    count += o.count;
    sum += o.sum;
    return *this;
  }

  /// Windowed-delta subtraction (obs/metrics.hpp): `o` must be an earlier
  /// snapshot of *this* histogram, i.e. per-bucket counts of `o` never
  /// exceed ours. Buckets/count/sum subtract exactly; min/max keep the
  /// minuend's running values (a snapshot cannot un-observe an extreme).
  /// Because min/max only ever tighten monotonically over a single
  /// writer's life, re-summing all window deltas with operator+= still
  /// reproduces the final histogram field-for-field — the last delta
  /// carries the final min/max and += merges by min/max.
  LatencyHistogram& operator-=(const LatencyHistogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] -= o.buckets[i];
    count -= o.count;
    sum -= o.sum;
    if (count == 0) {
      min = 0;
      max = 0;
    }
    return *this;
  }
};

/// Scope timer for a histogram: records on destruction, including during
/// exception unwinding — which is exactly what a validation pass that ends
/// in abort_tx() needs. A null histogram (an unobserved descriptor, see
/// TxCoreBase::latency_sink) records nothing: one predictable branch at
/// each end of the scope, with the clock reads kept out of line.
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram* h) noexcept : hist_(h) {
    if (hist_ != nullptr) [[unlikely]] start();
  }
  ~ScopedLatency() {
    if (hist_ != nullptr) [[unlikely]] stop();
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  [[gnu::cold, gnu::noinline]] void start() noexcept { t0_ = now_ticks(); }
  [[gnu::cold, gnu::noinline]] void stop() noexcept {
    hist_->record(now_ticks() - t0_);
  }

  LatencyHistogram* const hist_;
  std::uint64_t t0_ = 0;
};

}  // namespace semstm::obs
