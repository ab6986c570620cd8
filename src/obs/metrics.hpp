// Windowed time-series metrics: TxStats deltas per fixed-width time window.
//
// Run-end aggregates average away exactly the phenomena the ROADMAP's next
// workloads create — bursty arrivals, livelock phases, hot-key storms. The
// window sampler slices a run into fixed-width windows of the obs clock
// (virtual ticks under the simulator, nanoseconds under real threads) and
// records, per window, the *delta* of the thread's full TxStats block:
// throughput, abort rate, cause mix and latency histograms, each
// attributable to a slice of the run instead of its average.
//
// Sampling discipline: each descriptor owns one WindowSeries (bound by the
// driver, like its TraceRing). The retry loop calls sample() at every
// attempt end; crossing a window boundary closes the previous window by
// subtracting the last snapshot from the current totals (TxStats::operator-=,
// see stats.hpp for the delta contract on max/min fields). Costs one
// division and a compare per attempt of a descriptor with a bound series;
// descriptors without one never sample. An attempt's whole delta lands in
// the window containing its *end*; windows therefore partition the run
// exactly: summing every window delta (operator+=) reproduces the thread's
// final TxStats field-for-field — the invariant tests/test_metrics.cpp
// proves and DESIGN.md §4.15 documents.
//
// Window indices are absolute (now / width), so per-thread series merge by
// index without any cross-thread clock agreement beyond the shared obs
// clock itself.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "obs/conflict_map.hpp"

namespace semstm::obs {

/// One closed window of one thread: the TxStats delta accumulated while
/// the obs clock was inside [window*width, (window+1)*width).
struct WindowSample {
  std::uint64_t window = 0;  ///< absolute index: end-time / width
  TxStats delta;
};

class WindowSeries {
 public:
  explicit WindowSeries(std::uint64_t width_ticks)
      : width_(width_ticks == 0 ? 1 : width_ticks) {}

  std::uint64_t width() const noexcept { return width_; }

  /// Attempt-end hook. `cur` is the descriptor's cumulative TxStats at time
  /// `now`; the first call anchors the series, later calls close windows
  /// as boundaries are crossed. Cheap when no boundary was crossed.
  void sample(std::uint64_t now, const TxStats& cur) {
    const std::uint64_t w = now / width_;
    if (!open_) {
      cur_window_ = w;
      open_ = true;
      return;
    }
    if (w == cur_window_) return;
    close_window(cur);
    cur_window_ = w;
  }

  /// Run-end hook: close the final (partial) window so the samples
  /// partition the whole run. Idempotent on an unchanged `cur`, and a
  /// no-op on a series that never anchored — a thread that ended no
  /// attempt never sampled, so the driver's run-end flush must not
  /// fabricate a whole-run window out of its final totals.
  void flush(const TxStats& cur) {
    if (open_) close_window(cur);
  }

  const std::vector<WindowSample>& samples() const noexcept {
    return samples_;
  }

 private:
  /// Push cur - snapshot_ as cur_window_'s delta; empty deltas (no attempt
  /// ended in the window) are skipped — absent windows read as zero.
  void close_window(const TxStats& cur) {
    TxStats d = cur;
    d -= snapshot_;
    if (d.starts == 0 && d.commits == 0 && d.aborts == 0 &&
        d.exceptions == 0) {
      return;
    }
    samples_.push_back(WindowSample{cur_window_, d});
    snapshot_ = cur;
  }

  std::uint64_t width_;
  std::uint64_t cur_window_ = 0;
  bool open_ = false;
  TxStats snapshot_;
  std::vector<WindowSample> samples_;
};

/// One merged window of a whole run: per-thread deltas summed by index.
struct WindowRow {
  std::uint64_t window = 0;
  std::uint64_t t0 = 0;  ///< window start, obs clock units
  std::uint64_t t1 = 0;  ///< window end (exclusive)
  TxStats stats;
};

/// Owns one WindowSeries per logical thread of a run — the driver binds
/// series(t) to thread t's descriptor, mirroring TraceCollector. The
/// collector must outlive the run.
class MetricsCollector {
 public:
  /// Default width: 2^14 clock units — a few dozen windows for the stock
  /// fig1 sweeps, which all use it.
  explicit MetricsCollector(std::uint64_t window_ticks = std::uint64_t{1}
                                                        << 14)
      : width_(window_ticks == 0 ? 1 : window_ticks) {}

  void prepare(unsigned threads) {
    while (series_.size() < threads) series_.emplace_back(width_);
  }

  WindowSeries& series(unsigned tid) {
    prepare(tid + 1);
    return series_[tid];
  }

  unsigned threads() const noexcept {
    return static_cast<unsigned>(series_.size());
  }

  std::uint64_t width() const noexcept { return width_; }

  /// Merge every thread's samples into run-level rows, ordered by window
  /// index. Threads must be quiescent (run finished and flushed).
  std::vector<WindowRow> merged() const;

 private:
  std::uint64_t width_;
  std::vector<WindowSeries> series_;
};

/// JSON-lines metrics writer (the --metrics-out sink): one self-describing
/// object per line so downstream tooling can stream-parse. Three line
/// types, discriminated by "type":
///
///   {"type":"run", "label":..., "units":"ticks"|"ns", "window_ticks":...,
///    "threads":..., "windows":..., "hot_sites":..., "conflict_overflow":...}
///   {"type":"window", "run":..., "window":..., "t0":..., "t1":...,
///    "starts":..., "commits":..., "aborts":..., "abort_pct":...,
///    "throughput":...,        // commits per mega-unit of the run's clock
///    "causes":{...nonzero only...}, "commit_p50":..., "commit_p99":...}
///   {"type":"hot_site", "run":..., "rank":..., "addr":"0x...", "orec":...,
///    "total":..., "edges":..., "top_cause":..., "causes":{...}}
///
/// examples/tm_top.cpp renders this format; scripts/ci_obs_smoke.sh
/// validates it.
class MetricsWriter {
 public:
  explicit MetricsWriter(const std::string& path);
  ~MetricsWriter();
  MetricsWriter(const MetricsWriter&) = delete;
  MetricsWriter& operator=(const MetricsWriter&) = delete;

  bool ok() const noexcept { return f_ != nullptr; }

  void add_run(const std::string& label, const char* units,
               std::uint64_t window_ticks, unsigned threads,
               const std::vector<WindowRow>& rows,
               const std::vector<ConflictMap::Site>& hot_sites,
               std::uint64_t conflict_overflow);

  /// Flush and close; returns false if any write failed.
  bool close();

 private:
  std::FILE* f_ = nullptr;
  bool error_ = false;
};

}  // namespace semstm::obs
