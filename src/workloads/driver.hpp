// The experiment driver: runs a Workload under (algorithm × execution mode
// × thread count) and aggregates statistics — the engine behind every
// figure bench.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "core/stats.hpp"
#include "obs/conflict_map.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "util/rng.hpp"

namespace semstm {

/// A benchmark workload. setup() runs once (non-transactionally);
/// run_ops() is a logical thread's whole inner loop — `ops` outer
/// operations, usually one transaction each, on the descriptor bound to
/// the calling thread; verify() checks workload invariants after the run
/// (used by the integration tests). Workloads implement run_ops() by
/// deriving from MonoWorkload (workloads/mono.hpp).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Rng& rng) { (void)rng; }
  virtual void run_ops(unsigned tid, Rng& rng, std::uint64_t ops) = 0;
  virtual void verify() {}
};

enum class ExecMode : std::uint8_t {
  kSim,   ///< fiber-based virtual N-core scheduler (deterministic)
  kReal,  ///< real std::thread concurrency
};

/// Split `total` operations across `threads` with no remainder loss: the
/// first `total % threads` threads run one extra op, so the sum is exactly
/// `total` at every thread count (the fixed-total-work invariant the
/// completion-time figures compare across the sweep). Exits loudly when
/// total < threads — some threads would run zero ops and the "completion
/// time of the same work" comparison would be silently meaningless.
inline std::vector<std::uint64_t> split_total_ops(std::uint64_t total,
                                                  unsigned threads) {
  if (threads == 0 || total < threads) {
    std::fprintf(stderr,
                 "error: fixed total work of %llu ops cannot be split over "
                 "%u threads (need at least one op per thread)\n",
                 static_cast<unsigned long long>(total), threads);
    std::exit(2);
  }
  std::vector<std::uint64_t> per(threads, total / threads);
  for (std::uint64_t t = 0; t < total % threads; ++t) ++per[t];
  return per;
}

struct RunConfig {
  std::string algo = "norec";
  unsigned threads = 4;
  ExecMode mode = ExecMode::kSim;
  std::uint64_t ops_per_thread = 1000;
  /// When non-empty (size must equal `threads`), overrides ops_per_thread
  /// with an explicit per-thread op count — the fixed-total-work path
  /// (split_total_ops) uses this to distribute the division remainder.
  std::vector<std::uint64_t> ops_by_thread;
  std::uint64_t seed = 0xC0FFEE;
  AlgoOptions algo_opts{};
  /// Simulator scheduling slack (see sched::SimOptions::quantum).
  std::uint64_t sim_quantum = 0;
  /// Optional trace sink (src/obs). When non-null the driver sizes one
  /// SPSC ring per thread and binds it to that thread's descriptor, so the
  /// retry loop streams begin/commit/abort/fallback/semantic-op events into
  /// it. The collector must outlive the run.
  ///
  /// Either sink makes the run *observed*: its descriptors also fill the
  /// latency histograms and conflict maps. Without a sink a run records
  /// only the TxStats counters, and binding one never changes a simulated
  /// run's schedule.
  obs::TraceCollector* trace = nullptr;
  /// Optional windowed-metrics sink (obs/metrics.hpp). When non-null the
  /// driver binds one WindowSeries per thread, the retry loop samples at
  /// every attempt end, and the driver flushes + merges at run end into
  /// RunResult::windows. Must outlive the run.
  obs::MetricsCollector* metrics = nullptr;
};

struct RunResult {
  TxStats stats;                  ///< aggregated over all threads
  std::uint64_t makespan = 0;     ///< virtual ticks (sim mode)
  double wall_seconds = 0.0;      ///< wall time (both modes)
  /// Committed transactions per unit of parallel time: per mega-tick in
  /// sim mode, per second in real mode.
  double throughput = 0.0;
  double abort_pct = 0.0;
  /// Time base of makespan, trace timestamps and metrics windows:
  /// "ticks" (sim mode, virtual scheduler) or "ns" (real threads).
  const char* units = "ticks";
  /// Contention cartography (observed runs only; empty otherwise).
  /// hot_sites is the run-level top-kHotSites merge of every descriptor's
  /// ConflictMap; conflict_overflow counts sites dropped by full tables
  /// (ranking is a lower bound when non-zero). windows is filled only
  /// when cfg.metrics was set.
  std::vector<obs::ConflictMap::Site> hot_sites;
  std::uint64_t conflict_overflow = 0;
  std::vector<obs::WindowRow> windows;
};

/// Ranking depth of RunResult::hot_sites.
inline constexpr std::size_t kHotSites = 10;

/// Execute `workload` under `cfg`. setup() is called before threads start.
RunResult run_workload(const RunConfig& cfg, Workload& workload);

}  // namespace semstm
