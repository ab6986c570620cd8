// Fixed-total-work splitting (PR 3). figure_common's fixed_total_work mode
// used to compute ops/threads with integer division, silently losing the
// remainder — a 100k-op "completion time" sweep ran 99,996 ops at 7
// threads. split_total_ops distributes the remainder so the sum is exact
// at every thread count, and run_workload honours the per-thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "workloads/mono.hpp"

namespace semstm {
namespace {

TEST(SplitTotalOps, EvenSplitGivesEqualShares) {
  const auto per = split_total_ops(100, 4);
  ASSERT_EQ(per.size(), 4u);
  for (const auto p : per) EXPECT_EQ(p, 25u);
}

TEST(SplitTotalOps, RemainderGoesToLeadingThreads) {
  const auto per = split_total_ops(10, 3);
  ASSERT_EQ(per.size(), 3u);
  EXPECT_EQ(per[0], 4u);
  EXPECT_EQ(per[1], 3u);
  EXPECT_EQ(per[2], 3u);
}

TEST(SplitTotalOps, SumIsExactAcrossThreadSweep) {
  // The invariant the completion-time figures rely on: the same total at
  // every point of the sweep, including counts that do not divide evenly.
  const std::uint64_t total = 100000;
  for (unsigned threads : {1u, 2u, 3u, 5u, 6u, 7u, 8u, 12u, 16u, 31u}) {
    const auto per = split_total_ops(total, threads);
    ASSERT_EQ(per.size(), threads);
    const std::uint64_t sum =
        std::accumulate(per.begin(), per.end(), std::uint64_t{0});
    EXPECT_EQ(sum, total) << "threads=" << threads;
    // Fair split: shares differ by at most one op.
    EXPECT_LE(per.front() - per.back(), 1u) << "threads=" << threads;
  }
}

TEST(SplitTotalOpsDeath, RejectsMoreThreadsThanOps) {
  EXPECT_EXIT(split_total_ops(3, 8), ::testing::ExitedWithCode(2),
              "cannot be split over");
}

TEST(SplitTotalOpsDeath, RejectsZeroThreads) {
  EXPECT_EXIT(split_total_ops(100, 0), ::testing::ExitedWithCode(2),
              "cannot be split over");
}

/// Counts op_t() invocations per thread — the ground truth for what the
/// driver actually executed.
class CountingWorkload final : public MonoWorkload<CountingWorkload> {
 public:
  explicit CountingWorkload(unsigned threads) : per_thread_(threads) {
    for (auto& c : per_thread_) c.store(0);
  }

  template <typename TxT>
  void op_t(unsigned tid, Rng& rng) {
    (void)rng;
    per_thread_[tid].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t total() const {
    std::uint64_t s = 0;
    for (const auto& c : per_thread_) s += c.load();
    return s;
  }

  std::uint64_t at(unsigned tid) const { return per_thread_[tid].load(); }

 private:
  std::vector<std::atomic<std::uint64_t>> per_thread_;
};

TEST(FixedTotalWork, DriverExecutesExactlyTotalOpsAtEveryThreadCount) {
  const std::uint64_t total = 1001;  // prime-ish: nonzero remainder mostly
  for (unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
    CountingWorkload wl(threads);
    RunConfig cfg;
    cfg.algo = "norec";
    cfg.threads = threads;
    cfg.mode = ExecMode::kSim;
    cfg.ops_by_thread = split_total_ops(total, threads);
    run_workload(cfg, wl);
    EXPECT_EQ(wl.total(), total) << "threads=" << threads;
    for (unsigned t = 0; t + 1 < threads; ++t) {
      EXPECT_GE(wl.at(t), wl.at(t + 1)) << "threads=" << threads;
    }
  }
}

TEST(FixedTotalWork, UniformPathStillUsesOpsPerThread) {
  CountingWorkload wl(3);
  RunConfig cfg;
  cfg.algo = "norec";
  cfg.threads = 3;
  cfg.mode = ExecMode::kSim;
  cfg.ops_per_thread = 50;  // ops_by_thread left empty: uniform path
  run_workload(cfg, wl);
  EXPECT_EQ(wl.total(), 150u);
  for (unsigned t = 0; t < 3; ++t) EXPECT_EQ(wl.at(t), 50u);
}

TEST(FixedTotalWorkDeath, MismatchedPerThreadVectorFailsLoudly) {
  CountingWorkload wl(4);
  RunConfig cfg;
  cfg.algo = "norec";
  cfg.threads = 4;
  cfg.mode = ExecMode::kSim;
  cfg.ops_by_thread = {10, 10};  // wrong size for 4 threads
  EXPECT_EXIT(run_workload(cfg, wl), ::testing::ExitedWithCode(2),
              "ops_by_thread");
}

}  // namespace
}  // namespace semstm
