// Concurrent stress tests: every algorithm must preserve workload
// invariants under genuine contention, both on the deterministic virtual
// scheduler and on real OS threads.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "containers/topen_hashtable.hpp"
#include "semstm.hpp"
#include "workloads/mono.hpp"

namespace semstm {
namespace {

using Param = std::tuple<std::string, ExecMode>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return std::get<0>(info.param) +
         (std::get<1>(info.param) == ExecMode::kSim ? "_sim" : "_real");
}

class Stress : public ::testing::TestWithParam<Param> {
 protected:
  RunConfig config(unsigned threads, std::uint64_t ops) const {
    RunConfig cfg;
    cfg.algo = std::get<0>(GetParam());
    cfg.mode = std::get<1>(GetParam());
    cfg.threads = threads;
    cfg.ops_per_thread = ops;
    cfg.seed = 0xDEADBEEF;
    return cfg;
  }
};

/// N threads increment one shared counter: the classic lost-update test.
class CounterWorkload final : public MonoWorkload<CounterWorkload> {
 public:
  template <typename TxT>
  void op_t(unsigned, Rng&) {
    atomically<TxT>([&](TxT& tx) { counter.add(tx, 1); });
  }
  TVar<long> counter{0};
};

TEST_P(Stress, SharedCounterLosesNoUpdates) {
  CounterWorkload w;
  const auto cfg = config(4, 500);
  const RunResult r = run_workload(cfg, w);
  EXPECT_EQ(w.counter.unsafe_get(), 4 * 500);
  EXPECT_EQ(r.stats.commits, 4u * 500u);
}

/// Bank transfers with overdraft checks: total money is conserved and no
/// account may go negative (the overdraft check uses the semantic gte).
class BankWorkload final : public MonoWorkload<BankWorkload> {
 public:
  static constexpr int kAccounts = 32;
  static constexpr long kInitial = 1000;

  BankWorkload() {
    for (auto& a : accounts_) a = std::make_unique<TVar<long>>(kInitial);
  }

  template <typename TxT>
  void op_t(unsigned, Rng& rng) {
    const auto src = static_cast<std::size_t>(rng.below(kAccounts));
    const auto dst = static_cast<std::size_t>(rng.below(kAccounts));
    if (src == dst) return;
    const long amount = rng.between(1, 100);
    atomically<TxT>([&](TxT& tx) {
      if (accounts_[src]->gte(tx, amount)) {
        accounts_[src]->sub(tx, amount);
        accounts_[dst]->add(tx, amount);
      }
    });
  }

  void verify() override {
    long total = 0;
    for (const auto& a : accounts_) {
      const long balance = a->unsafe_get();
      EXPECT_GE(balance, 0) << "overdraft happened";
      total += balance;
    }
    EXPECT_EQ(total, kAccounts * kInitial) << "money not conserved";
  }

 private:
  std::unique_ptr<TVar<long>> accounts_[kAccounts];
};

TEST_P(Stress, BankConservesMoney) {
  BankWorkload w;
  run_workload(config(6, 400), w);
  w.verify();
}

/// Read-mostly snapshot consistency: writers keep x + y == 0; readers must
/// never observe a violated invariant inside a transaction.
class SnapshotWorkload final : public MonoWorkload<SnapshotWorkload> {
 public:
  template <typename TxT>
  void op_t(unsigned tid, Rng& rng) {
    if (tid == 0) {  // writer
      const long d = rng.between(1, 9);
      atomically<TxT>([&](TxT& tx) {
        x.add(tx, d);
        y.sub(tx, d);
      });
    } else {  // readers
      const long sum = atomically<TxT>(
          [&](TxT& tx) { return x.get(tx) + y.get(tx); });
      EXPECT_EQ(sum, 0) << "reader observed a torn snapshot";
    }
  }
  TVar<long> x{0}, y{0};
};

TEST_P(Stress, ReadersSeeConsistentSnapshots) {
  SnapshotWorkload w;
  run_workload(config(4, 600), w);
  EXPECT_EQ(w.x.unsafe_get() + w.y.unsafe_get(), 0);
}

/// Mixed semantic/non-semantic access to the same variables (§4.1's
/// interaction cases) under contention.
class MixedWorkload final : public MonoWorkload<MixedWorkload> {
 public:
  template <typename TxT>
  void op_t(unsigned, Rng& rng) {
    switch (rng.below(4)) {
      case 0:  // semantic conditional + inc
        atomically<TxT>([&](TxT& tx) {
          if (v.gt(tx, 0)) v.sub(tx, 1);
        });
        break;
      case 1:  // plain read-modify-write
        atomically<TxT>([&](TxT& tx) { v.set(tx, v.get(tx) + 2); });
        break;
      case 2:  // inc then read (forces promotion in semantic algorithms)
        atomically<TxT>([&](TxT& tx) {
          v.add(tx, 1);
          (void)v.get(tx);
        });
        break;
      default:  // read-only
        (void)atomically<TxT>([&](TxT& tx) { return v.get(tx); });
        break;
    }
  }
  TVar<long> v{100};
};

TEST_P(Stress, MixedSemanticAndPlainOpsStayAtomic) {
  MixedWorkload w;
  const RunResult r = run_workload(config(4, 500), w);
  // Every committed op moved v by a whole-op amount; the exact value is
  // schedule-dependent but v >= 0 must hold (decrements are guarded).
  EXPECT_GE(w.v.unsafe_get(), 0);
  EXPECT_EQ(r.stats.commits, 4u * 500u);
}

/// The core/stats.hpp contract: every abort is attributed to exactly one
/// cause, and attempts partition into commits/aborts/exceptions.
void expect_stats_contract(const TxStats& s) {
  std::uint64_t cause_sum = 0;
  for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
    cause_sum += s.abort_causes[c];
  }
  EXPECT_EQ(s.aborts, cause_sum);
  EXPECT_EQ(s.starts, s.commits + s.aborts + s.exceptions);
}

TEST_P(Stress, AbortAccountingPartitionsExactly) {
  // The contract must hold under genuine races too, not just on the
  // deterministic simulator — no event may be dropped or double-counted
  // when the counters race through real-thread commit paths.
  BankWorkload w;
  const RunResult r = run_workload(config(6, 400), w);
  expect_stats_contract(r.stats);
  w.verify();
}

/// Insert/remove/contains churn on a small table aged by 4000 mutations,
/// so tombstones lengthen the probe chains that concurrent inserts and
/// removes keep rewriting. Each thread sums the size changes of its
/// *committed* transactions (a retried body starts again from 0).
class HashtableChurnWorkload final
    : public MonoWorkload<HashtableChurnWorkload> {
 public:
  static constexpr std::size_t kCapacity = 64;
  static constexpr std::uint64_t kKeySpace = 48;
  static constexpr unsigned kOpsPerTx = 10;

  HashtableChurnWorkload(unsigned threads, TOpenHashTable::ProbeMode mode)
      : table_(kCapacity, mode), net_(threads, 0) {}

  void setup(Rng& rng) override {
    auto algo = make_algorithm("cgl");
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    for (int i = 0; i < 4000; ++i) {
      const auto key = static_cast<std::int64_t>(rng.below(kKeySpace));
      atomically([&](auto& tx) {
        if (i % 3 == 2) {
          (void)table_.remove(tx, key);
        } else {
          (void)table_.insert(tx, key);
        }
      });
    }
    prefill_ = table_.unsafe_size();
  }

  template <typename TxT>
  void op_t(unsigned tid, Rng& rng) {
    std::int64_t keys[kOpsPerTx];
    std::uint64_t kinds[kOpsPerTx];
    for (unsigned i = 0; i < kOpsPerTx; ++i) {
      keys[i] = static_cast<std::int64_t>(rng.below(kKeySpace));
      kinds[i] = rng.below(3);  // insert, remove, contains
    }
    std::int64_t delta = 0;
    atomically<TxT>([&](TxT& tx) {
      delta = 0;
      for (unsigned i = 0; i < kOpsPerTx; ++i) {
        if (kinds[i] == 0) {
          delta += table_.insert(tx, keys[i]) ? 1 : 0;
        } else if (kinds[i] == 1) {
          delta -= table_.remove(tx, keys[i]) ? 1 : 0;
        } else {
          (void)table_.contains(tx, keys[i]);
        }
      }
    });
    net_[tid] += delta;
  }

  void verify() override {
    const std::int64_t net = std::accumulate(net_.begin(), net_.end(),
                                             std::int64_t{0});
    EXPECT_EQ(static_cast<std::int64_t>(table_.unsafe_size()),
              static_cast<std::int64_t>(prefill_) + net)
        << "committed inserts/removes do not account for the table size";
  }

 private:
  // Clause or stable probes: cmp_or (and the stable FREE check) for the
  // semantic cores, plain reads for the rest.
  TOpenHashTable table_;
  std::size_t prefill_ = 0;
  std::vector<std::int64_t> net_;  ///< per thread, written by its owner
};

TEST_P(Stress, HashtableChurnConservesSize) {
  // Real threads need enough transactions to overlap past thread start-up.
  const std::uint64_t ops =
      std::get<1>(GetParam()) == ExecMode::kSim ? 300 : 4000;
  // Algorithm 2's clause probe, then the stable-compare probe.
  for (const auto mode : {TOpenHashTable::ProbeMode::kClause,
                          TOpenHashTable::ProbeMode::kStable}) {
    SCOPED_TRACE(static_cast<int>(mode));
    HashtableChurnWorkload w(4, mode);
    const RunResult r = run_workload(config(4, ops), w);
    EXPECT_EQ(r.stats.commits, 4 * ops);
    expect_stats_contract(r.stats);
    w.verify();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsByMode, Stress,
    ::testing::Combine(::testing::Values("cgl", "norec", "snorec", "tl2",
                                         "stl2"),
                       ::testing::Values(ExecMode::kSim, ExecMode::kReal)),
    param_name);

// ---------------------------------------------------------------------------
// Simulator-only determinism and contention sanity.
// ---------------------------------------------------------------------------

/// A hot counter through plain read + write.
class HotCounter final : public MonoWorkload<HotCounter> {
 public:
  template <typename TxT>
  void op_t(unsigned, Rng&) {
    atomically<TxT>([&](TxT& tx) { v.set(tx, v.get(tx) + 1); });
  }
  TVar<long> v{0};
};

/// The same counter through the semantic increment.
class IncCounter final : public MonoWorkload<IncCounter> {
 public:
  template <typename TxT>
  void op_t(unsigned, Rng&) {
    atomically<TxT>([&](TxT& tx) { v.add(tx, 1); });
  }
  TVar<long> v{0};
};

TEST(StressSim, OptimisticAlgorithmsAbortUnderContention) {
  // Sanity check that the simulator actually produces conflicts: a hot
  // counter via plain read+write must abort sometimes under NOrec.
  HotCounter w;
  RunConfig cfg;
  cfg.algo = "norec";
  cfg.mode = ExecMode::kSim;
  cfg.threads = 8;
  cfg.ops_per_thread = 300;
  const RunResult r = run_workload(cfg, w);
  EXPECT_GT(r.stats.aborts, 0u) << "simulator produced no conflicts";
  EXPECT_EQ(w.v.unsafe_get(), 8 * 300);
}

TEST(StressSim, SemanticIncrementEliminatesCounterAborts) {
  // The headline mechanism: with TM_INC the hot counter has no read-set at
  // all, so S-NOrec commits every attempt first time.
  IncCounter w;
  RunConfig cfg;
  cfg.algo = "snorec";
  cfg.mode = ExecMode::kSim;
  cfg.threads = 8;
  cfg.ops_per_thread = 300;
  const RunResult r = run_workload(cfg, w);
  EXPECT_EQ(r.stats.aborts, 0u);
  EXPECT_EQ(w.v.unsafe_get(), 8 * 300);
}

TEST(StressSim, RunsAreDeterministic) {
  auto once = [] {
    BankWorkload w;
    RunConfig cfg;
    cfg.algo = "stl2";
    cfg.mode = ExecMode::kSim;
    cfg.threads = 5;
    cfg.ops_per_thread = 200;
    cfg.seed = 77;
    const RunResult r = run_workload(cfg, w);
    return std::make_tuple(r.makespan, r.stats.commits, r.stats.aborts);
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
}  // namespace semstm
