// Transactional container tests: sequential behaviour against std::
// oracles, structural invariants, and concurrent stress on the simulator.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "containers/tlru.hpp"
#include "containers/topen_hashtable.hpp"
#include "containers/tqueue.hpp"
#include "containers/trbtree.hpp"
#include "semstm.hpp"
#include "workloads/mono.hpp"

namespace semstm {
namespace {

// Param: (algorithm, container-in-semantic-mode)
using Param = std::tuple<std::string, bool>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return std::get<0>(info.param) +
         (std::get<1>(info.param) ? "_semantic" : "_base");
}

/// The hashtable probes a test covers: plain reads in base mode;
/// Algorithm 2's clause probe and the stable-compare probe in semantic
/// mode.
std::vector<TOpenHashTable::ProbeMode> probe_modes(bool semantic) {
  using Mode = TOpenHashTable::ProbeMode;
  if (!semantic) return {Mode::kBase};
  return {Mode::kClause, Mode::kStable};
}

class Containers : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    algo_ = make_algorithm(std::get<0>(GetParam()));
    ctx_ = std::make_unique<ThreadCtx>(algo_->make_tx());
    binder_ = std::make_unique<CtxBinder>(*ctx_);
    semantic_ = std::get<1>(GetParam());
  }

  bool semantic_ = false;
  std::unique_ptr<Algorithm> algo_;
  std::unique_ptr<ThreadCtx> ctx_;
  std::unique_ptr<CtxBinder> binder_;
};

// ---------------------------------------------------------------------------
// Open-addressing hashtable (Algorithm 2)
// ---------------------------------------------------------------------------

TEST_P(Containers, HashtableInsertContainsRemove) {
  for (const auto mode : probe_modes(semantic_)) {
    SCOPED_TRACE(static_cast<int>(mode));
    TOpenHashTable ht(256, mode);
    atomically([&](auto& tx) {
      EXPECT_FALSE(ht.contains(tx, 5));
      EXPECT_TRUE(ht.insert(tx, 5));
      EXPECT_TRUE(ht.contains(tx, 5));
      EXPECT_FALSE(ht.insert(tx, 5));  // duplicate
      EXPECT_TRUE(ht.remove(tx, 5));
      EXPECT_FALSE(ht.contains(tx, 5));
      EXPECT_FALSE(ht.remove(tx, 5));  // already gone
    });
  }
}

TEST_P(Containers, HashtableMatchesSetOracle) {
  for (const auto mode : probe_modes(semantic_)) {
    SCOPED_TRACE(static_cast<int>(mode));
    TOpenHashTable ht(1024, mode);
    std::set<std::int64_t> oracle;
    Rng rng(123);
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t key = rng.between(0, 500);
      const auto action = rng.below(3);
      atomically([&](auto& tx) {
        switch (action) {
          case 0:
            EXPECT_EQ(ht.insert(tx, key), oracle.insert(key).second);
            break;
          case 1:
            EXPECT_EQ(ht.remove(tx, key), oracle.erase(key) > 0);
            break;
          default:
            EXPECT_EQ(ht.contains(tx, key), oracle.count(key) > 0);
            break;
        }
      });
    }
    EXPECT_EQ(ht.unsafe_size(), oracle.size());
  }
}

TEST_P(Containers, HashtablePerOperatorProbeMatchesOracle) {
  // The ablation's middle configuration: every probe comparison is an
  // independent semantic cmp (no cmp_or clause). Functionally it must be
  // indistinguishable from the other modes.
  TOpenHashTable ht(512, TOpenHashTable::ProbeMode::kPerOperator);
  std::set<std::int64_t> oracle;
  Rng rng(31337);
  for (int i = 0; i < 1200; ++i) {
    const std::int64_t key = rng.between(0, 300);
    atomically([&](auto& tx) {
      switch (rng.below(3)) {
        case 0: EXPECT_EQ(ht.insert(tx, key), oracle.insert(key).second); break;
        case 1: EXPECT_EQ(ht.remove(tx, key), oracle.erase(key) > 0); break;
        default: EXPECT_EQ(ht.contains(tx, key), oracle.count(key) > 0); break;
      }
    });
  }
  EXPECT_EQ(ht.unsafe_size(), oracle.size());
}

TEST_P(Containers, HashtableReusesTombstones) {
  for (const auto mode : probe_modes(semantic_)) {
    SCOPED_TRACE(static_cast<int>(mode));
    TOpenHashTable ht(16, mode);
    atomically([&](auto& tx) {
      for (int k = 0; k < 10; ++k) EXPECT_TRUE(ht.insert(tx, k));
      for (int k = 0; k < 10; ++k) EXPECT_TRUE(ht.remove(tx, k));
      for (int k = 10; k < 20; ++k) EXPECT_TRUE(ht.insert(tx, k));
      for (int k = 10; k < 20; ++k) EXPECT_TRUE(ht.contains(tx, k));
    });
    EXPECT_EQ(ht.unsafe_size(), 10u);
  }
}

// ---------------------------------------------------------------------------
// Bounded queue (Algorithm 3)
// ---------------------------------------------------------------------------

TEST_P(Containers, QueueFifoOrder) {
  TQueue q(8, semantic_);
  std::deque<std::int64_t> oracle;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    if (rng.percent(55)) {
      const std::int64_t v = rng.between(0, 1 << 20);
      const bool ok = atomically([&](auto& tx) { return q.enqueue(tx, v); });
      if (oracle.size() < 8) {
        EXPECT_TRUE(ok);
        oracle.push_back(v);
      } else {
        EXPECT_FALSE(ok) << "enqueue into a full queue must fail";
      }
    } else {
      const auto got =
          atomically([&](auto& tx) { return q.dequeue(tx); });
      if (oracle.empty()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, oracle.front());
        oracle.pop_front();
      }
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(q.unsafe_size()), oracle.size());
}

TEST_P(Containers, QueueWrapsAround) {
  TQueue q(4, semantic_);
  for (std::int64_t round = 0; round < 10; ++round) {
    atomically([&](auto& tx) {
      EXPECT_TRUE(q.enqueue(tx, round * 2));
      EXPECT_TRUE(q.enqueue(tx, round * 2 + 1));
    });
    atomically([&](auto& tx) {
      EXPECT_EQ(q.dequeue(tx), std::optional<std::int64_t>(round * 2));
      EXPECT_EQ(q.dequeue(tx), std::optional<std::int64_t>(round * 2 + 1));
      EXPECT_TRUE(q.empty(tx));
    });
  }
}

// ---------------------------------------------------------------------------
// Red-black tree map
// ---------------------------------------------------------------------------

TEST_P(Containers, RbTreeMatchesMapOracle) {
  TRbMap tree(8192, semantic_);
  std::map<std::int64_t, std::int64_t> oracle;
  Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    const std::int64_t key = rng.between(0, 800);
    const std::int64_t val = rng.between(0, 1 << 30);
    switch (rng.below(4)) {
      case 0:
        atomically([&](auto& tx) {
          EXPECT_EQ(tree.insert(tx, key, val), oracle.emplace(key, val).second);
        });
        break;
      case 1:
        atomically([&](auto& tx) {
          EXPECT_EQ(tree.erase(tx, key), oracle.erase(key) > 0);
        });
        break;
      case 2:
        atomically([&](auto& tx) {
          const bool present = oracle.count(key) > 0;
          EXPECT_EQ(tree.update(tx, key, val), present);
          if (present) oracle[key] = val;
        });
        break;
      default:
        atomically([&](auto& tx) {
          auto got = tree.find(tx, key);
          auto it = oracle.find(key);
          if (it == oracle.end()) {
            EXPECT_FALSE(got.has_value());
          } else {
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, it->second);
          }
        });
        break;
    }
  }
  EXPECT_EQ(tree.unsafe_count(), oracle.size());
  EXPECT_GT(tree.unsafe_validate(), 0) << "red-black invariants violated";
}

TEST_P(Containers, RbTreeBalancesSequentialInserts) {
  // Sorted insertion is the worst case for an unbalanced BST; the RB
  // invariants bound the black height to O(log n).
  TRbMap tree(5000, semantic_);
  for (std::int64_t k = 0; k < 2048; ++k) {
    atomically([&](auto& tx) { EXPECT_TRUE(tree.insert(tx, k, k * 10)); });
  }
  EXPECT_EQ(tree.unsafe_count(), 2048u);
  const int bh = tree.unsafe_validate();
  ASSERT_GT(bh, 0);
  EXPECT_LE(bh, 12);  // 2*log2(2049) bound on black height
  atomically([&](auto& tx) {
    EXPECT_EQ(tree.find(tx, 1000), std::optional<std::int64_t>(10000));
  });
}

TEST_P(Containers, RbTreeFindSlotPinsRecord) {
  TRbMap tree(64, semantic_);
  atomically([&](auto& tx) { tree.insert(tx, 7, 100); });
  atomically([&](auto& tx) {
    TVar<std::int64_t>* slot = tree.find_slot(tx, 7);
    ASSERT_NE(slot, nullptr);
    if (semantic_) {
      EXPECT_TRUE(slot->gt(tx, 0));
      slot->sub(tx, 1);
    } else {
      slot->set(tx, slot->get(tx) - 1);
    }
  });
  atomically([&](auto& tx) {
    EXPECT_EQ(tree.find(tx, 7), std::optional<std::int64_t>(99));
    EXPECT_EQ(tree.find_slot(tx, 12345), nullptr);
  });
}

// ---------------------------------------------------------------------------
// LRU cache grid
// ---------------------------------------------------------------------------

TEST_P(Containers, LruHitAfterSet) {
  TLruCache cache(8, 4, semantic_);
  atomically([&](auto& tx) { cache.set(tx, 42, 4200); });
  const auto got = atomically([&](auto& tx) { return cache.lookup(tx, 42); });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 4200);
  EXPECT_FALSE(
      atomically([&](auto& tx) { return cache.lookup(tx, 43); }).has_value());
}

TEST_P(Containers, LruEvictsLeastFrequentlyUsed) {
  TLruCache cache(1, 3, semantic_);  // one line, three buckets
  atomically([&](auto& tx) {
    cache.set(tx, 1, 10);
    cache.set(tx, 2, 20);
    cache.set(tx, 3, 30);
  });
  // Heat up keys 1 and 3; key 2 stays cold.
  for (int i = 0; i < 5; ++i) {
    atomically([&](auto& tx) {
      (void)cache.lookup(tx, 1);
      (void)cache.lookup(tx, 3);
    });
  }
  atomically([&](auto& tx) { cache.set(tx, 9, 90); });  // must evict key 2
  atomically([&](auto& tx) {
    EXPECT_TRUE(cache.lookup(tx, 1).has_value());
    EXPECT_TRUE(cache.lookup(tx, 3).has_value());
    EXPECT_TRUE(cache.lookup(tx, 9).has_value());
    EXPECT_FALSE(cache.lookup(tx, 2).has_value());
  });
}

TEST_P(Containers, LruUpdateInPlace) {
  TLruCache cache(4, 4, semantic_);
  atomically([&](auto& tx) { cache.set(tx, 5, 1); });
  atomically([&](auto& tx) { cache.set(tx, 5, 2); });
  EXPECT_EQ(atomically([&](auto& tx) { return cache.lookup(tx, 5); }),
            std::optional<std::int64_t>(2));
  EXPECT_EQ(cache.unsafe_occupied(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsByMode, Containers,
    ::testing::Combine(::testing::Values("cgl", "norec", "snorec", "tl2",
                                         "stl2"),
                       ::testing::Bool()),
    param_name);

// ---------------------------------------------------------------------------
// Concurrent container stress (simulator; semantic containers on semantic
// algorithms, which is the paper's pairing).
// ---------------------------------------------------------------------------

bool semantic_algo(const std::string& algo) {
  return algo == "snorec" || algo == "stl2";
}

/// Thread-disjoint hashtable inserts.
class HashInsertWorkload final : public MonoWorkload<HashInsertWorkload> {
 public:
  explicit HashInsertWorkload(TOpenHashTable::ProbeMode mode)
      : ht(4096, mode) {}
  template <typename TxT>
  void op_t(unsigned tid, Rng& rng) {
    const auto key = static_cast<std::int64_t>(tid) * 1000000 +
                     static_cast<std::int64_t>(rng.below(100000));
    atomically<TxT>([&](TxT& tx) { (void)ht.insert(tx, key); });
  }
  TOpenHashTable ht;
};

/// Even threads enqueue, odd threads dequeue.
class QueueWorkload final : public MonoWorkload<QueueWorkload> {
 public:
  explicit QueueWorkload(const std::string& algo)
      : q(1024, semantic_algo(algo)) {}
  template <typename TxT>
  void op_t(unsigned tid, Rng&) {
    if (tid % 2 == 0) {
      if (atomically<TxT>([&](TxT& tx) { return q.enqueue(tx, 7); })) {
        ++enqueued;
      }
    } else {
      if (atomically<TxT>([&](TxT& tx) { return q.dequeue(tx); })) {
        ++dequeued;
      }
    }
  }
  TQueue q;
  std::uint64_t enqueued = 0, dequeued = 0;
};

/// Thread-disjoint red-black tree inserts.
class TreeInsertWorkload final : public MonoWorkload<TreeInsertWorkload> {
 public:
  TreeInsertWorkload() : tree(32768) {}
  template <typename TxT>
  void op_t(unsigned tid, Rng& rng) {
    const auto key = static_cast<std::int64_t>(rng.below(5000)) * 8 +
                     static_cast<std::int64_t>(tid);
    atomically<TxT>([&](TxT& tx) { (void)tree.insert(tx, key, key); });
  }
  TRbMap tree;
};

class ContainerStress : public ::testing::TestWithParam<std::string> {};

TEST_P(ContainerStress, HashtableConcurrentDistinctInserts) {
  for (const auto mode : probe_modes(semantic_algo(GetParam()))) {
    SCOPED_TRACE(static_cast<int>(mode));
    HashInsertWorkload w(mode);
    RunConfig cfg;
    cfg.algo = GetParam();
    cfg.mode = ExecMode::kSim;
    cfg.threads = 4;
    cfg.ops_per_thread = 300;
    run_workload(cfg, w);
    // Keys are thread-disjoint; duplicates within a thread are possible, so
    // the size is <= attempts but must be substantial and consistent.
    EXPECT_GT(w.ht.unsafe_size(), 1000u);
    EXPECT_LE(w.ht.unsafe_size(), 1200u);
  }
}

TEST_P(ContainerStress, QueueConservesItems) {
  QueueWorkload w(GetParam());
  RunConfig cfg;
  cfg.algo = GetParam();
  cfg.mode = ExecMode::kSim;
  cfg.threads = 4;
  cfg.ops_per_thread = 400;
  run_workload(cfg, w);
  EXPECT_EQ(static_cast<std::int64_t>(w.enqueued) -
                static_cast<std::int64_t>(w.dequeued),
            w.q.unsafe_size());
}

TEST_P(ContainerStress, RbTreeConcurrentInsertsKeepInvariants) {
  TreeInsertWorkload w;
  RunConfig cfg;
  cfg.algo = GetParam();
  cfg.mode = ExecMode::kSim;
  cfg.threads = 4;
  cfg.ops_per_thread = 500;
  run_workload(cfg, w);
  EXPECT_GT(w.tree.unsafe_count(), 1500u);
  EXPECT_GT(w.tree.unsafe_validate(), 0)
      << "red-black invariants violated after concurrent inserts";
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ContainerStress,
                         ::testing::Values("cgl", "norec", "snorec", "tl2",
                                           "stl2"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace semstm
