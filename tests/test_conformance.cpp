// Algorithm conformance suite: every algorithm (cgl, norec, snorec, tl2,
// stl2) must implement the sequential specification of §5 — read returns
// the latest write plus accumulated increments; cmp returns the relation
// over that value — across all the same-transaction interaction cases of
// §4.1 (RAW / WAR / WAW / read-after-read, increment promotion).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "semstm.hpp"

namespace semstm {
namespace {

class Conformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    algo_ = make_algorithm(GetParam());
    ctx_ = std::make_unique<ThreadCtx>(algo_->make_tx());
    binder_ = std::make_unique<CtxBinder>(*ctx_);
  }

  TxStats& stats() { return ctx_->tx->stats; }

  std::unique_ptr<Algorithm> algo_;
  std::unique_ptr<ThreadCtx> ctx_;
  std::unique_ptr<CtxBinder> binder_;
};

TEST_P(Conformance, ReadInitialValue) {
  TVar<long> x(41);
  const long got = atomically([&](auto& tx) { return x.get(tx); });
  EXPECT_EQ(got, 41);
}

TEST_P(Conformance, WriteThenReadBack) {
  TVar<long> x(0);
  atomically([&](auto& tx) { x.set(tx, 7); });
  EXPECT_EQ(x.unsafe_get(), 7);
  EXPECT_EQ(atomically([&](auto& tx) { return x.get(tx); }), 7);
}

TEST_P(Conformance, ReadAfterWriteSeesBufferedValue) {
  TVar<long> x(1);
  atomically([&](auto& tx) {
    x.set(tx, 2);
    EXPECT_EQ(x.get(tx), 2);     // RAW from write-set
    EXPECT_EQ(x.unsafe_get(), 1);  // lazy versioning: memory untouched
  });
  EXPECT_EQ(x.unsafe_get(), 2);
}

TEST_P(Conformance, WriteAfterWriteLastWins) {
  TVar<long> x(0);
  atomically([&](auto& tx) {
    x.set(tx, 1);
    x.set(tx, 2);
    x.set(tx, 3);
  });
  EXPECT_EQ(x.unsafe_get(), 3);
}

TEST_P(Conformance, IncrementAppliesDelta) {
  TVar<long> x(10);
  atomically([&](auto& tx) { x.add(tx, 5); });
  EXPECT_EQ(x.unsafe_get(), 15);
  atomically([&](auto& tx) { x.sub(tx, 7); });
  EXPECT_EQ(x.unsafe_get(), 8);
}

TEST_P(Conformance, IncrementsAccumulateWithinTransaction) {
  TVar<long> x(100);
  atomically([&](auto& tx) {
    x.add(tx, 1);
    x.add(tx, 2);
    x.sub(tx, 4);
  });
  EXPECT_EQ(x.unsafe_get(), 99);
}

TEST_P(Conformance, ReadAfterIncrementPromotes) {
  // §4.1 read-after-write over an increment: the read must observe the
  // initial value plus the pending delta (sequential spec of §5).
  TVar<long> x(10);
  atomically([&](auto& tx) {
    x.add(tx, 5);
    EXPECT_EQ(x.get(tx), 15);
    x.add(tx, 1);
    EXPECT_EQ(x.get(tx), 16);
  });
  EXPECT_EQ(x.unsafe_get(), 16);
}

TEST_P(Conformance, IncrementAfterWriteAccumulatesOverBufferedValue) {
  TVar<long> x(1);
  atomically([&](auto& tx) {
    x.set(tx, 50);
    x.add(tx, 3);
    EXPECT_EQ(x.get(tx), 53);
  });
  EXPECT_EQ(x.unsafe_get(), 53);
}

TEST_P(Conformance, WriteAfterIncrementOverrides) {
  TVar<long> x(1);
  atomically([&](auto& tx) {
    x.add(tx, 100);
    x.set(tx, 9);
  });
  EXPECT_EQ(x.unsafe_get(), 9);
}

TEST_P(Conformance, CompareAgainstValue) {
  TVar<long> x(5);
  atomically([&](auto& tx) {
    EXPECT_TRUE(x.gt(tx, 0));
    EXPECT_TRUE(x.gte(tx, 5));
    EXPECT_FALSE(x.gt(tx, 5));
    EXPECT_TRUE(x.lt(tx, 6));
    EXPECT_TRUE(x.lte(tx, 5));
    EXPECT_FALSE(x.lt(tx, 5));
    EXPECT_TRUE(x.eq(tx, 5));
    EXPECT_FALSE(x.neq(tx, 5));
    EXPECT_TRUE(x.neq(tx, 4));
  });
}

TEST_P(Conformance, CompareNegativeValuesSigned) {
  TVar<int> x(-3);
  atomically([&](auto& tx) {
    EXPECT_TRUE(x.lt(tx, 0));
    EXPECT_TRUE(x.gt(tx, -10));
    EXPECT_FALSE(x.gte(tx, 0));
  });
}

TEST_P(Conformance, CompareUnsignedUsesUnsignedOrder) {
  TVar<unsigned long> x(~0ul);
  atomically([&](auto& tx) {
    EXPECT_TRUE(x.gt(tx, 1ul));  // would be false under signed order
  });
}

TEST_P(Conformance, CompareAddressAddress) {
  TVar<long> head(3);
  TVar<long> tail(3);
  atomically([&](auto& tx) {
    EXPECT_TRUE(head.eq(tx, tail));
    EXPECT_FALSE(head.neq(tx, tail));
    EXPECT_TRUE(head.lte(tx, tail));
    EXPECT_FALSE(head.lt(tx, tail));
  });
  tail.unsafe_set(5);
  atomically([&](auto& tx) {
    EXPECT_TRUE(head.lt(tx, tail));
    EXPECT_TRUE(tail.gt(tx, head));
  });
}

TEST_P(Conformance, CompareSeesBufferedWrite) {
  TVar<long> x(0);
  atomically([&](auto& tx) {
    x.set(tx, 10);
    EXPECT_TRUE(x.gt(tx, 5));   // must observe the buffered 10, not memory 0
    EXPECT_TRUE(x.eq(tx, 10));
  });
}

TEST_P(Conformance, CompareSeesBufferedIncrement) {
  TVar<long> x(10);
  atomically([&](auto& tx) {
    x.add(tx, 5);
    EXPECT_TRUE(x.eq(tx, 15));  // forces promotion in semantic algorithms
  });
  EXPECT_EQ(x.unsafe_get(), 15);
}

TEST_P(Conformance, Cmp2WithOneSideBuffered) {
  TVar<long> a(1);
  TVar<long> b(9);
  atomically([&](auto& tx) {
    a.set(tx, 10);
    EXPECT_TRUE(a.gt(tx, b));  // buffered 10 vs memory 9
  });
}

TEST_P(Conformance, TransfersComposeAcrossTransactions) {
  TVar<long> from(100);
  TVar<long> to(0);
  for (int i = 0; i < 10; ++i) {
    atomically([&](auto& tx) {
      if (from.gte(tx, 10)) {
        from.sub(tx, 10);
        to.add(tx, 10);
      }
    });
  }
  EXPECT_EQ(from.unsafe_get(), 0);
  EXPECT_EQ(to.unsafe_get(), 100);
  // 11th transfer must be refused by the overdraft check.
  atomically([&](auto& tx) {
    if (from.gte(tx, 10)) {
      from.sub(tx, 10);
      to.add(tx, 10);
    }
  });
  EXPECT_EQ(from.unsafe_get(), 0);
}

TEST_P(Conformance, UserExceptionRollsBackAndPropagates) {
  TVar<long> x(1);
  struct Boom {};
  EXPECT_THROW(atomically([&](auto& tx) {
                 x.set(tx, 999);
                 throw Boom{};
               }),
               Boom);
  EXPECT_EQ(x.unsafe_get(), 1);  // lazy versioning: nothing leaked
  // The descriptor must be reusable afterwards.
  atomically([&](auto& tx) { x.set(tx, 2); });
  EXPECT_EQ(x.unsafe_get(), 2);
}

TEST_P(Conformance, ReturnValuePlumbsThrough) {
  TVar<long> x(6);
  const long doubled = atomically([&](auto& tx) { return 2 * x.get(tx); });
  EXPECT_EQ(doubled, 12);
}

TEST_P(Conformance, ManySequentialTransactionsStayConsistent) {
  TVar<long> counter(0);
  for (int i = 0; i < 1000; ++i) {
    atomically([&](auto& tx) { counter.add(tx, 1); });
  }
  EXPECT_EQ(counter.unsafe_get(), 1000);
  EXPECT_EQ(stats().commits, 1000u);
  EXPECT_EQ(stats().aborts, 0u);  // single thread: no conflicts possible
}

TEST_P(Conformance, StatsCountOperationKinds) {
  TVar<long> x(1);
  TVar<long> y(2);
  stats().reset();
  atomically([&](auto& tx) {
    (void)x.get(tx);
    y.set(tx, 3);
    (void)x.gt(tx, 0);
    x.add(tx, 1);
  });
  if (algo_->semantic()) {
    EXPECT_EQ(stats().reads, 1u);
    EXPECT_EQ(stats().writes, 1u);
    EXPECT_EQ(stats().compares, 1u);
    EXPECT_EQ(stats().increments, 1u);
  } else {
    // Non-semantic algorithms delegate cmp -> read, inc -> read+write.
    EXPECT_EQ(stats().compares, 0u);
    EXPECT_EQ(stats().increments, 0u);
    EXPECT_EQ(stats().reads, 3u);
    EXPECT_EQ(stats().writes, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, Conformance,
                         ::testing::Values("cgl", "norec", "snorec", "tl2",
                                           "stl2"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace semstm
