// Unit tests for the TM-friendly relation semantics (Table 1) and the
// Alg. 6 RAW rule (read-after-increment promotion bookkeeping).
#include <gtest/gtest.h>

#include <string>

#include "core/semantics.hpp"
#include "semstm.hpp"
#include "util/rng.hpp"

namespace semstm {
namespace {

constexpr Rel kAllRels[] = {Rel::EQ,  Rel::NEQ, Rel::SLT, Rel::SLE, Rel::SGT,
                            Rel::SGE, Rel::ULT, Rel::ULE, Rel::UGT, Rel::UGE};

TEST(Semantics, SignedOrderedRelations) {
  const word_t neg = to_word<std::int64_t>(-5);
  const word_t pos = to_word<std::int64_t>(3);
  EXPECT_TRUE(eval(Rel::SLT, neg, pos));
  EXPECT_TRUE(eval(Rel::SLE, neg, pos));
  EXPECT_FALSE(eval(Rel::SGT, neg, pos));
  EXPECT_FALSE(eval(Rel::SGE, neg, pos));
  EXPECT_TRUE(eval(Rel::SGE, pos, pos));
  EXPECT_TRUE(eval(Rel::SLE, pos, pos));
}

TEST(Semantics, UnsignedOrderedRelations) {
  // The same bit patterns compare the other way around unsigned.
  const word_t neg = to_word<std::int64_t>(-5);  // huge unsigned
  const word_t pos = to_word<std::int64_t>(3);
  EXPECT_TRUE(eval(Rel::UGT, neg, pos));
  EXPECT_FALSE(eval(Rel::ULT, neg, pos));
}

TEST(Semantics, EqualityRelations) {
  EXPECT_TRUE(eval(Rel::EQ, 7, 7));
  EXPECT_FALSE(eval(Rel::EQ, 7, 8));
  EXPECT_TRUE(eval(Rel::NEQ, 7, 8));
  EXPECT_FALSE(eval(Rel::NEQ, 7, 7));
}

TEST(Semantics, InverseIsAnInvolution) {
  for (Rel r : kAllRels) EXPECT_EQ(inverse(inverse(r)), r) << rel_name(r);
}

// Property (core of semantic validation correctness): for every relation
// and operand pair, exactly one of {rel, inverse(rel)} holds. This is what
// lets Alg. 6 line 34 store "result ? OP : Inverse(OP)" and validate it.
TEST(Semantics, RelationAndInverseAreComplementary) {
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const word_t a = rng.next() >> (rng.below(64));
    const word_t b = rng.percent(30) ? a : (rng.next() >> rng.below(64));
    for (Rel r : kAllRels) {
      EXPECT_NE(eval(r, a, b), eval(inverse(r), a, b))
          << rel_name(r) << " a=" << a << " b=" << b;
    }
  }
}

TEST(Semantics, RelPickersFollowSignedness) {
  EXPECT_EQ(rel_lt<int>(), Rel::SLT);
  EXPECT_EQ(rel_lt<unsigned>(), Rel::ULT);
  EXPECT_EQ(rel_ge<long long>(), Rel::SGE);
  EXPECT_EQ(rel_gt<std::uint8_t>(), Rel::UGT);
  EXPECT_EQ(rel_le<std::int16_t>(), Rel::SLE);
}

TEST(Semantics, RelNamesAreUnique) {
  for (Rel a : kAllRels) {
    for (Rel b : kAllRels) {
      if (a != b) {
        EXPECT_STRNE(rel_name(a), rel_name(b));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RAW promotion (Alg. 6 lines 17-23): reading an address with a pending
// increment converts the delta entry into a conventional read + write.
// Exercised for both semantic algorithms, which share the rule.
// ---------------------------------------------------------------------------

class RawPromotion : public ::testing::TestWithParam<std::string> {};

TEST_P(RawPromotion, ReadAfterIncPromotesExactlyOnce) {
  auto algo = make_algorithm(GetParam());
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);
  TVar<long> v(100);

  atomically([&](auto& tx) {
    v.add(tx, 7);
    EXPECT_EQ(v.get(tx), 107);  // promotion: delta folded over observed value
    EXPECT_EQ(v.get(tx), 107);  // second read hits the promoted WRITE entry
  });
  EXPECT_EQ(v.unsafe_get(), 107);
  EXPECT_EQ(ctx.tx->stats.promotions, 1u) << "re-read must not double-promote";
  EXPECT_EQ(ctx.tx->stats.increments, 1u);
}

TEST_P(RawPromotion, IncAfterPromotionAccumulatesOverWriteEntry) {
  auto algo = make_algorithm(GetParam());
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);
  TVar<long> v(10);

  atomically([&](auto& tx) {
    v.add(tx, 5);
    EXPECT_EQ(v.get(tx), 15);  // promotes the entry to WRITE(15)
    v.add(tx, 2);              // merges into the WRITE, no second promotion
    EXPECT_EQ(v.get(tx), 17);
  });
  EXPECT_EQ(v.unsafe_get(), 17);
  EXPECT_EQ(ctx.tx->stats.promotions, 1u);
}

TEST_P(RawPromotion, ReadBeforeIncDoesNotPromote) {
  auto algo = make_algorithm(GetParam());
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);
  TVar<long> v(3);

  atomically([&](auto& tx) {
    EXPECT_EQ(v.get(tx), 3);  // plain read; nothing buffered yet
    v.add(tx, 4);             // delta entry, applied blind at commit
  });
  EXPECT_EQ(v.unsafe_get(), 7);
  EXPECT_EQ(ctx.tx->stats.promotions, 0u);
}

TEST_P(RawPromotion, DecThenReadPromotesNegativeDelta) {
  auto algo = make_algorithm(GetParam());
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);
  TVar<long> v(50);

  atomically([&](auto& tx) {
    v.sub(tx, 8);
    EXPECT_EQ(v.get(tx), 42);  // wrapped delta + observed value reads right
  });
  EXPECT_EQ(v.unsafe_get(), 42);
  EXPECT_EQ(ctx.tx->stats.promotions, 1u);
}

TEST_P(RawPromotion, CmpOverPendingIncPromotesToo) {
  // cmp consults the write-set through the same RAW path as get.
  auto algo = make_algorithm(GetParam());
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);
  TVar<long> v(1);

  atomically([&](auto& tx) {
    v.add(tx, 1);
    EXPECT_TRUE(v.eq(tx, 2));  // evaluates against the promoted value
  });
  EXPECT_EQ(v.unsafe_get(), 2);
  EXPECT_EQ(ctx.tx->stats.promotions, 1u);
}

INSTANTIATE_TEST_SUITE_P(SemanticAlgorithms, RawPromotion,
                         ::testing::Values("snorec", "stl2"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace semstm
