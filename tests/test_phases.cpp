// Scripted histories targeting the sharpest algorithm-specific behaviour:
// S-TL2's three-phase execution (§4.2) and both S-algorithms' increment
// promotion under concurrency. Driven by hand through descriptor cores so
// each interleaving is exact.
#include <gtest/gtest.h>

#include "semstm.hpp"

namespace semstm {
namespace {

class Stl2Phases : public ::testing::Test {
 protected:
  Stl2Algorithm algo;
  Stl2Core t1{algo}, t2{algo};
};

/// Runs `script(name, t1, t2)` on two cores of a fresh S-NOrec instance,
/// then of a fresh S-TL2 instance.
template <typename Script>
void for_semantic_cores(Script&& script) {
  for (const char* name : {"snorec", "stl2"}) {
    dispatch_algorithm(name, [&](auto tag) {
      typename decltype(tag)::algorithm_type algo;
      typename decltype(tag)::tx_type t1(algo), t2(algo);
      script(name, t1, t2);
    });
  }
}

// Phase 1: while a transaction has performed only cmps, a concurrent
// commit does not kill it — the start version is *extended* after
// compare-set validation (Alg. 7 lines 19-25).
TEST_F(Stl2Phases, Phase1ExtendsAcrossConcurrentCommit) {
  TVar<long> x(5), y(5), z(0), out(0);

  t1.begin();
  EXPECT_TRUE(t1.cmp(x.word(), Rel::SGT, 0));

  t2.begin();
  t2.write(z.word(), 1);  // unrelated commit bumps the global clock
  t2.commit();

  // y's orec carries version 0 <= old start, but the extension machinery
  // must also accept a cmp on the *freshly written* z.
  EXPECT_TRUE(t1.cmp(y.word(), Rel::SGT, 0));
  EXPECT_TRUE(t1.cmp(z.word(), Rel::SGE, 0));  // orec version > start: extend
  t1.write(out.word(), 1);
  t1.commit();
  EXPECT_EQ(out.unsafe_get(), 1);
}

// Phase 1 extension must abort when the concurrent commit flipped an
// earlier compare's outcome — extension is validation, not amnesty.
TEST_F(Stl2Phases, ExtensionAbortsOnFlippedOutcome) {
  TVar<long> x(5), z(0);

  t1.begin();
  EXPECT_TRUE(t1.cmp(x.word(), Rel::SGT, 0));

  t2.begin();
  t2.write(x.word(), to_word<long>(-1));  // flips x > 0
  t2.write(z.word(), 7);
  t2.commit();

  // The next cmp touches z (orec version > start) and triggers the
  // extension, whose compare-set validation must fail on x.
  EXPECT_THROW((void)t1.cmp(z.word(), Rel::SGE, 0), TxAbort);
  t1.rollback();
}

// Phase 2: after the first plain read the snapshot freezes; a cmp on a
// freshly committed address must abort (Alg. 7 lines 26-34), even though
// the same cmp would have extended in phase 1.
TEST_F(Stl2Phases, Phase2FreezesSnapshot) {
  TVar<long> x(5), z(0);

  t1.begin();
  (void)t1.read(z.word());  // enters phase 2

  t2.begin();
  t2.write(x.word(), 6);
  t2.commit();

  EXPECT_THROW((void)t1.cmp(x.word(), Rel::SGT, 0), TxAbort);
  t1.rollback();
}

// The same interleaving with the cmp *before* the read commits fine:
// phase order matters exactly as §4.2 describes.
TEST_F(Stl2Phases, CmpBeforeReadSurvivesWhatCmpAfterReadCannot) {
  TVar<long> x(5), z(0), out(0);

  t1.begin();
  EXPECT_TRUE(t1.cmp(x.word(), Rel::SGT, 0));

  t2.begin();
  t2.write(x.word(), 6);  // x > 0 still true
  t2.commit();

  (void)t1.read(z.word());  // first plain read: z's orec is old — fine
  t1.write(out.word(), 1);
  t1.commit();
  EXPECT_EQ(out.unsafe_get(), 1);
}

// Read-only transactions made entirely of cmps never abort on version
// grounds: every cmp either fits the snapshot or extends it.
TEST_F(Stl2Phases, AllCmpReadOnlyTransactionRidesThroughCommits) {
  TVar<long> xs[4] = {TVar<long>(1), TVar<long>(2), TVar<long>(3),
                      TVar<long>(4)};

  t1.begin();
  for (int round = 0; round < 4; ++round) {
    t2.begin();
    t2.inc(xs[static_cast<std::size_t>(round)].word(), 10);  // stays > 0
    t2.commit();
    EXPECT_TRUE(
        t1.cmp(xs[static_cast<std::size_t>(round)].word(), Rel::SGT, 0));
  }
  t1.commit();  // read-only: free
}

// Version-first commit validation: an unrelated concurrent commit moves the
// clock, but no cmp operand's orec, so commit vouches for the compare-set
// from versions alone — one validate entry per distinct orec, no clause
// re-evaluated.
TEST_F(Stl2Phases, UnrelatedCommitValidatesOnVersionsAlone) {
  TVar<long> x(5), y(7), z(0), out(0);
  Orec* const ox = &algo.orecs().of(x.word());
  Orec* const oy = &algo.orecs().of(y.word());
  Orec* const oz = &algo.orecs().of(z.word());
  ASSERT_TRUE(oz != ox && oz != oy) << "z must not share a compared orec";

  t1.begin();
  EXPECT_TRUE(t1.cmp(x.word(), Rel::SGT, 0));
  EXPECT_TRUE(t1.cmp(x.word(), Rel::SLT, 10));  // same orec: recorded once
  EXPECT_TRUE(t1.cmp2(x.word(), Rel::SLT, y.word()));
  t1.write(out.word(), 1);

  t2.begin();
  t2.write(z.word(), 1);
  t2.commit();

  const std::uint64_t before = t1.stats.validate_entries;
  t1.commit();
  EXPECT_EQ(t1.stats.validate_entries - before, ox == oy ? 1u : 2u);
  EXPECT_EQ(out.unsafe_get(), 1);
}

// A concurrent write to a compared word moves its orec, so the version
// pass cannot vouch; the semantic pass finds the outcome kept and commits.
TEST_F(Stl2Phases, MovedOperandKeepingItsOutcomeCommitsSemantically) {
  TVar<long> x(5), out(0);

  t1.begin();
  EXPECT_TRUE(t1.cmp(x.word(), Rel::SGT, 0));
  t1.write(out.word(), 1);

  t2.begin();
  t2.write(x.word(), 6);  // x > 0 still true
  t2.commit();

  const std::uint64_t before = t1.stats.validate_entries;
  t1.commit();
  // One orec in the version pass, then one clause in the semantic pass.
  EXPECT_EQ(t1.stats.validate_entries - before, 2u);
  EXPECT_EQ(out.unsafe_get(), 1);
}

// The semantic fallback still catches a flipped outcome at commit, and
// blames the flipped clause, not the first clause it re-evaluates.
TEST_F(Stl2Phases, FlippedOutcomeAtCommitAborts) {
  TVar<long> y(7), x(5), out(0);

  t1.begin();
  EXPECT_TRUE(t1.cmp(y.word(), Rel::SGT, 0));  // stays true
  EXPECT_TRUE(t1.cmp(x.word(), Rel::SGT, 0));
  t1.write(out.word(), 1);

  t2.begin();
  t2.write(x.word(), to_word<long>(-1));  // flips x > 0
  t2.commit();

  EXPECT_THROW(t1.commit(), TxAbort);
  EXPECT_EQ(t1.last_abort().cause, obs::AbortCause::kCmpRevalidation);
  EXPECT_EQ(t1.last_abort().addr, x.word());
  t1.rollback();
  EXPECT_EQ(out.unsafe_get(), 0);
}

// A compared orec locked by another committer fails commit at once: the
// committer holds its own write locks, so it must not wait.
TEST_F(Stl2Phases, LockedComparedOrecFailsCommitAtOnce) {
  TVar<long> x(5), z(0), out(0);

  t1.begin();
  EXPECT_TRUE(t1.cmp(x.word(), Rel::SGT, 0));
  t1.write(out.word(), 1);

  t2.begin();
  t2.write(z.word(), 1);  // moves the clock, so t1's commit validates
  t2.commit();

  Orec& o = algo.orecs().of(x.word());
  ASSERT_TRUE(o.try_lock(&t2));  // a committer mid-write-back on x
  EXPECT_THROW(t1.commit(), TxAbort);
  EXPECT_EQ(t1.last_abort().cause, obs::AbortCause::kWriteLockConflict);
  EXPECT_EQ(t1.last_abort().addr, x.word());
  EXPECT_FALSE(algo.orecs().of(out.word()).locked())
      << "the failed commit must release its write locks";
  t1.rollback();
  o.unlock(&t2);
}

// Commit adopts a validated timestamp only in phase 1. After a plain read
// the snapshot stays frozen: the compare-set passes semantically, but the
// read's moved orec still aborts the commit.
TEST_F(Stl2Phases, Phase2CommitKeepsItsSnapshot) {
  TVar<long> x(5), z(0), out(0);

  t1.begin();
  EXPECT_TRUE(t1.cmp(x.word(), Rel::SGT, 0));
  (void)t1.read(z.word());  // enters phase 2
  t1.write(out.word(), 1);

  t2.begin();
  t2.write(x.word(), 6);  // x > 0 still true
  t2.write(z.word(), 1);  // the plain read is now stale
  t2.commit();

  EXPECT_THROW(t1.commit(), TxAbort);
  EXPECT_EQ(t1.last_abort().cause, obs::AbortCause::kReadValidation);
  t1.rollback();
  EXPECT_EQ(out.unsafe_get(), 0);
}

// ---------------------------------------------------------------------------
// Increment promotion under concurrency.
// ---------------------------------------------------------------------------

TEST(PromotionConcurrency, SnorecPromotionReadsPostCommitValue) {
  SnorecAlgorithm algo;
  SnorecCore t1(algo), t2(algo);
  TVar<long> x(0);

  t1.begin();
  t1.inc(x.word(), 5);  // deferred delta

  t2.begin();
  t2.write(x.word(), 100);
  t2.commit();

  // Reading x back promotes the increment; ReadValid revalidates (empty
  // read-set: fine) and observes T2's 100 — T1 serializes after T2.
  EXPECT_EQ(from_word<long>(t1.read(x.word())), 105);
  t1.commit();
  EXPECT_EQ(x.unsafe_get(), 105);
}

TEST(PromotionConcurrency, Stl2PromotionAbortsOnStaleOrec) {
  Stl2Algorithm algo;
  Stl2Core t1(algo), t2(algo);
  TVar<long> x(0);

  t1.begin();
  t1.inc(x.word(), 5);

  t2.begin();
  t2.write(x.word(), 100);
  t2.commit();

  // The promotion's read part goes through TL2's versioned read, which
  // finds x's orec beyond the frozen start version.
  EXPECT_THROW((void)t1.read(x.word()), TxAbort);
  t1.rollback();
  EXPECT_EQ(x.unsafe_get(), 100);
}

TEST(PromotionConcurrency, UnpromotedIncrementStillCommutes) {
  // Contrast case: without the read-back, both S-algorithms commit the
  // delta over T2's value.
  for_semantic_cores([](const char* name, auto& t1, auto& t2) {
    TVar<long> x(0);

    t1.begin();
    t1.inc(x.word(), 5);

    t2.begin();
    t2.write(x.word(), 100);
    t2.commit();

    t1.commit();
    EXPECT_EQ(x.unsafe_get(), 105) << name;
  });
}

// Write-after-write across cmp_or: a clause over an address the same
// transaction later writes keeps validating against *memory* (the clause
// predates the write, which is buffered) — the classic WAR coverage of
// §4.1 extended to clauses.
TEST(ClauseInteractions, ClauseThenWriteSameAddressCommits) {
  for_semantic_cores([](const char* name, auto& t1, auto&) {
    TVar<long> x(5), y(0);

    t1.begin();
    const CmpTerm clause[2] = {term<long>(x, Rel::SGT, 0),
                               term<long>(y, Rel::SGT, 0)};
    EXPECT_TRUE(t1.cmp_or(clause, 2));
    t1.write(x.word(), 9);  // buffered; memory still 5
    t1.commit();
    EXPECT_EQ(x.unsafe_get(), 9) << name;
  });
}

// And the reverse order: a clause over buffered addresses must observe
// the buffered values (read-after-write for cmp_or).
TEST(ClauseInteractions, ClauseSeesBufferedWrites) {
  for_semantic_cores([](const char* name, auto& t1, auto&) {
    TVar<long> x(-5), y(-5);

    t1.begin();
    t1.write(x.word(), 3);
    const CmpTerm clause[2] = {term<long>(x, Rel::SGT, 0),
                               term<long>(y, Rel::SGT, 0)};
    EXPECT_TRUE(t1.cmp_or(clause, 2)) << name;  // buffered x = 3 > 0
    t1.commit();
  });
}

}  // namespace
}  // namespace semstm
