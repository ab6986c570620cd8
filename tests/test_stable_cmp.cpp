// Stable compares (semstm::cmp_stable, DESIGN.md §4.7). The caller declares
// that once `*addr REL operand` holds, it holds for the rest of the program.
// S-NOrec and S-TL2 then record nothing when the compare holds and the
// entry cmp records when it does not; every other descriptor runs its
// ordinary cmp. The histories are driven by hand through descriptor cores,
// so each interleaving is exact.
#include <gtest/gtest.h>

#include <string>

#include "semstm.hpp"
#include "workloads/driver.hpp"
#include "workloads/hashtable_wl.hpp"

namespace semstm {
namespace {

static_assert(!HasStableCmp<CglCore> && !HasStableCmp<NorecCore> &&
                  !HasStableCmp<Tl2Core>,
              "the base cores lower the stable compare to cmp");

/// A descriptor wrapper without the member, as a tracing shim may be: the
/// free function must lower the stable compare to the wrapped core's cmp.
template <typename Core>
struct CmpOnly {
  Core& core;
  word_t read(const tword* a) { return core.read(a); }
  void write(tword* a, word_t v) { core.write(a, v); }
  bool cmp(const tword* a, Rel rel, word_t v) { return core.cmp(a, rel, v); }
};
static_assert(!HasStableCmp<CmpOnly<SnorecCore>>);

/// The counters a compare can move.
void expect_same_record(const TxStats& a, const TxStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.compares, b.compares);
  EXPECT_EQ(a.readset_adds, b.readset_adds);
  EXPECT_EQ(a.readset_dups, b.readset_dups);
  EXPECT_EQ(a.validations, b.validations);
  EXPECT_EQ(a.validate_entries, b.validate_entries);
}

/// Runs `history(t1, t2)` on two cores of a fresh instance of `algo`.
template <typename History>
void on_fresh_cores(const std::string& algo, History&& history) {
  dispatch_algorithm(algo, [&](auto tag) {
    typename decltype(tag)::algorithm_type shared;
    typename decltype(tag)::tx_type t1(shared), t2(shared);
    history(t1, t2);
  });
}

class StableCmpSemantic : public ::testing::TestWithParam<std::string> {};

TEST_P(StableCmpSemantic, HeldCompareAppendsNothingAndCountsADup) {
  on_fresh_cores(GetParam(), [](auto& t1, auto&) {
    TVar<long> x(1), out(0);
    t1.begin();
    EXPECT_TRUE(x.cmp_stable(t1, Rel::NEQ, 0));
    out.set(t1, 1);
    t1.commit();
    EXPECT_EQ(t1.stats.compares, 1u);
    EXPECT_EQ(t1.stats.readset_adds, 0u);
    EXPECT_EQ(t1.stats.readset_dups, 1u);
    EXPECT_EQ(out.unsafe_get(), 1);
  });
}

// A store that breaks the declaration shows that no entry exists: cmp's
// entry catches x returning to 0, the held stable compare left none.
TEST_P(StableCmpSemantic, HeldCompareLeavesNothingForValidationToCheck) {
  for (const bool stable : {false, true}) {
    on_fresh_cores(GetParam(), [&](auto& t1, auto& t2) {
      TVar<long> x(1), y(0), out(0);
      t1.begin();
      EXPECT_TRUE(stable ? x.cmp_stable(t1, Rel::NEQ, 0)
                         : x.neq(t1, 0L));
      t2.begin();
      x.set(t2, 0);
      t2.commit();
      bool committed = true;
      try {
        (void)y.get(t1);  // S-NOrec validates here, S-TL2 at commit
        out.set(t1, 1);
        t1.commit();
      } catch (const TxAbort&) {
        committed = false;
        t1.rollback();
      }
      EXPECT_EQ(committed, stable) << (stable ? "cmp_stable" : "cmp");
    });
  }
}

TEST_P(StableCmpSemantic, FailedCompareRecordsExactlyWhatCmpRecords) {
  TxStats by_cmp, by_stable;
  for (const bool stable : {false, true}) {
    on_fresh_cores(GetParam(), [&](auto& t1, auto& t2) {
      TVar<long> x(0), y(0), out(0);
      t1.begin();
      EXPECT_FALSE(stable ? x.cmp_stable(t1, Rel::NEQ, 0) : x.neq(t1, 0L));
      EXPECT_EQ(t1.stats.readset_adds, 1u);
      EXPECT_EQ(t1.stats.readset_dups, 0u);
      t2.begin();
      x.set(t2, 5);  // flips the recorded outcome
      t2.commit();
      EXPECT_THROW(
          {
            (void)y.get(t1);
            out.set(t1, 1);
            t1.commit();
          },
          TxAbort);
      EXPECT_EQ(t1.last_abort().cause, obs::AbortCause::kCmpRevalidation);
      t1.rollback();
      (stable ? by_stable : by_cmp) = t1.stats;
    });
  }
  expect_same_record(by_cmp, by_stable);
}

TEST_P(StableCmpSemantic, BufferedOperandRecordsNothing) {
  on_fresh_cores(GetParam(), [](auto& t1, auto&) {
    TVar<long> x(7);
    t1.begin();
    x.set(t1, 0);
    EXPECT_FALSE(x.cmp_stable(t1, Rel::NEQ, 0));
    x.set(t1, 3);
    EXPECT_TRUE(x.cmp_stable(t1, Rel::NEQ, 0));
    t1.commit();
    EXPECT_EQ(t1.stats.compares, 2u);
    EXPECT_EQ(t1.stats.readset_adds, 0u);
    EXPECT_EQ(t1.stats.readset_dups, 0u);
    EXPECT_EQ(x.unsafe_get(), 3);
  });
}

// S-TL2 phase 1: a held stable compare whose load is newer than the start
// version still extends the snapshot, so a later plain read of a word
// written by the same commit does not abort.
TEST(StableCmpStl2, HeldCompareStillExtendsPhaseOneSnapshot) {
  Stl2Algorithm shared;
  Stl2Core t1(shared), t2(shared);
  TVar<long> x(1), y(4), out(0);
  t1.begin();
  t2.begin();
  x.set(t2, 2);  // x's and y's orecs now newer than t1's start version
  y.set(t2, 5);
  t2.commit();
  EXPECT_TRUE(x.cmp_stable(t1, Rel::NEQ, 0));
  EXPECT_EQ(y.get(t1), 5);  // aborts unless the snapshot was extended
  out.set(t1, 1);
  t1.commit();
  EXPECT_EQ(out.unsafe_get(), 1);
  EXPECT_EQ(t1.stats.readset_dups, 1u);
}

INSTANTIATE_TEST_SUITE_P(SemanticCores, StableCmpSemantic,
                         ::testing::Values("snorec", "stl2"),
                         [](const auto& info) { return info.param; });

// CGL, NOrec, TL2 and a wrapper without the member record exactly what the
// ordinary cmp records.
class StableCmpFallback : public ::testing::TestWithParam<std::string> {};

template <typename D, typename Core>
void held_and_failed(D& d, Core& core, bool stable, TVar<long>& out) {
  TVar<long> x(1), y(0);
  core.begin();
  EXPECT_TRUE(stable ? cmp_stable(d, x.word(), Rel::NEQ, 0)
                     : d.cmp(x.word(), Rel::NEQ, 0));
  EXPECT_FALSE(stable ? cmp_stable(d, y.word(), Rel::NEQ, 0)
                      : d.cmp(y.word(), Rel::NEQ, 0));
  d.write(out.word(), 1);
  core.commit();
}

TEST_P(StableCmpFallback, RecordsWhatCmpRecords) {
  TxStats by_cmp, by_stable;
  for (const bool stable : {false, true}) {
    on_fresh_cores(GetParam(), [&](auto& t1, auto&) {
      TVar<long> out(0);
      held_and_failed(t1, t1, stable, out);
      EXPECT_EQ(out.unsafe_get(), 1);
      (stable ? by_stable : by_cmp) = t1.stats;
    });
  }
  expect_same_record(by_cmp, by_stable);
}

TEST(StableCmpFallbackWrapper, WrapperWithoutMemberRecordsWhatCmpRecords) {
  TxStats by_cmp, by_stable;
  for (const bool stable : {false, true}) {
    SnorecAlgorithm shared;
    SnorecCore core(shared);
    CmpOnly<SnorecCore> wrapper{core};
    TVar<long> out(0);
    held_and_failed(wrapper, core, stable, out);
    (stable ? by_stable : by_cmp) = core.stats;
  }
  EXPECT_EQ(by_stable.readset_adds, 2u);  // the held compare too
  EXPECT_EQ(by_stable.readset_dups, 0u);
  expect_same_record(by_cmp, by_stable);
}

INSTANTIATE_TEST_SUITE_P(BaseCores, StableCmpFallback,
                         ::testing::Values("cgl", "norec", "tl2"),
                         [](const auto& info) { return info.param; });

// The build guard's runtime half: on one deterministic sim run, the stable
// probe must validate fewer entries per commit than Algorithm 2's probe.
// A stable compare that quietly fell back to cmp would validate as many.
TEST(StableCmpSim, StableProbeValidatesLessThanClauseProbe) {
  const auto entries_per_commit = [](TOpenHashTable::ProbeMode mode) {
    HashtableWorkload w(HashtableWorkload::Params{}, mode);
    RunConfig cfg;
    cfg.algo = "snorec";
    cfg.mode = ExecMode::kSim;
    cfg.threads = 4;
    cfg.ops_per_thread = 60;
    cfg.seed = 2026;
    const RunResult r = run_workload(cfg, w);
    EXPECT_EQ(r.stats.commits, 4u * 60u);
    return static_cast<double>(r.stats.validate_entries) /
           static_cast<double>(r.stats.commits);
  };
  const double clause = entries_per_commit(TOpenHashTable::ProbeMode::kClause);
  const double stable = entries_per_commit(TOpenHashTable::ProbeMode::kStable);
  EXPECT_GT(clause, 0.0);
  EXPECT_LT(stable, clause);
}

}  // namespace
}  // namespace semstm
