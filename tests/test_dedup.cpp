// Read-set deduplication through the full algorithm stack (PR 3).
//
// NOrec-family transactions dedup identical value snapshots in the
// ReadSet's trailing window; TL2-family transactions dedup repeated orec
// appends through an epoch-stamped direct-mapped cache. These tests pin
// down (a) the accounting — `readset_dups` counts skipped appends,
// `readset_adds` actual growth — and (b) that dedup never changes what a
// transaction observes or commits.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/orec.hpp"
#include "semstm.hpp"
#include "util/rng.hpp"

namespace semstm {
namespace {

class DedupStats : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    algo_ = make_algorithm(GetParam());
    ctx_ = std::make_unique<ThreadCtx>(algo_->make_tx());
    binder_ = std::make_unique<CtxBinder>(*ctx_);
  }

  bool has_read_set() const { return GetParam() != "cgl"; }

  TxStats& stats() { return ctx_->tx->stats; }

  std::unique_ptr<Algorithm> algo_;
  std::unique_ptr<ThreadCtx> ctx_;
  std::unique_ptr<CtxBinder> binder_;
};

TEST_P(DedupStats, RepeatedReadsOfOneLocationCollapse) {
  constexpr int kReads = 100;
  TVar<long> x(5);
  TVar<long> acc(0);
  const long sum = atomically([&](auto& tx) {
    long s = 0;
    for (int i = 0; i < kReads; ++i) s += x.get(tx);
    acc.set(tx, s);  // non-empty write-set: commit must validate reads
    return s;
  });
  EXPECT_EQ(sum, 5L * kReads);
  EXPECT_EQ(acc.unsafe_get(), 5L * kReads);
  if (!has_read_set()) return;  // cgl tracks nothing
  // One tracked entry, kReads-1 skipped duplicates.
  EXPECT_GT(stats().readset_dups, 0u);
  EXPECT_LT(stats().readset_adds, static_cast<std::uint64_t>(kReads));
  EXPECT_EQ(stats().readset_adds + stats().readset_dups,
            static_cast<std::uint64_t>(kReads));
}

TEST_P(DedupStats, DistinctReadsAreAllTracked) {
  constexpr std::size_t kVars = 64;
  std::vector<TVar<long>> vars(kVars);
  for (std::size_t i = 0; i < kVars; ++i) {
    vars[i].unsafe_set(static_cast<long>(i));
  }
  TVar<long> acc(0);
  atomically([&](auto& tx) {
    long s = 0;
    for (auto& v : vars) s += v.get(tx);
    acc.set(tx, s);
  });
  EXPECT_EQ(acc.unsafe_get(), static_cast<long>(kVars * (kVars - 1) / 2));
  if (!has_read_set()) return;
  // A single pass over distinct locations must not under-track: every
  // location needs an entry for commit-time validation. (TL2's orec table
  // may alias several addresses to one orec — adds + dups still accounts
  // for every read, and dups stay a small fraction.)
  EXPECT_EQ(stats().readset_adds + stats().readset_dups, kVars);
  EXPECT_GE(stats().readset_adds, kVars / 2);
}

TEST_P(DedupStats, InterleavedRereadsStillCommitCorrectValues) {
  // a, b, a, b, ... re-reads interleaved with writes derived from them:
  // dedup must never make a read observe a stale or wrong value.
  TVar<long> a(1);
  TVar<long> b(10);
  TVar<long> out(0);
  atomically([&](auto& tx) {
    long s = 0;
    for (int i = 0; i < 8; ++i) s += a.get(tx) + b.get(tx);
    // Two back-to-back reads of one location: the second is a dup under
    // both schemes no matter how a and b alias in TL2's direct-mapped
    // cache (their slots follow their addresses, so the interleaved loop
    // alone thrashes to zero dups when they sit a multiple of 128 bytes
    // apart).
    s += a.get(tx) - a.get(tx);
    out.set(tx, s);
  });
  EXPECT_EQ(out.unsafe_get(), 8 * 11L);
  if (!has_read_set()) return;
  EXPECT_GT(stats().readset_dups, 0u);
}

TEST_P(DedupStats, ReadAfterWriteIsNotCountedAsTrackedRead) {
  // RAW hits the write-set fast path; it must not inflate either counter.
  TVar<long> x(0);
  atomically([&](auto& tx) {
    x.set(tx, 3);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(x.get(tx), 3);
  });
  if (!has_read_set()) return;
  EXPECT_EQ(stats().readset_adds + stats().readset_dups, 0u);
}

TEST_P(DedupStats, ValidationExaminesOnlyTrackedEntries) {
  // validate_entries counts per-entry validation work; with dedup it is
  // bounded by adds per pass, never by raw read count.
  constexpr int kReads = 50;
  TVar<long> x(2);
  TVar<long> y(0);
  atomically([&](auto& tx) {
    long s = 0;
    for (int i = 0; i < kReads; ++i) s += x.get(tx);
    y.set(tx, s);
  });
  if (!has_read_set()) return;
  if (stats().validations > 0) {
    EXPECT_LE(stats().validate_entries,
              stats().validations * stats().readset_adds);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DedupStats,
                         ::testing::Values("cgl", "norec", "snorec", "tl2",
                                           "stl2"),
                         [](const auto& info) { return info.param; });

// TL2-family dedup keys on the orec slot (index & 15 in the direct-mapped
// cache), and false conflicts on shared slots. Both must follow from the
// program's address differences alone, not from where the heap starts.
TEST(OrecMap, ShiftingAWordShiftsItsSlotByTheSameNumberOfWords) {
  for (const unsigned log2 : {8u, 16u}) {
    OrecTable orecs(log2);
    const std::size_t mask = orecs.size() - 1;
    const auto slot = [&](std::uintptr_t a) {
      // Never dereferenced: of() only maps the address to a slot.
      return orecs.index(&orecs.of(reinterpret_cast<const tword*>(a)));
    };
    Rng rng(log2);
    for (int i = 0; i < 4096; ++i) {
      const std::uintptr_t a = rng.next() & ~std::uintptr_t{7};
      // Odd iterations shift by whole pages, as a moved heap does.
      const std::uintptr_t d = i % 2 ? rng.below(std::uint64_t{1} << 24) * 4096
                                     : rng.next() & ~std::uintptr_t{7};
      ASSERT_EQ(slot(a + d), (slot(a) + d / 8) & mask)
          << "log2 " << log2 << " a " << a << " d " << d;
    }
  }
}

TEST(OrecMap, ConsecutiveWordsGetDistinctOrecs) {
  for (const unsigned log2 : {8u, 16u}) {
    OrecTable orecs(log2);
    const std::vector<tword> words(orecs.size());
    std::vector<bool> taken(orecs.size());
    for (const tword& w : words) {
      const std::size_t s = orecs.index(&orecs.of(&w));
      ASSERT_FALSE(taken[s]) << "log2 " << log2 << " slot " << s;
      taken[s] = true;
    }
  }
}

}  // namespace
}  // namespace semstm
