// Unit tests for read-set / compare-set entries and semantic validation.
#include <gtest/gtest.h>

#include <bit>
#include <utility>
#include <vector>

#include "runtime/readset.hpp"

namespace semstm {
namespace {

TEST(ReadSet, ValueEntryHoldsWhileValueUnchanged) {
  ReadSet rs;
  tword w{7};
  rs.append_value(&w, 7);
  EXPECT_TRUE(rs.begin()->holds());
  w.store(8);
  EXPECT_FALSE(rs.begin()->holds());  // value-based validation (NOrec)
  w.store(7);
  EXPECT_TRUE(rs.begin()->holds());   // ABA is fine for value validation
}

TEST(ReadSet, TrueCompareEntryStoresRelation) {
  // x > 0 observed true: entry must keep holding while x stays positive,
  // even when the exact value changes — the paper's "false conflict" case.
  ReadSet rs;
  tword x{to_word<std::int64_t>(5)};
  rs.append_cmp(&x, Rel::SGT, to_word<std::int64_t>(0), /*outcome=*/true);
  EXPECT_TRUE(rs.begin()->holds());
  x.store(to_word<std::int64_t>(123));  // concurrent change, still > 0
  EXPECT_TRUE(rs.begin()->holds());
  x.store(to_word<std::int64_t>(-1));   // semantic violation
  EXPECT_FALSE(rs.begin()->holds());
}

TEST(ReadSet, FalseCompareEntryStoresInverse) {
  // x > 10 observed false: the inverse (x <= 10) must keep holding.
  ReadSet rs;
  tword x{to_word<std::int64_t>(5)};
  rs.append_cmp(&x, Rel::SGT, to_word<std::int64_t>(10), /*outcome=*/false);
  EXPECT_TRUE(rs.begin()->holds());
  x.store(to_word<std::int64_t>(10));
  EXPECT_TRUE(rs.begin()->holds());
  x.store(to_word<std::int64_t>(11));
  EXPECT_FALSE(rs.begin()->holds());
}

TEST(ReadSet, AddressAddressEntryComparesBothCurrentValues) {
  ReadSet rs;
  tword head{3};
  tword tail{3};
  rs.append_cmp2(&head, Rel::EQ, &tail, /*outcome=*/true);
  EXPECT_TRUE(rs.begin()->holds());
  // Both move together (enqueue+dequeue pair): relation still holds.
  head.store(4);
  tail.store(4);
  EXPECT_TRUE(rs.begin()->holds());
  tail.store(9);
  EXPECT_FALSE(rs.begin()->holds());
}

TEST(ReadSet, ValueAndCmpOnSameAddressGetIndependentEntries) {
  // §4.1 read-after-read: a value snapshot and a semantic compare of the
  // same address are different observations — each validated on its own.
  ReadSet rs;
  tword x{1};
  rs.append_value(&x, 1);
  rs.append_cmp(&x, Rel::SGT, 0, true);
  EXPECT_EQ(rs.size(), 2u);
  x.store(2);
  auto it = rs.begin();
  EXPECT_FALSE(it->holds());       // value entry breaks
  EXPECT_TRUE((++it)->holds());    // semantic entry still true
}

TEST(ReadSet, IdenticalValueSnapshotDeduplicates) {
  // Re-reading an address re-observes the same value (anything else would
  // have aborted); the duplicate entry is skipped, so validation work is
  // O(unique reads) — and validation outcomes are unchanged, because
  // `addr EQ v` twice validates exactly like `addr EQ v` once.
  ReadSet rs;
  tword x{7};
  EXPECT_TRUE(rs.append_value(&x, 7));
  EXPECT_FALSE(rs.append_value(&x, 7));
  EXPECT_FALSE(rs.append_value(&x, 7));
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_TRUE(rs.begin()->holds());
  x.store(8);
  EXPECT_FALSE(rs.begin()->holds());  // still value-validated
}

TEST(ReadSet, DifferentObservedValuesDoNotDeduplicate) {
  ReadSet rs;
  tword x{1};
  EXPECT_TRUE(rs.append_value(&x, 1));
  EXPECT_TRUE(rs.append_value(&x, 2));  // different snapshot: kept
  EXPECT_EQ(rs.size(), 2u);
}

TEST(ReadSet, DedupLooksBeyondImmediatelyPrecedingEntry) {
  // read A, read B, read A: the second A is within the dedup window even
  // though it is not the last entry.
  ReadSet rs;
  tword a{1};
  tword b{2};
  EXPECT_TRUE(rs.append_value(&a, 1));
  EXPECT_TRUE(rs.append_value(&b, 2));
  EXPECT_FALSE(rs.append_value(&a, 1));
  EXPECT_EQ(rs.size(), 2u);
}

TEST(ReadSet, DedupWindowIsBounded) {
  // A duplicate further back than kDedupWindow distinct entries is
  // re-appended — harmless (validated twice), and keeps the append O(1).
  ReadSet rs;
  tword a{1};
  std::vector<tword> spacers(ReadSet::kDedupWindow);
  EXPECT_TRUE(rs.append_value(&a, 1));
  for (std::size_t i = 0; i < spacers.size(); ++i) {
    spacers[i].store(static_cast<word_t>(i));
    EXPECT_TRUE(rs.append_value(&spacers[i], static_cast<word_t>(i)));
  }
  EXPECT_TRUE(rs.append_value(&a, 1));  // beyond the window: appended
  EXPECT_EQ(rs.size(), 2u + spacers.size());
}

TEST(ReadSet, CmpEntriesNeverDeduplicateAgainstValueEntries) {
  // A semantic EQ observed *false* must not be mistaken for (or swallow)
  // a plain value snapshot of the same address/operand.
  ReadSet rs;
  tword x{5};
  rs.append_cmp(&x, Rel::EQ, 3, /*outcome=*/false);  // x != 3 holds
  EXPECT_TRUE(rs.append_value(&x, 5));
  EXPECT_EQ(rs.size(), 2u);
  auto it = rs.begin();
  EXPECT_TRUE(it->semantic());
  EXPECT_FALSE((++it)->semantic());
}

TEST(ReadSet, MultiTermClauseValidatesAsUnitAndSkipsDedup) {
  // A composed disjunction occupies a head row plus continuation rows;
  // iteration stays clause-granular and holds() evaluates the whole OR.
  ReadSet rs;
  tword state{0};
  tword key{42};
  const CmpTerm terms[2] = {
      CmpTerm{&state, nullptr, 1, Rel::EQ},   // state == REMOVED(1)
      CmpTerm{&key, nullptr, 42, Rel::NEQ},   // key != probe
  };
  rs.append_clause(terms, 2, /*outcome=*/false);  // both false when recorded
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.rows(), 2u);
  EXPECT_TRUE(rs.begin()->holds());
  key.store(43);  // second disjunct flips: the OR outcome changes
  EXPECT_FALSE(rs.begin()->holds());
  key.store(42);
  state.store(1);  // first disjunct flips instead
  EXPECT_FALSE(rs.begin()->holds());
  // A same-address value append after the clause is NOT deduped against
  // clause rows.
  EXPECT_TRUE(rs.append_value(&state, 1));
  EXPECT_EQ(rs.size(), 2u);
}

TEST(ReadSet, ClauseIterationSkipsContinuationRows) {
  ReadSet rs;
  tword a{1};
  tword b{2};
  tword c{3};
  const CmpTerm terms[3] = {
      CmpTerm{&a, nullptr, 9, Rel::EQ},
      CmpTerm{&b, nullptr, 9, Rel::EQ},
      CmpTerm{&c, nullptr, 9, Rel::EQ},
  };
  rs.append_clause(terms, 3, /*outcome=*/false);
  rs.append_value(&a, 1);
  EXPECT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs.rows(), 4u);
  std::size_t clauses = 0;
  for (auto it = rs.begin(); it != rs.end(); ++it) {
    ++clauses;
    EXPECT_TRUE(it->holds());
  }
  EXPECT_EQ(clauses, 2u);
}

TEST(ReadSet, LongClauseRecordsEveryTerm) {
  // Validation must see every disjunct, not a prefix of the clause.
  ReadSet rs;
  std::vector<tword> w(5);
  std::vector<CmpTerm> terms;
  for (tword& x : w) terms.push_back(CmpTerm{&x, nullptr, 9, Rel::EQ});
  rs.append_clause(terms.data(), terms.size(), /*outcome=*/false);
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.rows(), 5u);
  EXPECT_TRUE(rs.begin()->holds());
  w.back().store(9);  // only the last disjunct flips
  EXPECT_FALSE(rs.begin()->holds());
}

TEST(ReadSetDeathTest, ClauseLongerThanOneHeadRowCanCountDies) {
  // A head row counts at most 255 terms; recording a prefix of a longer
  // OR would validate a different clause, so it fails in every build.
  std::vector<tword> w(ReadSet::kMaxClauseTerms + 1);
  std::vector<CmpTerm> terms;
  for (tword& x : w) terms.push_back(CmpTerm{&x, nullptr, 0, Rel::EQ});
  ReadSet rs;
  rs.append_clause(terms.data(), ReadSet::kMaxClauseTerms, true);
  EXPECT_EQ(rs.rows(), ReadSet::kMaxClauseTerms);
  EXPECT_DEATH(rs.append_clause(terms.data(), terms.size(), true),
               "cmp_or over 256 terms");
}

TEST(ReadSet, ZeroTermClauseRecordsNothing) {
  // An empty OR is constantly false — vacuous, nothing to revalidate.
  ReadSet rs;
  rs.append_clause(nullptr, 0, /*outcome=*/false);
  EXPECT_TRUE(rs.empty());
}

TEST(ReadSet, GrowthKeepsEveryClauseAcrossDoublingsAndClear) {
  // The buffer doubles several times on the way to kRows rows. A five-row
  // clause starts two rows short of every power-of-two row count, so one
  // straddles each doubling: growth must move the head row and its
  // continuations as one unit. The second round runs on the buffer that
  // clear() kept.
  constexpr std::size_t kRows = 1100;
  constexpr unsigned kTerms = 5;
  std::vector<tword> w(kRows);
  for (std::size_t i = 0; i < kRows; ++i) w[i].store(i);
  ReadSet rs;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::pair<std::size_t, unsigned>> want;  // first word, rows
    std::size_t i = 0;
    while (i < kRows) {
      if (std::has_single_bit(rs.rows() + 2) && rs.rows() >= 6 &&
          i + kTerms <= kRows) {
        CmpTerm terms[kTerms];
        for (unsigned t = 0; t < kTerms; ++t) {
          terms[t] = CmpTerm{&w[i + t], nullptr, i + t, Rel::EQ};
        }
        rs.append_clause(terms, kTerms, /*outcome=*/true);
        want.emplace_back(i, kTerms);
        i += kTerms;
      } else {
        if (i % 2) {
          rs.append_cmp(&w[i], Rel::EQ, i, /*outcome=*/true);
        } else {
          EXPECT_TRUE(rs.append_value(&w[i], i));
        }
        want.emplace_back(i, 1);
        ++i;
      }
    }
    ASSERT_EQ(rs.rows(), kRows);
    ASSERT_EQ(rs.size(), want.size());
    std::size_t c = 0;
    for (const auto clause : rs) {
      ASSERT_LT(c, want.size());
      const auto [first, nrows] = want[c];
      ASSERT_EQ(clause.count(), nrows) << "clause " << c;
      for (unsigned t = 0; t < nrows; ++t) {
        EXPECT_EQ(clause.row(t).addr, &w[first + t]) << "clause " << c;
        EXPECT_EQ(clause.row(t).operand, first + t) << "clause " << c;
      }
      EXPECT_TRUE(clause.holds()) << "clause " << c;
      ++c;
    }
    EXPECT_EQ(c, want.size());
    rs.clear();
    EXPECT_TRUE(rs.empty());
    EXPECT_TRUE(rs.begin() == rs.end());
  }
}

TEST(ReadSet, ClearResets) {
  ReadSet rs;
  tword x{1};
  rs.append_value(&x, 1);
  rs.clear();
  EXPECT_TRUE(rs.empty());
  EXPECT_EQ(rs.size(), 0u);
  // Post-clear, the dedup window must not see pre-clear entries.
  EXPECT_TRUE(rs.append_value(&x, 1));
}

}  // namespace
}  // namespace semstm
