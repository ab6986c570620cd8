// Read-set / compare-set storage.
//
// One entry type covers the whole validation spectrum of §4:
//  - a plain read is a single-term clause `addr EQ observed` expected true
//    (value-based validation is the EQ special case of semantic
//    validation);
//  - a semantic cmp is a single-term clause with the observed outcome;
//  - a composed conditional (paper §3, e.g. the hashtable probe's
//    `state == REMOVED || key != value`) is a multi-term *disjunctive*
//    clause validated as a unit: the entry holds while the OR of its terms
//    still evaluates to the recorded outcome. Conjunctions need no special
//    support — `A && B` observed true is simply two entries.
//
// Hot-path design (PR 3). The read-set is appended to on *every* plain
// read, so entry size is per-access metadata cost — the overhead the
// paper's headline claim is about. Two choices keep it small and the
// validation loop O(unique reads):
//  - Rows are 32 bytes: one flat term plus clause header, instead of a
//    fixed-width term array. Multi-term clauses (rare) span the head row
//    plus nterms-1 continuation rows; iteration is clause-granular.
//  - append_value deduplicates identical value snapshots against a small
//    trailing window, so a transaction that re-reads the same address
//    repeatedly validates it once, not once per read. Skipping is
//    semantics-preserving: validating `addr EQ observed` twice is exactly
//    validating it once, and within one transaction two plain reads of the
//    same address can only legally observe the same value (a change fails
//    the earlier entry during revalidation).
//  - The set owns its row buffer. An append is one capacity check and one
//    store, small enough to inline into every barrier whatever else the
//    translation unit holds; growth (doubling, kept across clear()) is a
//    cold out-of-line member, so no reallocation path sits in a barrier.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/semantics.hpp"
#include "core/word.hpp"

namespace semstm {

/// One 32-byte row. Head rows carry the clause header (nterms ≥ 1,
/// expected); continuation rows (terms 2..n of a composed clause) have
/// nterms == 0 and are only reachable through their head.
struct ReadEntry {
  const tword* addr = nullptr;
  const tword* rhs_addr = nullptr;  ///< non-null: address–address compare
  word_t operand = 0;
  Rel rel = Rel::EQ;
  std::uint8_t nterms = 1;  ///< rows in this clause (head); 0 = continuation
  bool expected = true;     ///< recorded outcome of the OR over the terms

  /// Re-evaluate this row's term against current memory.
  bool term_eval_now() const noexcept {
    const word_t lhs = addr->load(std::memory_order_acquire);
    const word_t rhs =
        rhs_addr ? rhs_addr->load(std::memory_order_acquire) : operand;
    return eval(rel, lhs, rhs);
  }
};
static_assert(sizeof(ReadEntry) == 32,
              "read-set rows are per-access metadata; keep them compact");

class ReadSet {
 public:
  /// Longest clause a head row can describe (its nterms is a uint8_t).
  static constexpr std::size_t kMaxClauseTerms = 255;

  /// How many trailing rows append_value scans for an identical value
  /// snapshot before appending. Repeated reads of the same address are
  /// temporally clustered (loop bodies, field re-reads), so a tiny window
  /// catches nearly all duplicates at O(1) cost per read.
  static constexpr std::size_t kDedupWindow = 4;

  /// Clause view over a head row and its continuation rows.
  class Clause {
   public:
    explicit Clause(const ReadEntry* head) : head_(head) {}

    unsigned count() const noexcept { return head_->nterms; }
    const ReadEntry& row(unsigned i) const noexcept { return head_[i]; }
    const tword* addr() const noexcept { return head_->addr; }
    bool expected() const noexcept { return head_->expected; }

    /// Semantic validation: does the clause still evaluate to `expected`?
    bool holds() const noexcept {
      bool v = false;
      for (unsigned i = 0; i < head_->nterms && !v; ++i) {
        v = head_[i].term_eval_now();
      }
      return v == head_->expected;
    }

    /// True when the clause records a *semantic* observation (cmp/cmp2 or
    /// a composed clause) rather than a plain read's value snapshot — used
    /// by abort-cause attribution to split kReadValidation from
    /// kCmpRevalidation. An EQ compare against an immediate that was
    /// observed true is structurally identical to a plain read and lands
    /// in the read bucket; the two are also validated identically, so the
    /// attribution loses nothing.
    bool semantic() const noexcept {
      return head_->nterms != 1 || !head_->expected ||
             head_->rel != Rel::EQ || head_->rhs_addr != nullptr;
    }

   private:
    const ReadEntry* head_;
  };

  /// Clause-granular iterator: ++ skips a head row and its continuations.
  class const_iterator {
   public:
    struct ArrowProxy {
      Clause c;
      const Clause* operator->() const noexcept { return &c; }
    };

    explicit const_iterator(const ReadEntry* p) : p_(p) {}
    Clause operator*() const noexcept { return Clause(p_); }
    ArrowProxy operator->() const noexcept { return {Clause(p_)}; }
    const_iterator& operator++() noexcept {
      p_ += p_->nterms;
      return *this;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return p_ == o.p_;
    }
    bool operator!=(const const_iterator& o) const noexcept {
      return p_ != o.p_;
    }

   private:
    const ReadEntry* p_;
  };

  /// Record a plain read's value snapshot. Returns false when an identical
  /// entry (same address, same observed value) sits within the dedup
  /// window — the duplicate is skipped.
  bool append_value(const tword* addr, word_t observed) {
    const std::size_t n = rows_;
    const std::size_t lookback = n < kDedupWindow ? n : kDedupWindow;
    for (std::size_t i = 0; i < lookback; ++i) {
      const ReadEntry& p = buf_[n - 1 - i];
      // nterms == 1 excludes clause heads AND continuation rows (0).
      if (p.addr == addr && p.operand == observed && p.nterms == 1 &&
          p.expected && p.rel == Rel::EQ && p.rhs_addr == nullptr) {
        return false;
      }
    }
    push(ReadEntry{addr, nullptr, observed, Rel::EQ, 1, true});
    return true;
  }

  /// Record a semantic compare with its observed outcome.
  void append_cmp(const tword* addr, Rel rel, word_t operand, bool outcome) {
    push(ReadEntry{addr, nullptr, operand, rel, 1, outcome});
  }

  void append_cmp2(const tword* a, Rel rel, const tword* b, bool outcome) {
    push(ReadEntry{a, b, 0, rel, 1, outcome});
  }

  /// Record a disjunctive clause (OR of all n terms) with its observed
  /// outcome. Every term is recorded: validation re-evaluates exactly the
  /// OR that was observed. A zero-term clause is vacuous (its OR is
  /// constantly false) and records nothing.
  void append_clause(const CmpTerm* terms, std::size_t n, bool outcome) {
    if (n == 0) return;
    if (n > kMaxClauseTerms) die_clause_too_long(n);
    if (cap_ - rows_ < n) [[unlikely]] grow(n);
    ReadEntry* row = buf_.get() + rows_;
    row[0] = ReadEntry{terms[0].addr, terms[0].rhs_addr, terms[0].operand,
                       terms[0].rel, static_cast<std::uint8_t>(n), outcome};
    for (std::size_t i = 1; i < n; ++i) {
      row[i] = ReadEntry{terms[i].addr, terms[i].rhs_addr, terms[i].operand,
                         terms[i].rel, 0, outcome};
    }
    rows_ += n;
    ++clauses_;
  }

  bool empty() const noexcept { return rows_ == 0; }
  /// Number of clauses (validation units), not rows.
  std::size_t size() const noexcept { return clauses_; }
  /// Number of 32-byte rows (clauses plus continuation rows).
  std::size_t rows() const noexcept { return rows_; }

  /// Empties the set and keeps its buffer for the next attempt.
  void clear() noexcept {
    rows_ = 0;
    clauses_ = 0;
  }

  const_iterator begin() const noexcept { return const_iterator(buf_.get()); }
  const_iterator end() const noexcept {
    return const_iterator(buf_.get() + rows_);
  }

 private:
  /// Rows the first growth allocates (2 KiB).
  static constexpr std::size_t kInitialRows = 64;

  /// Append one single-row clause.
  void push(const ReadEntry& e) {
    if (rows_ == cap_) [[unlikely]] grow(1);
    buf_[rows_++] = e;
    ++clauses_;
  }

  /// Double the buffer until `more` rows fit past the current ones. Out of
  /// line and cold, so every append site keeps only the check and the store.
  [[gnu::cold, gnu::noinline]] void grow(std::size_t more) {
    std::size_t cap = std::max(cap_, kInitialRows);
    while (cap - rows_ < more) cap *= 2;
    auto next = std::make_unique<ReadEntry[]>(cap);
    std::copy(buf_.get(), buf_.get() + rows_, next.get());
    buf_ = std::move(next);
    cap_ = cap;
  }

  /// Diagnose-and-die: a longer clause cannot be recorded whole, and
  /// recording part of it would validate a different OR than the one the
  /// transaction acted on. Fails in every build, like die_no_ctx.
  [[noreturn, gnu::cold, gnu::noinline]] static void die_clause_too_long(
      std::size_t n) noexcept {
    std::fprintf(stderr,
                 "semstm: cmp_or over %zu terms; one read-set clause "
                 "holds at most %zu\n",
                 n, kMaxClauseTerms);
    std::abort();
  }

  std::unique_ptr<ReadEntry[]> buf_;
  std::size_t rows_ = 0;  ///< rows in use
  std::size_t cap_ = 0;   ///< rows allocated
  std::size_t clauses_ = 0;
};

/// S-TL2 keeps semantic compares in a dedicated set with the same entry
/// layout (paper §4.2); alias for clarity at use sites.
using CompareSet = ReadSet;

}  // namespace semstm
