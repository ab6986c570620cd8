// S-NOrec (paper §4.1, Algorithm 6): NOrec extended with TM-friendly
// semantics.
//
//  - cmp/cmp2 record the conditional expression (or its inverse when it
//    evaluated false) in the read-set instead of the raw value; the shared
//    Validate procedure then performs *semantic* validation, of which
//    NOrec's value-based validation is the EQ special case.
//  - inc stores a delta-flagged entry in the write-set and applies it at
//    commit while the global lock is held.
//  - Read-after-write over an increment entry *promotes* it to a
//    conventional read + write (Alg. 6 lines 17-23).
//
// S-NOrec keeps NOrec's single commit-time serialization point, hence its
// privatization/publication safety (paper §4.1).
//
// Conflict cartography: like NOrec, every abort is value/relation-based
// under the global seqlock — address-granular, no orec index, no owner
// edge (see NorecCoreT::validate). S-NOrec's signature in a hot-site table
// is kCmpRevalidation counts *replacing* kReadValidation counts on the
// same sites, and — when the relation tolerates the churn — sites
// disappearing outright (EXPERIMENTS.md, contention cartography).
//
// SnorecCore is a sealed sibling of NorecCore over the shared NorecCoreT
// logic: it shadows the raw() promotion hook and supplies native semantic
// ops — all statically bound, no virtual dispatch anywhere in the core.
#pragma once

#include "algos/norec.hpp"

namespace semstm {

class SnorecAlgorithm final : public NorecAlgorithm {
 public:
  const char* name() const noexcept override { return "snorec"; }
  bool semantic() const noexcept override { return true; }
};

class SnorecCore final : public NorecCoreT<SnorecCore> {
 public:
  explicit SnorecCore(NorecAlgorithm& shared) : NorecCoreT(shared) {}

  static constexpr AlgoId kId = AlgoId::kSnorec;
  static constexpr const char* kName = "snorec";

  /// Alg. 6 Compare (lines 29-36).
  bool cmp(const tword* addr, Rel rel, word_t operand) {
    return compare(addr, rel, operand, /*stable=*/false);
  }

  /// Stable compare (semstm::cmp_stable, DESIGN.md §4.7): the value comes
  /// from read_valid at snapshot_, and a relation the caller declares
  /// permanent still holds at every later snapshot, so no validation can
  /// need its entry. A relation that does not hold is recorded as cmp
  /// records it.
  bool cmp_stable(const tword* addr, Rel rel, word_t operand) {
    return compare(addr, rel, operand, /*stable=*/true);
  }

  /// Address–address compare (the paper's _ITM_S2R case; §3/§6). Both
  /// words are read through ReadValid, so they belong to one consistent
  /// snapshot; the recorded entry then revalidates the *relation*.
  bool cmp2(const tword* a, Rel rel, const tword* b) {
    sched::tick(sched::Cost::kCmp);
    ++stats.compares2;
    trace_semantic_op(obs::SemanticOp::kCmp2, a);
    WriteEntry* ea = writes_.find(a);
    WriteEntry* eb = writes_.find(b);
    if (ea != nullptr || eb != nullptr) {
      // Any buffered side degrades to plain handling: buffered values are
      // private, so only the non-buffered side needs (value) validation.
      const word_t va = ea ? raw(a, ea) : read(a);
      const word_t vb = eb ? raw(b, eb) : read(b);
      return eval(rel, va, vb);
    }
    const word_t va = read_valid(a);
    const word_t vb = read_valid(b);
    const bool result = eval(rel, va, vb);
    reads_.append_cmp2(a, rel, b, result);
    ++stats.readset_adds;
    return result;
  }

  /// Composed conditional (paper §3): all term operands are loaded at one
  /// consistent snapshot, the OR is evaluated, and a single clause entry
  /// joins the read-set — validated as a unit thereafter.
  bool cmp_or(const CmpTerm* terms, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (writes_.find(terms[i].addr) != nullptr ||
          (terms[i].rhs_addr != nullptr &&
           writes_.find(terms[i].rhs_addr) != nullptr)) {
        // Buffered operands are private: degrade to plain evaluation (the
        // involved plain reads record value entries and tick kRead as
        // usual — charging kCmp on top would double-bill this path).
        return generic_cmp_or(*this, terms, n);
      }
    }
    sched::tick(sched::Cost::kCmp);  // semantic path only
    ++stats.compares;
    trace_semantic_op(obs::SemanticOp::kCmpOr, n > 0 ? terms[0].addr : nullptr);
    bool outcome = false;
    for (;;) {
      if (snapshot_ != shared_.lock().load()) snapshot_ = validate();
      outcome = false;
      for (std::size_t i = 0; i < n && !outcome; ++i) {
        outcome = terms[i].eval_now();
      }
      if (snapshot_ == shared_.lock().load()) break;  // consistent snapshot
    }
    reads_.append_clause(terms, n, outcome);
    ++stats.readset_adds;
    return outcome;
  }

  /// Alg. 6 Increment (lines 44-49): defer the delta to commit time.
  void inc(tword* addr, word_t delta) {
    sched::tick(sched::Cost::kInc);
    ++stats.increments;
    trace_semantic_op(obs::SemanticOp::kInc, addr);
    writes_.put_inc(addr, delta);
  }

  /// Alg. 6 RAW (lines 17-23): reading an address with a pending increment
  /// promotes the increment to a conventional read + write. Shadows the
  /// base hook; NorecCoreT::read reaches it through self().
  word_t raw(const tword* addr, WriteEntry* e) {
    if (e->kind == WriteKind::kIncrement) {
      ++stats.promotions;
      trace_semantic_op(obs::SemanticOp::kPromote, addr);
      const word_t current = read_valid(addr);
      track_value(addr, current);            // the read part of the promotion
      e->value += current;                   // delta + observed value
      e->kind = WriteKind::kWrite;
    }
    return e->value;
  }

 private:
  /// cmp and cmp_stable: one read and evaluation path, which differ only in
  /// whether a held outcome is recorded. `stable` is a run-time flag, not a
  /// template parameter: two instantiations doubled the read-set append
  /// sites, and GCC then stopped inlining the append into NOrec's read
  /// barrier (perfbench vacation-1t NOrec −17%, EXPERIMENTS.md).
  bool compare(const tword* addr, Rel rel, word_t operand, bool stable) {
    sched::tick(sched::Cost::kCmp);
    ++stats.compares;
    trace_semantic_op(obs::SemanticOp::kCmp, addr);
    if (WriteEntry* e = writes_.find(addr)) {
      return eval(rel, raw(addr, e), operand);
    }
    const word_t v = read_valid(addr);
    const bool result = eval(rel, v, operand);
    if (stable && result) {
      ++stats.readset_dups;
    } else {
      reads_.append_cmp(addr, rel, operand, result);
      ++stats.readset_adds;
    }
    return result;
  }
};

static_assert(HasStableCmp<SnorecCore>,
              "cmp_stable(tx, ...) must reach SnorecCore::cmp_stable");

}  // namespace semstm
