// S-TL2 (paper §4.2, Algorithm 7): TL2 extended with hybrid
// version/semantic validation.
//
// Compares live in a dedicated *compare-set* (address + relation), while
// plain reads keep TL2's orec-based read-set — two validators, one per
// set. Execution is split into three phases:
//
//   Phase 1 (before the first plain read): cmp operations validate the
//   compare-set and *extend* the transaction's start version, so semantic
//   operations never force version aborts among themselves. A locked orec
//   is waited out (bounded) rather than aborted on.
//
//   Phase 2 (after the first plain read): the snapshot is frozen; cmp
//   behaves like a read w.r.t. version checks but still records a semantic
//   entry, so commit-time validation can tolerate value changes that keep
//   the relation's outcome.
//
//   Commit: write orecs locked, then the global timestamp is advanced with
//   CAS (not fetch-add) after compare-set validation — the CAS failure
//   loop re-validates, which is the serialization-point argument of §5.2.
//   Validation is version-first: the orecs the cmp operands were loaded
//   under are checked like a TL2 read-set, and the clauses are
//   re-evaluated only when one of those orecs moved or is locked
//   (DESIGN.md §4 item 4).
//
// Stl2Core is a sealed sibling of Tl2Core over the shared Tl2CoreT logic:
// it shadows begin/commit/rollback and the raw() promotion hook and adds
// the compare-set machinery — all statically bound.
#pragma once

#include <cstdint>
#include <vector>

#include "algos/tl2.hpp"
#include "runtime/backoff.hpp"
#include "runtime/readset.hpp"

namespace semstm {

class Stl2Algorithm final : public Tl2Algorithm {
 public:
  explicit Stl2Algorithm(const AlgoOptions& opts = {}) : Tl2Algorithm(opts) {}
  const char* name() const noexcept override { return "stl2"; }
  bool semantic() const noexcept override { return true; }
};

class Stl2Core final : public Tl2CoreT<Stl2Core> {
 public:
  explicit Stl2Core(Tl2Algorithm& shared) : Tl2CoreT(shared) {}

  static constexpr AlgoId kId = AlgoId::kStl2;
  static constexpr const char* kName = "stl2";

  void begin() {
    compares_.clear();
    cmp_orecs_.clear();
    Tl2CoreT::begin();
  }

  void rollback() {
    compares_.clear();
    Tl2CoreT::rollback();
  }

  /// Alg. 7 Compare (lines 4-36).
  bool cmp(const tword* addr, Rel rel, word_t operand) {
    return compare(addr, rel, operand, /*stable=*/false);
  }

  /// Stable compare (semstm::cmp_stable, DESIGN.md §4.7): read_for_cmp's
  /// phase rules still run, so a phase-1 load newer than start_version_
  /// still extends the snapshot. Only the compare-set append is skipped
  /// when the relation holds: the caller declares it permanent, so it
  /// holds at every later start version and at commit. A relation that
  /// does not hold is recorded as cmp records it.
  bool cmp_stable(const tword* addr, Rel rel, word_t operand) {
    return compare(addr, rel, operand, /*stable=*/true);
  }

  /// Address–address compare (paper §3 extension). Both loads go through
  /// the phase-aware consistent read; the entry revalidates the relation.
  bool cmp2(const tword* a, Rel rel, const tword* b) {
    sched::tick(sched::Cost::kCmp);
    ++stats.compares2;
    trace_semantic_op(obs::SemanticOp::kCmp2, a);
    WriteEntry* ea = writes_.find(a);
    WriteEntry* eb = writes_.find(b);
    if (ea != nullptr || eb != nullptr) {
      const word_t va = ea ? raw(a, ea) : read(a);
      const word_t vb = eb ? raw(b, eb) : read(b);
      return eval(rel, va, vb);
    }
    const word_t va = read_for_cmp(a);
    const bool first_extend = phase1_pending_extend_;
    const word_t vb = read_for_cmp(b);
    const bool result = eval(rel, va, vb);
    compares_.append_cmp2(a, rel, b, result);
    ++stats.readset_adds;
    if (first_extend || phase1_pending_extend_) extend_start_version();
    return result;
  }

  /// Composed conditional (paper §3): every term operand is loaded through
  /// the phase-aware consistent read, the clause joins the compare-set as
  /// one entry, and phase 1 extends the snapshot if any load ran ahead.
  bool cmp_or(const CmpTerm* terms, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (writes_.find(terms[i].addr) != nullptr ||
          (terms[i].rhs_addr != nullptr &&
           writes_.find(terms[i].rhs_addr) != nullptr)) {
        // Buffered operands: plain evaluation, whose reads tick kRead —
        // do not also charge kCmp for a semantic op that never happens.
        return generic_cmp_or(*this, terms, n);
      }
    }
    sched::tick(sched::Cost::kCmp);  // semantic path only
    ++stats.compares;
    trace_semantic_op(obs::SemanticOp::kCmpOr, n > 0 ? terms[0].addr : nullptr);
    bool outcome = false;
    bool extend = false;
    for (std::size_t i = 0; i < n; ++i) {
      const word_t lhs = read_for_cmp(terms[i].addr);
      extend = extend || phase1_pending_extend_;
      word_t rhs = terms[i].operand;
      if (terms[i].rhs_addr != nullptr) {
        rhs = read_for_cmp(terms[i].rhs_addr);
        extend = extend || phase1_pending_extend_;
      }
      outcome = outcome || eval(terms[i].rel, lhs, rhs);
    }
    compares_.append_clause(terms, n, outcome);
    ++stats.readset_adds;
    if (extend) {
      phase1_pending_extend_ = true;
      extend_start_version();
    }
    return outcome;
  }

  /// Deferred increment — identical write-set treatment to S-NOrec.
  void inc(tword* addr, word_t delta) {
    sched::tick(sched::Cost::kInc);
    ++stats.increments;
    trace_semantic_op(obs::SemanticOp::kInc, addr);
    writes_.put_inc(addr, delta);
  }

  /// Alg. 7 Commit (lines 66-77).
  void commit() {
    sched::tick(sched::Cost::kCommit);
    if (writes_.empty()) {
      compares_.clear();
      finish();
      return;
    }
    acquire_write_locks();
    sched::sched_point();  // write orecs locked, clock not yet advanced
    std::uint64_t time;
    for (;;) {
      time = shared_.clock().load();
      // time + 1 == 0 would wrap the version clock (epoch end, tagged for
      // the cause histogram's completeness).
      if (time + 1 == 0) fail_locked(obs::AbortCause::kClockOverflow, nullptr);
      // Version pass first; the clauses are re-evaluated only when an
      // operand's orec moved. No waiting here: we hold write locks, and
      // hold-and-wait across committers livelocks into timeout aborts.
      // Fail fast instead — TL2's own ValidateReadSet makes the same choice.
      if (time != start_version_ && !cmp_versions_hold()) {
        if (!compare_set_holds(/*may_wait=*/false)) {
          fail_locked(fail_cause_, conflict_, fail_orec_, fail_owner_);
        }
        // Every clause held at `time`. With no plain read to keep
        // consistent that is a valid snapshot (the extension step, lines
        // 19-25), so a lost CAS re-runs only the version pass.
        if (reads_.empty()) start_version_ = time;
      }
      if (shared_.clock().try_advance(time)) break;
      // Another writer serialized between validation and CAS: its commit
      // may flip a compare outcome, so validate again (lines 68-72).
    }
    sched::sched_point();  // serialization point taken, write-back pending
    const std::uint64_t wv = time + 1;
    if (time != start_version_ && !readset_holds()) {
      fail_locked(fail_cause_, conflict_, fail_orec_, fail_owner_);
    }
    write_back(wv);
    compares_.clear();
    finish();
  }

  /// RAW promotion: a buffered increment read back becomes a conventional
  /// read + write (read part via the consistent orec-checked read).
  /// Shadows the base hook; Tl2CoreT::read reaches it through self().
  word_t raw(const tword* addr, WriteEntry* e) {
    if (e->kind == WriteKind::kIncrement) {
      ++stats.promotions;
      trace_semantic_op(obs::SemanticOp::kPromote, addr);
      const word_t current = read_shared(addr);  // appends orec to read-set
      e->value += current;
      e->kind = WriteKind::kWrite;
    }
    return e->value;
  }

 private:
  /// cmp and cmp_stable: one read and evaluation path, which differ only in
  /// whether a held outcome joins the compare-set. `stable` is a run-time
  /// flag for the reason SnorecCore::compare gives.
  bool compare(const tword* addr, Rel rel, word_t operand, bool stable) {
    sched::tick(sched::Cost::kCmp);
    ++stats.compares;
    trace_semantic_op(obs::SemanticOp::kCmp, addr);
    if (WriteEntry* e = writes_.find(addr)) {
      return eval(rel, raw(addr, e), operand);
    }
    const word_t val = read_for_cmp(addr);
    const bool result = eval(rel, val, operand);
    if (stable && result) {
      ++stats.readset_dups;
    } else {
      compares_.append_cmp(addr, rel, operand, result);
      ++stats.readset_adds;
    }
    if (phase1_pending_extend_) extend_start_version();
    return result;
  }

  /// Phase-aware consistent load for cmp operands. In phase 1 (empty
  /// read-set) locked orecs and version changes are retried/waited, and a
  /// successful load past start_version_ schedules a snapshot extension;
  /// in phase 2 the TL2 read rules apply but *without* joining the
  /// orec read-set (the semantic entry subsumes it).
  word_t read_for_cmp(const tword* addr) {
    phase1_pending_extend_ = false;
    Orec& o = shared_.orecs().of(addr);
    if (reads_.empty()) {  // Phase 1 (lines 10-25)
      for (;;) {
        const std::uint64_t v1 = o.version.load(std::memory_order_acquire);
        if (o.locked_by_other(this)) {
          // Wait until unlocked instead of aborting (lines 11-12).
          if (!bounded_wait([&] { return !o.locked_by_other(this); })) {
            // starvation timeout (§4.2)
            abort_tx(obs::AbortCause::kWriteLockConflict, addr, orec_ix(&o),
                     o.owner_hint());
          }
          continue;
        }
        const word_t val = addr->load(std::memory_order_acquire);
        if (o.locked_by_other(this)) continue;
        const std::uint64_t v2 = o.version.load(std::memory_order_acquire);
        if (v1 != v2) continue;  // concurrent version move: retry (line 16)
        if (v1 > start_version_) phase1_pending_extend_ = true;
        track_cmp_orec(&o);
        return val;
      }
    }
    // Phase 2 (lines 26-34): frozen snapshot, TL2-style checks.
    const std::uint64_t v1 = o.version.load(std::memory_order_acquire);
    if (o.locked_by_other(this)) {
      abort_tx(obs::AbortCause::kWriteLockConflict, addr, orec_ix(&o),
               o.owner_hint());
    }
    const word_t val = addr->load(std::memory_order_acquire);
    if (o.locked_by_other(this)) {
      abort_tx(obs::AbortCause::kWriteLockConflict, addr, orec_ix(&o),
               o.owner_hint());
    }
    const std::uint64_t v2 = o.version.load(std::memory_order_acquire);
    if (v1 != v2 || v1 > start_version_) {
      abort_tx(obs::AbortCause::kReadValidation, addr, orec_ix(&o),
               o.owner_hint());
    }
    track_cmp_orec(&o);
    return val;
  }

  /// Record the orec a cmp operand was loaded under, deduplicated through
  /// a direct-mapped cache of its own (the track_orec scheme). The list is
  /// kept apart from reads_, whose emptiness is the phase-1 flag.
  void track_cmp_orec(const Orec* o) {
    const std::size_t slot = shared_.orecs().index(o) & (kSeenSlots - 1);
    Seen& s = cmp_seen_[slot];
    if (s.orec == o && s.epoch == attempt_epoch_) return;
    s.orec = o;
    s.epoch = attempt_epoch_;
    cmp_orecs_.push_back(o);
  }

  /// Version pass over the compare-set, O(unique orecs). Every clause held
  /// its recorded outcome at start_version_: phase-1 loads fit it or
  /// extend it, phase-2 loads are bounded by it, and commit adopts a
  /// timestamp only after re-evaluating every clause there. So when every
  /// operand's orec is still unlocked by others and no newer than
  /// start_version_, no operand changed and every clause keeps its
  /// outcome. False only means "cannot tell from versions": the caller
  /// re-evaluates the clauses.
  bool cmp_versions_hold() {
    obs::ScopedLatency lat(latency_sink(stats.lat_validate));
    ++stats.validations;
    for (const Orec* o : cmp_orecs_) {
      sched::tick(sched::Cost::kValidateEntry);
      ++stats.validate_entries;
      if (o->locked_by_other(this) ||
          o->version.load(std::memory_order_acquire) > start_version_) {
        return false;
      }
    }
    return true;
  }

  /// Lines 19-25: validate the compare-set at a stable timestamp, then
  /// adopt that timestamp as the new start version.
  void extend_start_version() {
    phase1_pending_extend_ = false;
    for (;;) {
      const std::uint64_t time = shared_.clock().load();
      if (!compare_set_holds(/*may_wait=*/true)) {
        abort_tx(fail_cause_, conflict_, fail_orec_, fail_owner_);
      }
      if (time == shared_.clock().load()) {
        start_version_ = time;
        return;
      }
      // A writer committed during validation: retry (line 23).
    }
  }

  /// Alg. 7 ValidateCompareSet (lines 56-65) as a predicate: semantic
  /// revalidation. A locked orec means a writer may be mid-write-back, so
  /// the entry cannot be evaluated: wait it out (bounded, §4.2's timeout
  /// mechanism) when we hold no locks ourselves, fail fast otherwise.
  /// On failure fail_cause_/conflict_ carry the attribution: a stuck lock
  /// is a write-lock conflict, a flipped outcome a compare-set
  /// revalidation failure — the signature abort of the semantic design.
  /// At commit it runs only when cmp_versions_hold() cannot vouch.
  bool compare_set_holds(bool may_wait) {
    obs::ScopedLatency lat(latency_sink(stats.lat_validate));
    ++stats.validations;
    for (const auto clause : compares_) {
      sched::tick(sched::Cost::kValidateEntry);
      ++stats.validate_entries;
      for (unsigned i = 0; i < clause.count(); ++i) {
        const ReadEntry& term = clause.row(i);
        if (!wait_unlocked(term.addr, may_wait)) {
          note_cmp_lock_conflict(term.addr);
          return false;
        }
        if (term.rhs_addr != nullptr &&
            !wait_unlocked(term.rhs_addr, may_wait)) {
          note_cmp_lock_conflict(term.rhs_addr);
          return false;
        }
      }
      if (!clause.holds()) {  // semantic validation (line 63-64)
        // No single orec: the flip is a property of the clause's value(s),
        // so attribution stays address-granular (region-keyed site).
        fail_cause_ = obs::AbortCause::kCmpRevalidation;
        conflict_ = clause.addr();
        fail_orec_ = obs::kNoOrec;
        fail_owner_ = nullptr;
        return false;
      }
    }
    return true;
  }

  /// Stuck-lock attribution for compare-set validation: the conflicting
  /// orec is a function of the term's address, so the site and its owner
  /// edge are recoverable here even though wait_unlocked only reports a
  /// bool.
  void note_cmp_lock_conflict(const tword* addr) {
    Orec& o = shared_.orecs().of(addr);
    fail_cause_ = obs::AbortCause::kWriteLockConflict;
    conflict_ = addr;
    fail_orec_ = orec_ix(&o);
    fail_owner_ = o.owner_hint();
  }

  /// False = the orec stayed locked by another committer and the caller
  /// must treat the validation as failed.
  bool wait_unlocked(const tword* addr, bool may_wait) {
    Orec& o = shared_.orecs().of(addr);
    if (!o.locked_by_other(this)) return true;
    if (!may_wait) return false;
    // Execution phase holds no locks, so a generous wait cannot deadlock;
    // commit write-backs are short, making timeouts rare.
    return bounded_wait([&] { return !o.locked_by_other(this); }, 512);
  }

  CompareSet compares_;
  std::vector<const Orec*> cmp_orecs_;  ///< orecs of cmp operands, deduped
  Seen cmp_seen_[kSeenSlots];           ///< dedup cache for cmp_orecs_
  bool phase1_pending_extend_ = false;
};

static_assert(HasStableCmp<Stl2Core>,
              "cmp_stable(tx, ...) must reach Stl2Core::cmp_stable");

}  // namespace semstm
