// NOrec [Dalessandro, Spear, Scott — PPoPP 2010]: value-based validation,
// no ownership records, commit phases serialized by one global
// timestamped lock (SeqLock).
//
// This is the paper's value-based baseline. Semantic operations (cmp/inc)
// lower to plain reads/writes through the generic_* delegations — i.e.
// NOrec treats them conservatively, exactly like the unmodified algorithm
// in libitm.
//
// Layout (DESIGN.md §4.12): NorecCoreT is the CRTP descriptor logic —
// non-virtual, statically dispatched — shared with S-NOrec, which
// customizes only the read-after-write hook (`raw`) and the semantic ops
// by *shadowing*, never overriding. NorecCore is the sealed plain-NOrec
// instantiation.
#pragma once

#include "core/algorithm.hpp"
#include "core/tx.hpp"
#include "obs/abort_cause.hpp"
#include "obs/latency_histogram.hpp"
#include "runtime/global_clock.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/readset.hpp"
#include "runtime/writeset.hpp"
#include "sched/yieldpoint.hpp"

namespace semstm {

class NorecAlgorithm : public Algorithm {
 public:
  const char* name() const noexcept override { return "norec"; }
  bool semantic() const noexcept override { return false; }

  SeqLock& lock() noexcept { return lock_; }

 private:
  SeqLock lock_;
};

/// NOrec descriptor logic, statically dispatched. `Derived` supplies the
/// read-after-write hook raw(addr, entry) — plain NOrec returns the
/// buffered value, S-NOrec promotes pending increments — resolved at
/// compile time through the CRTP self() cast.
template <typename Derived>
class NorecCoreT : public TxCoreBase {
 public:
  explicit NorecCoreT(NorecAlgorithm& shared) : shared_(shared) {
    bind_gate(shared.serial_gate());
  }

  void begin() {
    gate_enter();  // quiesce while a serial-irrevocable transaction runs
    reads_.clear();
    writes_.clear();
    snapshot_ = shared_.lock().sample_even();  // Alg. 6 Start (lines 24-28)
  }

  word_t read(const tword* addr) {
    sched::tick(sched::Cost::kRead);
    ++stats.reads;
    if (WriteEntry* e = writes_.find(addr)) return self().raw(addr, e);
    const word_t v = read_valid(addr);
    track_value(addr, v);  // plain read recorded as semantic EQ
    return v;
  }

  void write(tword* addr, word_t value) {
    sched::tick(sched::Cost::kWrite);
    ++stats.writes;
    writes_.put_write(addr, value);
  }

  void commit() {
    sched::tick(sched::Cost::kCommit);
    if (writes_.empty()) {  // read-only: already consistent at snapshot_
      finish();
      return;
    }
    // snapshot_ is always even; the last even value would wrap the seqlock
    // through odd into 0 on unlock, so the epoch ends here (never reached
    // in practice — tagged for the cause histogram's completeness).
    if (snapshot_ + 2 == 0) abort_tx(obs::AbortCause::kClockOverflow);
    // Own every line the write-back stores to before the window opens, so
    // the stores under the seqlock hit this core's cache (DESIGN.md §4.16).
    for (const WriteEntry& e : writes_) prefetch_for_write(e.addr);
    while (!shared_.lock().try_lock(snapshot_)) snapshot_ = validate();
    sched::sched_point();  // seqlock held (odd), write-back not started
    // Exclusive: write back (increments resolve against current memory).
    for (const WriteEntry& e : writes_) {
      const word_t v = e.kind == WriteKind::kWrite
                           ? e.value
                           : e.addr->load(std::memory_order_relaxed) + e.value;
      e.addr->store(v, std::memory_order_release);
      sched::sched_point();  // partial write-back visible under odd seqlock
    }
    shared_.lock().unlock(snapshot_ + 1);
    finish();
  }

  void rollback() { finish(); }

 protected:
  Derived& self() noexcept { return static_cast<Derived&>(*this); }

  /// Read-after-write. Plain NOrec only ever holds kWrite entries (its inc
  /// delegates to read+write); S-NOrec shadows this to promote increments.
  word_t raw(const tword* addr, WriteEntry* e) {
    (void)addr;
    return e->value;
  }

  /// Append a value snapshot to the read-set, counting dedup economy:
  /// ReadSet::append_value skips entries identical to one in its trailing
  /// window, which keeps validate() O(unique reads) under repeated reads.
  void track_value(const tword* addr, word_t observed) {
    if (reads_.append_value(addr, observed)) {
      ++stats.readset_adds;
    } else {
      ++stats.readset_dups;
    }
  }

  /// Alg. 6 ReadValid (lines 10-16): re-validate whenever the global
  /// timestamp moved since our snapshot, then (re)read.
  word_t read_valid(const tword* addr) {
    word_t v = addr->load(std::memory_order_acquire);
    while (snapshot_ != shared_.lock().load()) {
      snapshot_ = validate();
      v = addr->load(std::memory_order_acquire);
    }
    return v;
  }

  /// Alg. 6 Validate (lines 1-9): semantic validation of the read-set at a
  /// stable (even) timestamp; aborts the transaction on failure. A failing
  /// plain-read entry is a value-validation abort; a failing cmp/clause
  /// entry means the relation's outcome flipped — the distinction S-NOrec's
  /// evaluation story rests on.
  ///
  /// Conflict cartography: the abort carries only the clause's address —
  /// NOrec detects conflicts by value under a single global seqlock, so
  /// there is no orec index and no owner identity to report (the writer
  /// already committed and is gone). The conflict map therefore keys these
  /// sites by address region (obs/conflict_map.hpp), never by orec, and
  /// NOrec-family hot sites carry no aborter->owner edges by construction.
  ///
  /// Out of line: read_valid() inlines into every read site, and this slow
  /// path (taken only when a writer committed since the snapshot) would
  /// drag its nested loops into each of them.
  [[gnu::noinline]] std::uint64_t validate() {
    obs::ScopedLatency lat(latency_sink(stats.lat_validate));
    for (;;) {
      const std::uint64_t time = shared_.lock().sample_even();
      ++stats.validations;
      for (const auto clause : reads_) {
        sched::tick(sched::Cost::kValidateEntry);
        ++stats.validate_entries;
        if (!clause.holds()) {
          abort_tx(clause.semantic() ? obs::AbortCause::kCmpRevalidation
                                     : obs::AbortCause::kReadValidation,
                   clause.addr());
        }
      }
      if (time == shared_.lock().load()) return time;
      // A writer committed mid-validation; retry at the new timestamp.
    }
  }

  /// Attempt epilogue, shared by commit and rollback: the gate must see
  /// the transaction as no longer in flight on every exit path.
  void finish() noexcept {
    gate_exit();
    reads_.clear();
    writes_.clear();
  }

  NorecAlgorithm& shared_;
  ReadSet reads_;
  WriteSet writes_;
  std::uint64_t snapshot_ = 0;
};

/// Plain NOrec, sealed. Semantic ops lower to read/write (generic_*).
class NorecCore final : public NorecCoreT<NorecCore> {
 public:
  using NorecCoreT::NorecCoreT;

  static constexpr AlgoId kId = AlgoId::kNorec;
  static constexpr const char* kName = "norec";

  bool cmp(const tword* addr, Rel rel, word_t operand) {
    return generic_cmp(*this, addr, rel, operand);
  }
  bool cmp2(const tword* a, Rel rel, const tword* b) {
    return generic_cmp2(*this, a, rel, b);
  }
  bool cmp_or(const CmpTerm* terms, std::size_t n) {
    return generic_cmp_or(*this, terms, n);
  }
  void inc(tword* addr, word_t delta) { generic_inc(*this, addr, delta); }
};

}  // namespace semstm
