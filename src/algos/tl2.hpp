// TL2 [Dice, Shalev, Shavit — DISC 2006]: version-based validation over a
// table of ownership records, global version clock, commit-time locking.
//
// This is the paper's version-based baseline. As in the paper, semantic
// operations delegate to plain reads/writes (generic_* delegations).
//
// Layout (DESIGN.md §4.12): Tl2CoreT holds the CRTP descriptor logic
// shared with S-TL2 — non-virtual, statically dispatched; the
// read-after-write hook raw() is shadowed, not overridden. Tl2Core is the
// sealed plain-TL2 instantiation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/algorithm.hpp"
#include "core/tx.hpp"
#include "obs/abort_cause.hpp"
#include "obs/latency_histogram.hpp"
#include "runtime/global_clock.hpp"
#include "runtime/orec.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/writeset.hpp"
#include "sched/yieldpoint.hpp"

namespace semstm {

class Tl2Algorithm : public Algorithm {
 public:
  explicit Tl2Algorithm(const AlgoOptions& opts = {}) : orecs_(opts.orec_log2) {}

  const char* name() const noexcept override { return "tl2"; }
  bool semantic() const noexcept override { return false; }

  VersionClock& clock() noexcept { return clock_; }
  OrecTable& orecs() noexcept { return orecs_; }

 private:
  VersionClock clock_;
  OrecTable orecs_;
};

/// TL2 descriptor logic, statically dispatched. `Derived` supplies the
/// read-after-write hook raw(addr, entry) — plain TL2 returns the buffered
/// value, S-TL2 promotes pending increments.
template <typename Derived>
class Tl2CoreT : public TxCoreBase {
 public:
  explicit Tl2CoreT(Tl2Algorithm& shared) : shared_(shared) {
    bind_gate(shared.serial_gate());
  }

  void begin() {
    gate_enter();  // quiesce while a serial-irrevocable transaction runs
    reads_.clear();
    writes_.clear();
    ++attempt_epoch_;  // invalidates the whole dedup cache in O(1)
    start_version_ = shared_.clock().load();
  }

  word_t read(const tword* addr) {
    sched::tick(sched::Cost::kRead);
    ++stats.reads;
    if (WriteEntry* e = writes_.find(addr)) return self().raw(addr, e);
    return read_shared(addr);
  }

  void write(tword* addr, word_t value) {
    sched::tick(sched::Cost::kWrite);
    ++stats.writes;
    writes_.put_write(addr, value);
  }

  void commit() {
    sched::tick(sched::Cost::kCommit);
    if (writes_.empty()) {  // read-only transactions commit for free
      finish();
      return;
    }
    acquire_write_locks();
    sched::sched_point();  // all write orecs locked, clock not yet bumped
    const ClockStamp st = shared_.clock().fetch_increment();
    sched::sched_point();  // wv drawn; readers may now see wv-readable state
    // A wrapped write version would order *before* every recorded orec
    // version: the clock epoch is over (tagged, though unreachable in any
    // realistic run).
    if (!st.exclusive) ++stats.clock_adoptions;
    if (st.wv == 0) fail_locked(obs::AbortCause::kClockOverflow, nullptr);
    // rv + 1 == wv with an EXCLUSIVE advance means no writer serialized in
    // between: skip validation. An adopted (GV4-shared) stamp never skips:
    // two adopters sharing wv == rv+1 could each have read state the other
    // is about to overwrite — write skew the skip would wave through. The
    // unique CAS winner is safe because any concurrent committer holds its
    // full lock set before reading the clock, so the winner's validation
    // (or its reads' owner checks) observes those locks. DESIGN.md §4.16.
    if ((!st.exclusive || st.wv != start_version_ + 1) && !readset_holds()) {
      fail_locked(fail_cause_, conflict_, fail_orec_, fail_owner_);
    }
    write_back(st.wv);
    finish();
  }

  void rollback() {
    release_locks();
    finish();
  }

 protected:
  Derived& self() noexcept { return static_cast<Derived&>(*this); }

  /// Read-after-write hook (S-TL2 shadows to promote increments).
  word_t raw(const tword* addr, WriteEntry* e) {
    (void)addr;
    return e->value;
  }

  /// Slot index of an orec, as abort attribution (obs/conflict_map.hpp
  /// keys hot sites on it for the orec-based algorithms).
  std::uint32_t orec_ix(const Orec* o) const noexcept {
    return static_cast<std::uint32_t>(shared_.orecs().index(o));
  }

  /// Consistent shared read (Alg. 7 lines 40-49): version/owner sandwich
  /// around the value load, then record the orec in the read-set. Every
  /// abort carries the conflicting orec's index and (best-effort) owner —
  /// the aborter->owner edge the conflict map accumulates.
  word_t read_shared(const tword* addr) {
    Orec& o = shared_.orecs().of(addr);
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
      // The writer already committed (or is mid-write-back): the owner
      // hint usually reads null here, but a concurrent locker is still a
      // usable edge when present.
      abort_tx(obs::AbortCause::kReadValidation, addr, orec_ix(&o),
               o.owner_hint());
    }
    track_orec(&o);
    return val;
  }

  /// Record an orec in the read-set, deduplicating through a small
  /// direct-mapped cache of recently tracked orecs. Entries are validated
  /// by attempt epoch instead of being wiped each begin(), so starting a
  /// transaction stays O(1). Repeated reads of one stripe (loop bodies,
  /// field re-reads) hit the cache and skip the append, keeping
  /// commit-time validation O(unique stripes) instead of O(reads). A
  /// duplicate that slips past the cache (slot eviction) only costs a
  /// redundant validation — never correctness: validating the same orec
  /// twice is idempotent.
  void track_orec(const Orec* o) {
    // Keyed by table index, not heap address: index is a function of the
    // accessed address alone, so cache hits/evictions — and with them the
    // read-set contents and validation tick counts — replay identically
    // when the litmus DFS rebuilds the table between schedules.
    const std::size_t slot = shared_.orecs().index(o) & (kSeenSlots - 1);
    Seen& s = seen_[slot];
    if (s.orec == o && s.epoch == attempt_epoch_) {
      ++stats.readset_dups;
      return;
    }
    s.orec = o;
    s.epoch = attempt_epoch_;
    reads_.push_back(o);
    ++stats.readset_adds;
  }

  /// Alg. 7 ValidateReadSet semantics, as a predicate (commit must release
  /// write locks before aborting). On failure, fail_cause_/conflict_ carry
  /// the attribution for the caller's abort: a locked orec is a lock
  /// conflict with a concurrent committer, a moved version a stale read.
  bool readset_holds() {
    obs::ScopedLatency lat(latency_sink(stats.lat_validate));
    ++stats.validations;
    for (const Orec* o : reads_) {
      sched::tick(sched::Cost::kValidateEntry);
      ++stats.validate_entries;
      if (o->locked_by_other(this)) {
        fail_cause_ = obs::AbortCause::kWriteLockConflict;
        conflict_ = o;
        fail_orec_ = orec_ix(o);
        fail_owner_ = o->owner_hint();
        return false;
      }
      if (o->version.load(std::memory_order_acquire) > start_version_) {
        fail_cause_ = obs::AbortCause::kReadValidation;
        conflict_ = o;
        fail_orec_ = orec_ix(o);
        fail_owner_ = o->owner_hint();
        return false;
      }
    }
    return true;
  }

  void acquire_write_locks() {
    // Own the data words and orecs before the first lock is taken, so the
    // lock CASes and the write-back hit this core's cache (DESIGN.md §4.16).
    for (const WriteEntry& e : writes_) {
      prefetch_for_write(e.addr);
      prefetch_for_write(&shared_.orecs().of(e.addr));
    }
    for (const WriteEntry& e : writes_) {
      Orec& o = shared_.orecs().of(e.addr);
      if (o.owner.load(std::memory_order_relaxed) == this) continue;
      if (!o.try_lock(this)) {
        fail_locked(obs::AbortCause::kWriteLockConflict, e.addr, orec_ix(&o),
                    o.owner_hint());
      }
      locked_.push_back(&o);
      sched::sched_point();  // partial lock-set held
    }
  }

  /// Publish buffered effects: all values, then all orec versions, then
  /// all unlocks — the ordering the reader sandwich relies on.
  void write_back(std::uint64_t wv) {
    for (const WriteEntry& e : writes_) {
      const word_t v = e.kind == WriteKind::kWrite
                           ? e.value
                           : e.addr->load(std::memory_order_relaxed) + e.value;
      e.addr->store(v, std::memory_order_release);
      sched::sched_point();  // new value visible, orec still locked
    }
    for (Orec* o : locked_) o->version.store(wv, std::memory_order_release);
    sched::sched_point();  // versions bumped, locks not yet released
    release_locks();
  }

  [[noreturn]] void fail_locked(obs::AbortCause cause, const void* addr,
                                std::uint32_t orec = obs::kNoOrec,
                                const void* owner = nullptr) {
    release_locks();
    abort_tx(cause, addr, orec, owner);
  }

  void release_locks() noexcept {
    for (Orec* o : locked_) o->unlock(this);
    locked_.clear();
  }

  /// Attempt epilogue, shared by commit and rollback: the gate must see
  /// the transaction as no longer in flight on every exit path.
  void finish() noexcept {
    gate_exit();
    reads_.clear();
    writes_.clear();
  }

  static constexpr std::size_t kSeenSlots = 16;

  /// One dedup-cache line: an orec recently appended to reads_, valid only
  /// while epoch matches the current attempt (epoch is 64-bit: it cannot
  /// wrap into a stale-but-matching state within any feasible run).
  struct Seen {
    const Orec* orec = nullptr;
    std::uint64_t epoch = 0;
  };

  Tl2Algorithm& shared_;
  Seen seen_[kSeenSlots];              ///< direct-mapped dedup cache
  std::uint64_t attempt_epoch_ = 0;
  std::vector<const Orec*> reads_;  ///< TL2 read-set: deduped orecs
  WriteSet writes_;
  std::vector<Orec*> locked_;
  std::uint64_t start_version_ = 0;
  /// Abort attribution handed from a failing validator to the caller that
  /// performs the (lock-releasing) abort. For orec-granular failures the
  /// conflicting "address" is the orec itself; fail_orec_/fail_owner_
  /// carry the table index and best-effort owner for the conflict map.
  obs::AbortCause fail_cause_ = obs::AbortCause::kUnknown;
  const void* conflict_ = nullptr;
  std::uint32_t fail_orec_ = obs::kNoOrec;
  const void* fail_owner_ = nullptr;
};

/// Plain TL2, sealed. Semantic ops lower to read/write (generic_*).
class Tl2Core final : public Tl2CoreT<Tl2Core> {
 public:
  using Tl2CoreT::Tl2CoreT;

  static constexpr AlgoId kId = AlgoId::kTl2;
  static constexpr const char* kName = "tl2";

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
