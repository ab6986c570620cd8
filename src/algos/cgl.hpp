// CGL: coarse-grained single-global-lock "transactions".
//
// Every transaction runs under one test-and-set spinlock, so it never
// aborts due to conflicts and is trivially opaque. Writes are buffered and
// applied at commit (lazy versioning) so that CGL honours the same
// rollback contract as the optimistic algorithms — this is what makes it
// usable as the correctness oracle in the test suite, and the serial
// baseline in benchmarks.
//
// The lock spins through sched::spin_pause() — mandatory for the fiber
// simulator, where an OS-blocking mutex would deadlock the single carrier
// thread.
//
// Observability: CGL never conflict-aborts, so the only abort cause it can
// ever contribute to the TxStats cause histogram is kUserAbort (an explicit
// user_abort() inside the body, tagged by core/tx.hpp). Its lat_validate
// histogram stays empty — there is nothing to validate. The same holds for
// contention cartography (obs/conflict_map.hpp): user aborts carry no
// conflicting location, so a CGL descriptor's ConflictMap is always empty —
// a useful negative control when comparing hot-site tables across
// algorithms (contention under CGL is queueing on the one lock, which the
// windowed metrics expose as throughput, not as conflict sites).
//
// CglCore is a sealed non-virtual descriptor (DESIGN.md §4.12).
#pragma once

#include <atomic>

#include "core/algorithm.hpp"
#include "core/tx.hpp"
#include "runtime/spinwait.hpp"
#include "runtime/writeset.hpp"
#include "sched/yieldpoint.hpp"
#include "util/padded.hpp"

namespace semstm {

class CglAlgorithm final : public Algorithm {
 public:
  const char* name() const noexcept override { return "cgl"; }
  bool semantic() const noexcept override { return false; }

  // Not noexcept: the spin is a yield point, and under a truncating
  // ScheduleController yield points raise ScheduleStopped. The wait is
  // test-and-test-and-set with SpinWait escalation: relaxed local reads
  // between pauses, so waiters generate no write traffic on the lock line
  // and back off to OS yields in real-thread mode.
  void lock() {
    SpinWait spin;
    while (flag_.value.exchange(true, std::memory_order_acquire)) {
      while (flag_.value.load(std::memory_order_relaxed)) spin.pause();
    }
  }
  void unlock() noexcept { flag_.value.store(false, std::memory_order_release); }

 private:
  Padded<std::atomic<bool>> flag_{};
  static_assert(alignof(Padded<std::atomic<bool>>) >= kCacheLine,
                "the global lock must own its cache line");
};

class CglCore final : public TxCoreBase {
 public:
  explicit CglCore(CglAlgorithm& shared) : shared_(shared) {
    bind_gate(shared.serial_gate());
  }
  ~CglCore() {
    if (holding_) shared_.unlock();
  }

  static constexpr AlgoId kId = AlgoId::kCgl;
  static constexpr const char* kName = "cgl";

  void begin() {
    // Gate first, lock second: a thread blocked on the serial-irrevocable
    // token must not hold the global lock, or the token holder could never
    // run its (lock-acquiring) transaction.
    gate_enter();
    writes_.clear();
    shared_.lock();
    holding_ = true;
    sched::sched_point();  // global lock held, body not yet run
  }

  void commit() {
    sched::tick(sched::Cost::kCommit);
    for (const WriteEntry& e : writes_) {
      e.addr->store(e.value, std::memory_order_relaxed);
      sched::sched_point();  // partial write-back under the global lock
    }
    writes_.clear();
    release();
  }

  void rollback() {
    writes_.clear();
    release();
  }

  word_t read(const tword* addr) {
    sched::tick(sched::Cost::kRead);
    ++stats.reads;
    if (const WriteEntry* e = writes_.find(addr)) return e->value;
    return addr->load(std::memory_order_relaxed);
  }

  void write(tword* addr, word_t value) {
    sched::tick(sched::Cost::kWrite);
    ++stats.writes;
    writes_.put_write(addr, value);
  }

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

 private:
  void release() noexcept {
    if (holding_) {
      shared_.unlock();
      holding_ = false;
    }
    gate_exit();
  }

  CglAlgorithm& shared_;
  WriteSet writes_;
  bool holding_ = false;
};

}  // namespace semstm
