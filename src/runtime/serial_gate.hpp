// SerialGate: the global serial-irrevocable token (GCC libitm's `serialirr`
// idea), where BackoffCm sends a transaction after kRetryLimit consecutive
// aborts (runtime/contention.hpp).
//
// Protocol (honoured by every algorithm at begin()/commit(), see
// TxCoreBase's gate_enter()/gate_exit() helpers):
//
//   - A normal transaction *enters* the gate before doing any transactional
//     work and *exits* it when the attempt ends (commit or rollback). While
//     the token is held by another transaction, entry blocks.
//   - A starving transaction *acquires* the token between attempts (it holds
//     no transactional state at that point), then waits for every in-flight
//     transaction to drain. From then on it runs alone: no concurrent commit
//     can invalidate it, so the next attempt is guaranteed to succeed — the
//     optimistic algorithms degenerate to their single-threaded path.
//   - The token holder *releases* after its commit; blocked transactions
//     resume and re-sample their snapshots in begin() as usual.
//
// Scalability (DESIGN.md §4.16): the in-flight count is an ANNOUNCE ARRAY —
// kSlots cache-line-padded counters, each transaction registering on the
// slot its identity hashes to — instead of one global counter. On the fast
// path (no token holder, i.e. essentially always) every transaction
// begin/end RMWs only its own slot's line, so N cores no longer ping-pong a
// single in-flight line on every transaction. The rare acquirer pays the
// scan: it drains each slot to zero in turn. Two identities hashing to one
// slot merely share a counter (and its line) — the protocol only ever asks
// "is this slot zero", so collisions cost locality, never correctness.
//
// Deadlock-freedom argument: token acquisition happens only between attempts
// (no locks/snapshots held), entry waiters hold nothing either, and every
// entered transaction finishes in finite time (all its waits tick through
// SpinWait::pause(), which in sim is sched::spin_pause(), so the fiber
// simulator keeps the system live too; in real-thread mode it escalates to
// OS yields instead of burning a core).
//
// Observability (src/obs): a conflict abort taken while another transaction
// holds (or is draining into) the token is reclassified by
// TxCoreBase::abort_tx() as kSerialGatePreempt — the root cause is the
// quiescing serial transaction, not ordinary contention — and for an
// observed descriptor atomically() times each acquire -> release span into
// TxStats::lat_gate and emits a kSerialHold trace event.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/spinwait.hpp"
#include "sched/yieldpoint.hpp"
#include "util/padded.hpp"

namespace semstm {

class SerialGate {
 public:
  static constexpr std::size_t kSlots = 16;  ///< announce-array width

  /// True while some transaction holds the serial-irrevocable token.
  bool held() const noexcept {
    return owner_.value.load(std::memory_order_acquire) != nullptr;
  }

  /// True if `self` is the current token holder.
  bool held_by(const void* self) const noexcept {
    return owner_.value.load(std::memory_order_acquire) == self;
  }

  /// Normal-transaction entry: wait out any token holder, then register as
  /// in-flight on the announce slot `self` hashes to. The add/re-check/undo
  /// dance closes the race with a holder that acquired the token between
  /// our check and our registration.
  ///
  /// Mutual-quiescence argument (litmus-audited; tests/test_litmus.cpp
  /// SerialGate suite DFS-enumerates every interleaving of this code
  /// against acquire()/release()): entry is granted only by the
  /// `!held()` re-check, which runs strictly AFTER our fetch_add is
  /// visible. On the single modification order of our slot's atomic,
  /// either our add precedes the acquirer's drain read of that slot, in
  /// which case the acquirer waits for our exit(), or the acquirer's
  /// owner_ CAS precedes our re-check load, in which case we observe
  /// held() and undo. Neither side can miss the other: there is no window
  /// where an enterer is past the re-check while the acquirer is past
  /// that slot's drain with the slot at 0. Splitting the counter across
  /// slots does not weaken this — the argument is per-slot, and an
  /// enterer only ever registers on one slot. The sched_point marks the
  /// adversarial window (registered but not yet re-checked) for the
  /// schedule explorer.
  void enter(const void* self) {
    std::atomic<std::uint64_t>& slot = slot_of(self);
    SpinWait spin;
    for (;;) {
      while (held()) spin.pause();
      sched::sched_point();  // window: observed free, not yet registered —
                             // an acquirer may CAS AND pass the drain here,
                             // which is exactly what the re-check below
                             // exists to catch
      slot.fetch_add(1, std::memory_order_acq_rel);
      sched::sched_point();  // window: registered, holder may CAS now
      if (!held()) return;
      slot.fetch_sub(1, std::memory_order_acq_rel);
      sched::sched_point();  // window: undone, must re-wait
    }
  }

  /// Normal-transaction exit (attempt ended: committed or rolled back).
  /// Must be called with the same identity as the matching enter().
  void exit(const void* self) noexcept {
    slot_of(self).fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Become serial-irrevocable: contend for the token, then quiesce — wait
  /// until every registered transaction has exited, slot by slot. Call
  /// only between attempts (no transactional state held). The slot scan
  /// pauses exactly once per probe of a still-nonzero slot, so in sim the
  /// yield cadence is identical to the old single-counter drain: one
  /// spin_pause per scheduler slice until the last in-flight transaction
  /// exits (zero slots are skipped with pure loads, which cost no ticks).
  void acquire(const void* self) {
    SpinWait spin;
    const void* expected = nullptr;
    while (!owner_.value.compare_exchange_weak(expected, self,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
      expected = nullptr;
      spin.pause();
    }
    sched::sched_point();  // window: token taken, drain not yet observed
    spin.reset();
    for (std::size_t s = 0; s < kSlots; ++s) {
      while (active_[s].value.load(std::memory_order_acquire) != 0) {
        spin.pause();
      }
    }
  }

  /// Release the token (after the irrevocable commit, or when abandoning
  /// the transaction via a propagating user exception). The release-store
  /// publishes every write of the serial section to the next enterer's
  /// acquire-load in held() — enterers blocked in the spin above resume
  /// only after observing it. Deliberately NOT a yield point: release runs
  /// on noexcept cleanup paths (AttemptLoop::release_token/on_exception),
  /// where a truncating controller's ScheduleStopped would std::terminate.
  /// The litmus suite explores the pre-release window from the test body
  /// instead (an explicit sched_point before calling release()).
  void release() noexcept {
    owner_.value.store(nullptr, std::memory_order_release);
  }

 private:
  /// Hash an identity onto its announce slot. Identities are descriptor
  /// addresses (TxCoreBase::tx_id()): strip allocation-granularity low
  /// bits, mix, take high bits. Must be stable per identity — exit() must
  /// find the slot enter() bumped.
  std::atomic<std::uint64_t>& slot_of(const void* self) noexcept {
    std::uintptr_t h = reinterpret_cast<std::uintptr_t>(self) >> 4;
    h *= 0x9E3779B97F4A7C15ULL;
    return active_[(h >> 60) & (kSlots - 1)].value;
  }

  Padded<std::atomic<const void*>> owner_{};  ///< token: null = free
  /// In-flight announce array: one padded counter per slot; a transaction
  /// is in flight iff it holds +1 on its slot.
  Padded<std::atomic<std::uint64_t>> active_[kSlots];

  static_assert(alignof(Padded<std::atomic<const void*>>) >= kCacheLine,
                "gate token must own its cache line");
  static_assert(alignof(Padded<std::atomic<std::uint64_t>>) >= kCacheLine &&
                    sizeof(Padded<std::atomic<std::uint64_t>>) >= kCacheLine,
                "announce slots must not share cache lines");
};

}  // namespace semstm
