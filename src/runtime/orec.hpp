// Ownership records (orecs) for TL2 / S-TL2.
//
// Shared words map onto a fixed table of orecs by stripe, as RSTM does:
// word k (address >> 3) owns slot k mod table size. Each orec carries a
// version (the global timestamp of the last commit that wrote under it)
// and an owner pointer (the transaction currently holding its commit-time
// lock, or null). Keeping the two in separate atomics — rather than the
// classic packed version/lock word — lets readers test "lock ∈ {tx, φ}"
// (Alg. 7) directly against the owner.
//
// Write-back protocol (see Tl2Tx::commit): values are stored first, then
// versions (release), then owners are cleared (release). A reader that
// observes a new value therefore observes either a set owner or a bumped
// version, and its (version, owner, value, owner, version) sandwich read
// rejects the inconsistency.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "core/word.hpp"
#include "util/padded.hpp"

namespace semstm {

// Owners are opaque identities (TxCoreBase::tx_id()): the orec never calls
// through them, it only compares pointers, so it needs no descriptor type.
struct Orec {
  std::atomic<std::uint64_t> version{0};
  std::atomic<const void*> owner{nullptr};

  bool locked_by_other(const void* self) const noexcept {
    const void* o = owner.load(std::memory_order_acquire);
    return o != nullptr && o != self;
  }

  bool locked() const noexcept {
    return owner.load(std::memory_order_acquire) != nullptr;
  }

  /// Commit-time try-lock (null -> tx). Idempotent for the same owner.
  bool try_lock(const void* tx) noexcept {
    const void* expected = nullptr;
    if (owner.compare_exchange_strong(expected, tx, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      return true;
    }
    return expected == tx;
  }

  /// Best-effort owner read for abort attribution (obs/conflict_map.hpp):
  /// who holds (or held a moment ago) this orec's lock. Relaxed is correct
  /// because the result is observational only — it becomes a hint in
  /// AbortInfo::owner and a conflict-map edge, never an input to any
  /// synchronization or protocol decision, and the owner may legitimately
  /// have released by the time the aborter records it.
  const void* owner_hint() const noexcept {
    return owner.load(std::memory_order_relaxed);
  }

  /// Single-releaser invariant (litmus-audited, tests/test_litmus.cpp orec
  /// suite): the relaxed owner load is legal because only the lock HOLDER
  /// ever calls unlock with its own identity — Tl2CoreT tracks every orec
  /// it locked in locked_ and unlocks exactly that set, and rollback's
  /// release path walks the same set. So the load either reads this
  /// thread's own prior try_lock store (same-thread po, no race) and
  /// matches, or reads some other owner / null and is a no-op. The
  /// nullptr store stays release: it publishes the written-back values
  /// and bumped version to the next try_lock's acquire failure-order
  /// load / locked_by_other's acquire load.
  void unlock(const void* tx) noexcept {
    const void* o = owner.load(std::memory_order_relaxed);
    if (o == tx) owner.store(nullptr, std::memory_order_release);
  }
};

class OrecTable {
 public:
  /// `log2_size` trades memory for fewer false conflicts (stripe aliasing);
  /// bench/ablation sweeps it. Default 2^16 orecs.
  ///
  /// The map is the stripe map: of(addr) is slot (addr >> 3) & mask. Two
  /// words share an orec exactly when their addresses differ by a multiple
  /// of size * 8 bytes (512 KiB at the default size). Which words collide
  /// is a function of address differences, not of where the heap starts,
  /// so data moved as a whole keeps every collision. Neighbouring words
  /// get neighbouring orecs: a transaction walking an array touches one
  /// orec line per 32 bytes it reads. There is one map and no selector: a
  /// multiplicative map collides on the same words (an odd multiplier
  /// permutes the residues) but scatters neighbours over separate lines.
  ///
  /// Layout (padding audit, DESIGN.md §4.16): orecs are deliberately NOT
  /// padded individually — striping four 16-byte orecs per line is the
  /// design (2^16 slots would quadruple to 4 MiB padded), and adjacent
  /// stripes sharing a line only costs locality under contention, never
  /// correctness. What IS guaranteed is the table base's alignment: the
  /// slab starts on a cache-line boundary, so no orec straddles two lines
  /// and the orecs of an aligned 32-byte group of words share one line.
  explicit OrecTable(unsigned log2_size = 16)
      : mask_((std::size_t{1} << log2_size) - 1),
        slots_(make_slots(std::size_t{1} << log2_size)) {}

  Orec& of(const tword* addr) noexcept {
    return slots_[(reinterpret_cast<std::uintptr_t>(addr) >> 3) & mask_];
  }

  std::size_t size() const noexcept { return mask_ + 1; }

  /// Slot index of an orec returned by of(). Stable across table
  /// re-allocations for a fixed accessed address — unlike the orec's heap
  /// address — which is what deterministic re-execution (the litmus DFS
  /// re-runs a test against a freshly built table per schedule) keys on.
  std::size_t index(const Orec* o) const noexcept {
    return static_cast<std::size_t>(o - slots_.get());
  }

 private:
  struct AlignedFree {
    void operator()(Orec* p) const noexcept {
      // Orec is trivially destructible (two atomics), so releasing the
      // raw slab without per-element destruction is exact.
      ::operator delete(static_cast<void*>(p), std::align_val_t{kCacheLine});
    }
  };
  static_assert(std::is_trivially_destructible_v<Orec>,
                "AlignedFree skips destructors");
  static_assert(kCacheLine % sizeof(Orec) == 0,
                "orecs are deliberately striped (not padded), but with a "
                "line-aligned slab base none may straddle a cache line");

  static std::unique_ptr<Orec[], AlignedFree> make_slots(std::size_t n) {
    void* raw = ::operator new(n * sizeof(Orec), std::align_val_t{kCacheLine});
    Orec* first = static_cast<Orec*>(raw);
    for (std::size_t i = 0; i < n; ++i) ::new (first + i) Orec();
    return std::unique_ptr<Orec[], AlignedFree>(first);
  }

  std::size_t mask_;
  std::unique_ptr<Orec[], AlignedFree> slots_;
};

}  // namespace semstm
