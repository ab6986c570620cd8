// Conflict-site attribution: *where* transactions abort.
//
// PR 2's cause histogram answers "why did we abort"; the conflict map
// answers "over which location" — the question the KV hot-key work and the
// Proust object-level-conflict comparison (PAPERS.md) both hinge on. Every
// attributed abort site already carries the conflicting address (and, for
// the orec-based algorithms, the conflicting orec and — when readable —
// its owner); TxCoreBase::abort_tx() records that tag and atomically()'s
// retry loop folds it into a per-descriptor ConflictMap keyed by conflict
// *site*:
//
//   - orec-granular sites (TL2 / S-TL2) key on the orec table index: every
//     address a table size of words apart maps onto one orec (the stripe
//     map, runtime/orec.hpp), and the orec is what the algorithm actually
//     fights over — false sharing across a stripe shows up as one hot
//     site, which is exactly the diagnosis the map exists to make.
//   - address-granular sites (NOrec family value/cmp validation) key on
//     the word region (kRegionShift; word granularity by default).
//
// Recording rides the abort path — already cold and out of line — and,
// like the rest of the recording layer, happens only for a descriptor the
// run bound a sink to: an unobserved descriptor's map never allocates.
// The map is single-writer (its owning descriptor); aggregation happens
// after the run via merge(), the same single-writer-then-merge discipline
// as TxStats.
//
// Accounting contract (DESIGN.md §4.15): a site is recorded only for
// aborts that carry a conflicting location, so for every cause
// sum_over_sites(counts[cause]) + untracked <= TxStats::abort_causes[cause]
// where untracked covers location-free aborts (clock overflow, user abort)
// and sites dropped by a full table (overflow()) — bounded capacity with
// an honest drop counter, the TraceRing discipline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/abort_cause.hpp"

namespace semstm::obs {

/// Address-region granularity for sites without an orec: 3 = one site per
/// 8-byte transactional word (exact attribution; every TVar is one word).
/// Raising this coarsens sites to cache lines (6) or pages (12) — a single
/// constant because the right grain depends on what is being diagnosed.
inline constexpr unsigned kRegionShift = 3;

class ConflictMap {
 public:
  /// One conflict site and everything accumulated against it.
  struct Site {
    const void* addr = nullptr;   ///< representative conflicting address
    std::uint32_t orec = kNoOrec; ///< orec table index, kNoOrec if unkeyed
    std::uint64_t counts[kAbortCauseCount] = {};  ///< aborts by cause
    std::uint64_t edges = 0;      ///< aborts with a known aborter->owner edge
    const void* last_owner = nullptr;  ///< most recent conflicting owner

    std::uint64_t total() const noexcept {
      std::uint64_t t = 0;
      for (std::uint64_t c : counts) t += c;
      return t;
    }

    AbortCause top_cause() const noexcept {
      std::size_t best = 0;
      for (std::size_t c = 1; c < kAbortCauseCount; ++c) {
        if (counts[c] > counts[best]) best = c;
      }
      return static_cast<AbortCause>(best);
    }
  };

  /// Capacity is 2^slots_log2 sites. The per-descriptor default (512)
  /// covers every realistic per-thread hot set; the run-level merge target
  /// uses a larger table. Slots allocate lazily on the first record, so a
  /// descriptor that never records (a conflict-free or unobserved run)
  /// costs pointers.
  explicit ConflictMap(unsigned slots_log2 = 9)
      : mask_((std::size_t{1} << slots_log2) - 1) {}

  /// Record one attributed abort. `addr` must be non-null (location-free
  /// aborts have no site); `owner` is the conflicting orec owner when the
  /// abort site could read one — best-effort, the aborter->victim edge.
  void record(AbortCause cause, const void* addr, std::uint32_t orec,
              const void* owner) noexcept {
    Site* s = lookup(key_of(addr, orec));
    if (s == nullptr) {
      ++overflow_;
      return;
    }
    if (s->addr == nullptr) {  // claimed a fresh slot
      s->addr = addr;
      s->orec = orec;
      ++used_;
    }
    ++s->counts[static_cast<std::size_t>(cause)];
    if (owner != nullptr) {
      ++s->edges;
      s->last_owner = owner;
    }
  }

  /// Fold another map into this one (run-end aggregation; the other map's
  /// threads must be quiescent). Overflow is inherited: a drop in any
  /// per-thread map makes the merged ranking a lower bound, and the count
  /// says so.
  void merge(const ConflictMap& o) noexcept {
    overflow_ += o.overflow_;
    if (o.slots_ == nullptr) return;
    for (std::size_t i = 0; i <= o.mask_; ++i) {
      const Site& src = o.slots_[i];
      if (src.addr == nullptr) continue;
      Site* dst = lookup(key_of(src.addr, src.orec));
      if (dst == nullptr) {
        ++overflow_;
        continue;
      }
      if (dst->addr == nullptr) {
        dst->addr = src.addr;
        dst->orec = src.orec;
        ++used_;
      }
      for (std::size_t c = 0; c < kAbortCauseCount; ++c) {
        dst->counts[c] += src.counts[c];
      }
      dst->edges += src.edges;
      if (src.last_owner != nullptr) dst->last_owner = src.last_owner;
    }
  }

  std::size_t size() const noexcept { return used_; }
  bool empty() const noexcept { return used_ == 0; }
  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Sites dropped because the table was full (ranking completeness flag).
  std::uint64_t overflow() const noexcept { return overflow_; }

  template <typename F>
  void for_each(F&& f) const {
    if (slots_ == nullptr) return;
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (slots_[i].addr != nullptr) f(slots_[i]);
    }
  }

  void clear() noexcept {
    if (slots_ != nullptr) {
      for (std::size_t i = 0; i <= mask_; ++i) slots_[i] = Site{};
    }
    used_ = 0;
    overflow_ = 0;
  }

 private:
  /// Site identity: the orec index when the abort was orec-granular (what
  /// word-based detection actually serializes on), else the address region.
  /// Orec keys are tagged apart from region keys so index 3 and the region
  /// of address 24 never alias.
  static std::uintptr_t key_of(const void* addr, std::uint32_t orec) noexcept {
    if (orec != kNoOrec) return (std::uintptr_t{orec} << 1) | 1;
    return (reinterpret_cast<std::uintptr_t>(addr) >> kRegionShift) << 1;
  }

  /// Linear-probe lookup/claim. Returns null when the table is full and the
  /// key is not already present. Empty slots have addr == nullptr; the
  /// probed key is re-derived from the resident site, so no separate key
  /// array is stored.
  Site* lookup(std::uintptr_t key) noexcept {
    if (slots_ == nullptr) {
      slots_ = std::make_unique<Site[]>(mask_ + 1);
    }
    std::uintptr_t h = key;
    h ^= h >> 17;
    h *= 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    for (std::size_t probe = 0; probe <= mask_; ++probe) {
      Site& s = slots_[(h + probe) & mask_];
      if (s.addr == nullptr) return &s;
      if (key_of(s.addr, s.orec) == key) return &s;
    }
    return nullptr;  // full
  }

  std::size_t mask_;
  std::unique_ptr<Site[]> slots_;
  std::size_t used_ = 0;
  std::uint64_t overflow_ = 0;
};

/// Rank a map's sites by total abort count, hottest first (deterministic:
/// ties break on orec index, then address). Returns at most `k` sites.
inline std::vector<ConflictMap::Site> top_sites(const ConflictMap& map,
                                                std::size_t k) {
  std::vector<ConflictMap::Site> out;
  out.reserve(map.size());
  map.for_each([&](const ConflictMap::Site& s) { out.push_back(s); });
  std::sort(out.begin(), out.end(),
            [](const ConflictMap::Site& a, const ConflictMap::Site& b) {
              const std::uint64_t ta = a.total(), tb = b.total();
              if (ta != tb) return ta > tb;
              if (a.orec != b.orec) return a.orec < b.orec;
              return a.addr < b.addr;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace semstm::obs
