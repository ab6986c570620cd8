// Transactional hashtable with open addressing — the paper's Algorithm 2.
//
// Probing walks a chain of conditional expressions ("cell not FREE, and
// either REMOVED or holding a different key"). In semantic mode every one
// of those checks is a TM_EQ/TM_NEQ construct, so a concurrent writer that
// touches a probed cell without changing the outcome of the checks does
// not abort the prober; in base mode they are plain transactional reads
// (the configuration the paper's NOrec/TL2 curves use).
//
// A cell never returns to FREE: remove leaves a tombstone, and nothing
// stores kFree after construction. The kStable probe (an extension beyond
// Algorithm 2) therefore asks "not FREE" as a stable compare, which S-NOrec
// and S-TL2 do not record once it holds (semstm::cmp_stable).
#pragma once

#include <cstdint>
#include <optional>

#include "containers/tarray.hpp"
#include "core/atomically.hpp"

namespace semstm {

class TOpenHashTable {
 public:
  using Key = std::int64_t;

  enum State : std::int64_t { kFree = 0, kBusy = 1, kRemoved = 2 };

  /// How the probe's conditions are expressed:
  ///  kBase        — classical transactional reads (NOrec/TL2 curves)
  ///  kPerOperator — each comparison is an independent semantic cmp
  ///  kClause      — the continuation disjunction is ONE cmp_or clause
  ///                 (the paper's composed conditional, Fig. 1a)
  ///  kStable      — kClause, with the FREE check asked as the stable
  ///                 compare `state != FREE` (default semantic)
  enum class ProbeMode : std::uint8_t { kBase, kPerOperator, kClause, kStable };

  /// capacity must be a power of two.
  TOpenHashTable(std::size_t capacity, ProbeMode mode)
      : mask_(capacity - 1),
        mode_(mode),
        states_(capacity, kFree),
        keys_(capacity, 0) {
    assert((capacity & mask_) == 0 && "capacity must be a power of two");
  }

  /// Convenience: true = the stable-compare probe, false = classical reads.
  TOpenHashTable(std::size_t capacity, bool use_semantics)
      : TOpenHashTable(capacity,
                       use_semantics ? ProbeMode::kStable : ProbeMode::kBase) {}

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Returns true if `key` is present (Algorithm 2's probe).
  template <typename TxT>
  bool contains(TxT& tx, Key key) { return find_slot(tx, key).has_value(); }

  /// Insert `key`; returns false if it was already present or the table is
  /// full.
  template <typename TxT>
  bool insert(TxT& tx, Key key) {
    std::size_t index = hash(key);
    std::optional<std::size_t> first_reusable;
    for (std::size_t step = 0; step <= mask_; ++step) {
      if (is_free(tx, index)) {
        const std::size_t target = first_reusable.value_or(index);
        keys_[target].set(tx, key);
        states_[target].set(tx, kBusy);
        return true;
      }
      if (state_is(tx, index, kRemoved)) {
        if (!first_reusable) first_reusable = index;
      } else if (key_is(tx, index, key)) {
        return false;  // already present
      }
      index = (index + kProbe) & mask_;
    }
    if (first_reusable) {
      keys_[*first_reusable].set(tx, key);
      states_[*first_reusable].set(tx, kBusy);
      return true;
    }
    return false;  // full
  }

  /// Remove `key`; returns false if absent. Uses tombstones (kRemoved).
  template <typename TxT>
  bool remove(TxT& tx, Key key) {
    const auto slot = find_slot(tx, key);
    if (!slot) return false;
    states_[*slot].set(tx, kRemoved);
    return true;
  }

  /// Non-transactional population count (setup/verification only).
  std::size_t unsafe_size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (states_[i].unsafe_get() == kBusy) ++n;
    }
    return n;
  }

 private:
  static constexpr std::size_t kProbe = 1;  // linear probing

  std::size_t hash(Key key) const noexcept {
    auto h = static_cast<std::uint64_t>(key);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h) & mask_;
  }

  bool semantic() const noexcept { return mode_ != ProbeMode::kBase; }

  template <typename TxT>
  bool state_is(TxT& tx, std::size_t i, State s) {
    return semantic() ? states_[i].eq(tx, s) : states_[i].get(tx) == s;
  }
  template <typename TxT>
  bool key_is(TxT& tx, std::size_t i, Key key) {
    return semantic() ? keys_[i].eq(tx, key) : keys_[i].get(tx) == key;
  }
  /// The probe's FREE check. Only kStable declares `state != FREE` stable:
  /// no store of kFree follows construction, so once it holds it holds.
  template <typename TxT>
  bool is_free(TxT& tx, std::size_t i) {
    if (mode_ == ProbeMode::kStable) {
      return !states_[i].cmp_stable(tx, Rel::NEQ, kFree);
    }
    return state_is(tx, i, kFree);
  }

  /// Algorithm 2: probe until a FREE cell (absent) or a matching BUSY cell.
  ///
  /// Semantic build: per probed cell, the continuation predicate
  /// `state == REMOVED || key != value` is ONE composed semantic read
  /// (cmp_or) — this is what lets a prober survive the cell being
  /// removed, or recycled for a different key, in between: the clause
  /// outcome is preserved even though both stored values changed.
  template <typename TxT>
  std::optional<std::size_t> find_slot(TxT& tx, Key key) {
    std::size_t index = hash(key);
    for (std::size_t step = 0; step <= mask_; ++step) {
      // while (state != FREE && (state == REMOVED || key != value)) probe.
      if (mode_ == ProbeMode::kClause || mode_ == ProbeMode::kStable) {
        if (is_free(tx, index)) return std::nullopt;
        const CmpTerm pass[2] = {
            term<std::int64_t>(states_[index], Rel::EQ, kRemoved),
            term<std::int64_t>(keys_[index], Rel::NEQ, key),
        };
        if (!tx.cmp_or(pass, 2)) return index;  // BUSY and key matches
      } else {
        // kBase and kPerOperator share the structure; they differ in
        // whether each comparison is a plain read or a recorded cmp.
        if (state_is(tx, index, kFree)) return std::nullopt;
        if (!state_is(tx, index, kRemoved) && key_is(tx, index, key)) {
          return index;
        }
      }
      index = (index + kProbe) & mask_;
    }
    return std::nullopt;
  }

  std::size_t mask_;
  ProbeMode mode_;
  TArray<std::int64_t> states_;
  TArray<Key> keys_;
};

}  // namespace semstm
