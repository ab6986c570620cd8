// TVar<T>: the typed public face of a transactional word.
//
// Classical access:   x.get(tx) / x.set(tx, v)          (TM_READ / TM_WRITE)
// Semantic access:    x.gt(tx, v), x.lte(tx, other)...  (Table 1)
//                     x.add(tx, d) / x.sub(tx, d)       (TM_INC / TM_DEC)
//                     x.cmp_stable(tx, Rel::NEQ, v)     (stable compare)
//
// Ordered comparisons pick the signed or unsigned relation from T.
// `unsafe_*` accessors bypass the TM for single-threaded setup/verification.
//
// Every accessor is a member template over the descriptor type: passed a
// concrete core (NorecCore&, ...), the tx.read/tx.cmp/... calls bind
// statically and inline into the caller (DESIGN.md §4.12). The descriptor
// argument deduces TxT, so a generic body (`auto& tx`) needs no spelling.
#pragma once

#include <type_traits>

#include "core/tx.hpp"
#include "core/word.hpp"

namespace semstm {

template <WordRepresentable T>
class TVar {
 public:
  using value_type = T;

  constexpr TVar() noexcept : word_(to_word(T{})) {}
  explicit constexpr TVar(T init) noexcept : word_(to_word(init)) {}

  // TVars are pinned in memory (their address is their identity).
  TVar(const TVar&) = delete;
  TVar& operator=(const TVar&) = delete;

  // -- Classical constructs -----------------------------------------------

  template <typename TxT>
  T get(TxT& tx) const {
    return from_word<T>(tx.read(&word_));
  }
  template <typename TxT>
  void set(TxT& tx, T v) {
    tx.write(&word_, to_word(v));
  }

  // -- Semantic constructs: address–value ----------------------------------

  template <typename TxT>
  bool eq(TxT& tx, T v) const {
    return tx.cmp(&word_, Rel::EQ, to_word(v));
  }
  template <typename TxT>
  bool neq(TxT& tx, T v) const {
    return tx.cmp(&word_, Rel::NEQ, to_word(v));
  }
  template <typename TxT>
  bool lt(TxT& tx, T v) const
    requires std::is_integral_v<T>
  {
    return tx.cmp(&word_, rel_lt<T>(), to_word(v));
  }
  template <typename TxT>
  bool lte(TxT& tx, T v) const
    requires std::is_integral_v<T>
  {
    return tx.cmp(&word_, rel_le<T>(), to_word(v));
  }
  template <typename TxT>
  bool gt(TxT& tx, T v) const
    requires std::is_integral_v<T>
  {
    return tx.cmp(&word_, rel_gt<T>(), to_word(v));
  }
  template <typename TxT>
  bool gte(TxT& tx, T v) const
    requires std::is_integral_v<T>
  {
    return tx.cmp(&word_, rel_ge<T>(), to_word(v));
  }

  /// Stable compare `*this REL v` (extension beyond Table 1): the caller
  /// declares that once it holds, it holds for the rest of the program, so
  /// S-NOrec and S-TL2 record nothing when it holds (semstm::cmp_stable).
  /// An ordered `rel` must carry T's signedness (rel_lt<T>() and friends).
  template <typename TxT>
  bool cmp_stable(TxT& tx, Rel rel, T v) const {
    return semstm::cmp_stable(tx, &word_, rel, to_word(v));
  }

  // -- Semantic constructs: address–address --------------------------------

  template <typename TxT>
  bool eq(TxT& tx, const TVar& o) const {
    return tx.cmp2(&word_, Rel::EQ, &o.word_);
  }
  template <typename TxT>
  bool neq(TxT& tx, const TVar& o) const {
    return tx.cmp2(&word_, Rel::NEQ, &o.word_);
  }
  template <typename TxT>
  bool lt(TxT& tx, const TVar& o) const
    requires std::is_integral_v<T>
  {
    return tx.cmp2(&word_, rel_lt<T>(), &o.word_);
  }
  template <typename TxT>
  bool lte(TxT& tx, const TVar& o) const
    requires std::is_integral_v<T>
  {
    return tx.cmp2(&word_, rel_le<T>(), &o.word_);
  }
  template <typename TxT>
  bool gt(TxT& tx, const TVar& o) const
    requires std::is_integral_v<T>
  {
    return tx.cmp2(&word_, rel_gt<T>(), &o.word_);
  }
  template <typename TxT>
  bool gte(TxT& tx, const TVar& o) const
    requires std::is_integral_v<T>
  {
    return tx.cmp2(&word_, rel_ge<T>(), &o.word_);
  }

  // -- Semantic constructs: increment/decrement -----------------------------

  template <typename TxT>
  void add(TxT& tx, T delta)
    requires std::is_integral_v<T>
  {
    tx.inc(&word_, to_word(delta));
  }
  template <typename TxT>
  void sub(TxT& tx, T delta)
    requires std::is_integral_v<T>
  {
    tx.inc(&word_, to_word(static_cast<T>(0)) - to_word(delta));
  }

  // -- Non-transactional escape hatches -------------------------------------

  T unsafe_get() const noexcept {
    return from_word<T>(word_.load(std::memory_order_acquire));
  }
  void unsafe_set(T v) noexcept {
    word_.store(to_word(v), std::memory_order_release);
  }

  /// Raw word access for low-level code (tmir ABI, tests).
  tword* word() noexcept { return &word_; }
  const tword* word() const noexcept { return &word_; }

 private:
  mutable tword word_;
};

/// Build a clause term `var REL value` for cmp_or.
template <WordRepresentable T>
CmpTerm term(const TVar<T>& var, Rel rel, T value) noexcept {
  return CmpTerm{var.word(), nullptr, to_word(value), rel};
}

/// Build a clause term `a REL b` (address–address) for cmp_or.
template <WordRepresentable T>
CmpTerm term(const TVar<T>& a, Rel rel, const TVar<T>& b) noexcept {
  return CmpTerm{a.word(), b.word(), 0, rel};
}

}  // namespace semstm
