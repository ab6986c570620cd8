// The extended TM ABI of the paper's Table 2.
//
// GCC lowers statements in a _transaction_atomic block to libitm ABI
// calls; the paper adds three entry points for the semantic constructs.
// Here the ABI is the seam between the tmir interpreter and the semstm
// algorithms: non-semantic algorithms implement the S-calls by delegating
// to the classical read/write handlers (exactly libitm's behaviour, and
// the paper's "NOrec Modified-GCC" configuration), semantic algorithms
// (S-NOrec) handle them natively.
//
// Each entry point is templated on the concrete descriptor core
// (DESIGN.md §4.12) and kept out of line: like the calls GCC emits into
// libitm, each barrier is one direct call, which keeps the interpreter
// loop small enough to stay fast (inlining all five barriers of a core
// into it measured slower on the tmir kernels).
#pragma once

#include "core/tx.hpp"

namespace semstm::tmir::abi {

/// _ITM_RU8: classical transactional read.
template <typename TxT>
[[gnu::noinline]] word_t itm_read(TxT& tx, const tword* addr) {
  return tx.read(addr);
}

/// _ITM_WU8: classical transactional write.
template <typename TxT>
[[gnu::noinline]] void itm_write(TxT& tx, tword* addr, word_t v) {
  tx.write(addr, v);
}

/// _ITM_S1R: address–value semantic read (conditional).
template <typename TxT>
[[gnu::noinline]] bool itm_s1r(TxT& tx, const tword* addr, Rel rel,
                               word_t operand) {
  return tx.cmp(addr, rel, operand);
}

/// _ITM_S2R: address–address semantic read (conditional).
template <typename TxT>
[[gnu::noinline]] bool itm_s2r(TxT& tx, const tword* a, Rel rel,
                               const tword* b) {
  return tx.cmp2(a, rel, b);
}

/// _ITM_SW: semantic write (deferred increment).
template <typename TxT>
[[gnu::noinline]] void itm_sw(TxT& tx, tword* addr, word_t delta) {
  tx.inc(addr, delta);
}

}  // namespace semstm::tmir::abi
