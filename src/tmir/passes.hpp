// The paper's two GIMPLE passes (§6), reimplemented over tmir.
#pragma once

#include "tmir/ir.hpp"

namespace semstm::tmir {

struct MarkStats {
  std::size_t s1r = 0;  ///< cmps rewritten to _ITM_S1R (address–value)
  std::size_t s2r = 0;  ///< cmps rewritten to _ITM_S2R (address–address)
  std::size_t sw = 0;   ///< stores rewritten to _ITM_SW (increment)
  /// Candidate patterns skipped because a possibly-aliasing TM write sat
  /// between the origin load and the use — rewriting those would change
  /// which value the comparison/increment observes (the legality condition
  /// pass_tm_lint re-proves for every rewrite that *was* made).
  std::size_t skipped_clobbered = 0;
  /// Rewrites that *did* cross one or more intervening TM writes, each
  /// proven no-alias by AliasAnalysis: a pass that treated every TM write
  /// as a clobber would have counted them under skipped_clobbered.
  std::size_t recovered_noalias = 0;
};

/// tm_mark extension: detect the cmp and inc code patterns.
///
///  - cmp: a kCmp feeding a conditional branch whose operand origins are
///    one (or two) direct TM loads, the other a literal or local — rewrite
///    to kTmCmp1 / kTmCmp2. The feeding TM loads are left in place (they
///    become never-live and are removed by tm_optimize), matching the
///    paper's two-pass structure.
///  - inc: a kTmStore whose stored value originates from `TM_LOAD(same
///    address) +/- (literal | local)` — rewrite to kTmInc.
///
/// Pattern matching is local (origins must be in the same block as the
/// use), mirroring the paper's "we look for simple expression patterns
/// that usually reside in the same basic block". A rewrite is refused when
/// a TM write that may alias the origin address intervenes between the
/// origin load and its use; the address-provenance analysis
/// (analysis/alias.hpp) lets provably non-aliasing writes through, and
/// the inc pattern accepts a load whose address must-alias the store's
/// rather than requiring the same temp.
///
/// Each rewritten instruction records its origin temps in src_a/src_b and
/// the function is flagged `marked`; pass_tm_lint independently re-proves
/// every recorded rewrite from reaching definitions and its own alias
/// analysis.
MarkStats pass_tm_mark(Function& f);

struct RbeStats {
  std::size_t load_load_forwarded = 0;   ///< kTmLoad reused an earlier load
  std::size_t store_load_forwarded = 0;  ///< kTmLoad reused a stored value
  std::size_t dead_stores = 0;           ///< kTmStore overwritten unread
  std::size_t total() const noexcept {
    return load_load_forwarded + store_load_forwarded + dead_stores;
  }
};

/// Redundant-barrier elimination, block-local, driven by AliasAnalysis:
///   - a kTmLoad whose address must-aliases an earlier same-block load or
///     store with no possibly-aliasing TM write in between is forwarded:
///     its uses are rewritten to the prior temp and the load dies
///     (Elim::kRbeLoadLoad / kRbeStoreLoad, replacement temp in src_a,
///     witness store's address temp in src_b);
///   - a kTmStore overwritten by a later same-block must-alias store with
///     no possibly-aliasing TM read in between dies
///     (Elim::kRbeDeadStore, overwriting store's value/address temps in
///     src_a/src_b).
/// Store elimination relies on the transaction making buffered or
/// lock-isolated writes: no other transaction can observe the window
/// between the two stores, and an abort rolls both back. Local-slot
/// traffic is never a TM clobber (the shadow array is disjoint from TM
/// heap words by construction). Run before pass_tm_mark so forwarding is
/// decided on raw loads/stores; every elimination carries provenance that
/// pass_tm_lint re-proves.
RbeStats pass_tm_rbe(Function& f);

struct OptimizeStats {
  std::size_t removed_tm_loads = 0;
  std::size_t removed_other = 0;
};

/// tm_optimize: delete statements whose results are dead — notably the
/// read half of every rewritten increment and compare. Built on the
/// backward liveness analysis (tmir/analysis/liveness.hpp) over temps and
/// local slots, iterated to fixpoint:
///   - pure value producers (is_pure) defining a non-live temp die;
///   - kStoreLocal to a slot that is not live-out of the store dies;
///   - every instruction in an unreachable block dies.
/// kTmCmp1/kTmCmp2 are pure but never removed here: they carry the
/// semantics the programmer asked for, and dropping them is the caller's
/// decision. TM loads are the headline removal (the paper's read-set
/// reduction); they are counted separately.
OptimizeStats pass_tm_optimize(Function& f);

}  // namespace semstm::tmir
