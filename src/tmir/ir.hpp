// tmir: a miniature GIMPLE-like intermediate representation.
//
// This is the substrate standing in for the paper's GCC integration (§6).
// Like GIMPLE after gimplification, code is three-operand statements over
// single-assignment temporaries, organised into basic blocks with explicit
// conditional branches; transactional accesses are explicit TM_LOAD /
// TM_STORE statements (what GCC's tm_mark pass emits for every shared
// access inside a _transaction_atomic block).
//
// The two optimization passes of the paper operate on this IR:
//   pass_tm_mark:     detect cmp / inc patterns, rewrite them to the
//                     semantic builtins (_ITM_S1R / _ITM_S2R / _ITM_SW).
//   pass_tm_optimize: remove TM loads feeding only never-live temporaries
//                     (the read half of a rewritten increment, and any
//                     other dead transactional read).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/semantics.hpp"
#include "core/word.hpp"

namespace semstm::tmir {

enum class Op : std::uint8_t {
  // Value producers (dst = ...)
  kConst,       // dst = imm
  kArg,         // dst = args[imm]
  kLoadLocal,   // dst = locals[imm]
  kAdd,         // dst = a + b
  kSub,         // dst = a - b
  kMul,         // dst = a * b
  kAnd,         // dst = a & b
  kCmp,         // dst = (a REL b)
  kTmLoad,      // dst = TM_READ(*(tword*)a)
  // Effects
  kStoreLocal,  // locals[imm] = a
  kTmStore,     // TM_WRITE(*(tword*)a, b)
  // Terminators
  kBr,          // goto blocks[imm]
  kCbr,         // if (a) goto blocks[imm] else goto blocks[b]
  kRet,         // return a
  // Semantic builtins (only produced by pass_tm_mark)
  kTmCmp1,      // dst = _ITM_S1R: cmp(*(tword*)a REL b-value)
  kTmCmp2,      // dst = _ITM_S2R: cmp(*(tword*)a REL *(tword*)b)
  kTmInc,       // _ITM_SW: inc(*(tword*)a, delta b)
};

constexpr bool produces_value(Op op) noexcept {
  switch (op) {
    case Op::kConst:
    case Op::kArg:
    case Op::kLoadLocal:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kAnd:
    case Op::kCmp:
    case Op::kTmLoad:
    case Op::kTmCmp1:
    case Op::kTmCmp2:
      return true;
    default:
      return false;
  }
}

constexpr bool is_terminator(Op op) noexcept {
  return op == Op::kBr || op == Op::kCbr || op == Op::kRet;
}

/// Why a dead instruction was killed. Dead instructions stay in the IR as
/// husks (positions frozen for provenance), so the kill reason must be
/// recorded alongside: pass_tm_lint re-proves each redundant-barrier
/// elimination from its Elim kind + src links, and a dead TM barrier with a
/// forged or missing justification is a lint error, not a silent trust.
enum class Elim : std::uint8_t {
  kNone = 0,       ///< not killed, or killed by hand-written test IR
  kDeadCode,       ///< tm_optimize: definition never live / block unreachable
  kRbeLoadLoad,    ///< rbe: load forwarded from an earlier must-alias load
  kRbeStoreLoad,   ///< rbe: load forwarded from an earlier must-alias store
  kRbeDeadStore,   ///< rbe: store overwritten before any possible read
};

/// One three-operand statement. `dst` and the operands `a`/`b` are temp
/// ids; `imm` carries constants / local slots / branch targets.
///
/// `src_a`/`src_b` are *provenance links*, recorded by pass_tm_mark on the
/// semantic builtins it emits: the temp ids of the original TM-load result
/// (src_a; both loads for kTmCmp2 via src_a/src_b) and, for kTmInc, the
/// arithmetic temp that computed the stored value (src_b). pass_tm_rbe
/// records them too: the replacement temp (src_a) and, where the witness is
/// a store, its address temp (src_b). They are not operands — the
/// interpreter never reads them and tm_optimize is free to kill the
/// instructions they name — but pass_tm_lint uses them to independently
/// re-prove that each rewrite or elimination was legal, and pass_verify
/// checks the links themselves are structurally sane (in range, defined,
/// dominating).
struct Instr {
  Op op = Op::kConst;
  Rel rel = Rel::EQ;  // kCmp / kTmCmp*
  std::int32_t dst = -1;
  std::int32_t a = -1;
  std::int32_t b = -1;
  word_t imm = 0;
  bool dead = false;  ///< marked by passes; skipped by the interpreter
  std::int32_t src_a = -1;  ///< provenance: origin TM-load temp
  std::int32_t src_b = -1;  ///< provenance: second load (S2R) / arith (SW)
  Elim elim = Elim::kNone;  ///< why `dead` was set (kNone while live)
};

struct Block {
  std::vector<Instr> code;
};

/// Live/dead instruction counts for one opcode. Passes mark instructions
/// dead rather than erasing them, so meaningful statistics after
/// tm_optimize need both sides of the split.
struct OpCount {
  std::size_t live = 0;
  std::size_t dead = 0;
  std::size_t total() const noexcept { return live + dead; }
};

/// A function: blocks[0] is the entry. Temps are single-assignment by
/// construction (the Builder enforces it); locals are mutable slots.
struct Function {
  std::string name;
  std::vector<Block> blocks;
  std::uint32_t num_temps = 0;
  std::uint32_t num_locals = 0;
  std::uint32_t num_args = 0;
  /// Set by pass_tm_mark: semantic builtins are only well-formed after the
  /// marking stage has run (pass_verify's staging rule).
  bool marked = false;

  /// Live and dead counts for the given op.
  OpCount count(Op op) const noexcept {
    OpCount c;
    for (const Block& b : blocks) {
      for (const Instr& i : b.code) {
        if (i.op != op) continue;
        if (i.dead) {
          ++c.dead;
        } else {
          ++c.live;
        }
      }
    }
    return c;
  }
};

/// Visit every temp *operand* of an instruction as a mutable reference
/// (block ids, immediates and provenance links are not uses). The single
/// switch behind both `for_each_use` and pass_tm_rbe's operand rewriting,
/// so the notion of "use" cannot drift between reading and rewriting.
template <typename Fn>
void for_each_use_ref(Instr& i, Fn&& fn) {
  switch (i.op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kAnd:
    case Op::kCmp:
    case Op::kTmStore:
    case Op::kTmCmp1:
    case Op::kTmCmp2:
    case Op::kTmInc:
      fn(i.a);
      fn(i.b);
      break;
    case Op::kTmLoad:
    case Op::kStoreLocal:
    case Op::kCbr:  // b is a block id, not a temp
      fn(i.a);
      break;
    case Op::kRet:
      if (i.a >= 0) fn(i.a);
      break;
    default:
      break;  // kConst/kArg/kLoadLocal/kBr: no temp uses
  }
}

/// Visit every temp *operand* of an instruction by value. Shared by the
/// passes, the analyses and the verifier.
template <typename Fn>
void for_each_use(const Instr& i, Fn&& fn) {
  // Safe const_cast: the by-value adapter never writes through the refs.
  for_each_use_ref(const_cast<Instr&>(i),
                   [&](std::int32_t& t) { fn(static_cast<std::int32_t>(t)); });
}

/// True for ops whose only effect is defining `dst` — the set tm_optimize
/// may delete when the definition is dead. The semantic compares are pure
/// too, but they carry programmer-requested semantics and are excluded by
/// the pass itself, not here.
constexpr bool is_pure(Op op) noexcept {
  switch (op) {
    case Op::kConst:
    case Op::kArg:
    case Op::kLoadLocal:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kAnd:
    case Op::kCmp:
    case Op::kTmLoad:
      return true;
    default:
      return false;
  }
}

}  // namespace semstm::tmir
