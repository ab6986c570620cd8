// Tests for the tmir static-analysis layer: the structural verifier
// (pass_verify), the semantic-rewrite legality lint (pass_tm_lint), the
// liveness-based tm_optimize, and the interpreter's malformed-IR guards.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "semstm.hpp"
#include "tmir/analysis/cfg.hpp"
#include "tmir/analysis/lint.hpp"
#include "tmir/analysis/liveness.hpp"
#include "tmir/analysis/verify.hpp"
#include "tmir/builder.hpp"
#include "tmir/interp.hpp"
#include "tmir/kernels.hpp"
#include "tmir/passes.hpp"

namespace semstm::tmir {
namespace {

bool has_rule(const std::vector<Diagnostic>& diags, const char* rule) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return std::string(d.rule) == rule;
  });
}

std::vector<Function> all_kernels() {
  std::vector<Function> ks;
  ks.push_back(build_probe_kernel());
  ks.push_back(build_insert_kernel());
  ks.push_back(build_remove_kernel());
  ks.push_back(build_reserve_kernel(4));
  ks.push_back(build_center_update_kernel(8));
  return ks;
}

// ---------------------------------------------------------------------------
// pass_verify: well-formed IR is accepted at every pipeline stage
// ---------------------------------------------------------------------------

TEST(Verify, AcceptsEveryKernelAtEveryStage) {
  for (Function& f : all_kernels()) {
    EXPECT_TRUE(pass_verify(f).empty()) << f.name << " raw";
    pass_tm_rbe(f);
    EXPECT_TRUE(pass_verify(f).empty()) << f.name << " post-rbe";
    pass_tm_mark(f);
    EXPECT_TRUE(pass_verify(f).empty()) << f.name << " marked";
    pass_tm_optimize(f);
    EXPECT_TRUE(pass_verify(f).empty()) << f.name << " optimized";
  }
}

TEST(Verify, DiagnosticsCarryLocationAndRule) {
  Builder b("loc", 0, 0);
  b.konst(1);  // no terminator
  Function f = b.take();
  const auto diags = pass_verify(f);
  ASSERT_FALSE(diags.empty());
  EXPECT_STREQ(diags[0].rule, "missing-terminator");
  EXPECT_EQ(diags[0].block, 0u);
  const std::string s = format_diagnostic(f, diags[0]);
  EXPECT_NE(s.find("loc:0:"), std::string::npos);
  EXPECT_NE(s.find("missing-terminator"), std::string::npos);
}

// --- the malformed-IR class catalogue --------------------------------------

TEST(Verify, RejectsMissingTerminator) {
  Builder b("f", 0, 0);
  b.konst(1);
  Function f = b.take();
  EXPECT_TRUE(has_rule(pass_verify(f), "missing-terminator"));
}

TEST(Verify, RejectsInstructionAfterTerminator) {
  Builder b("f", 0, 0);
  b.ret(b.konst(0));
  Function f = b.take();
  f.blocks[0].code.push_back(
      {.op = Op::kConst, .dst = static_cast<std::int32_t>(f.num_temps++)});
  EXPECT_TRUE(has_rule(pass_verify(f), "terminator-not-last"));
}

TEST(Verify, RejectsBranchOutOfRange) {
  Builder b("f", 0, 0);
  b.br(0);
  Function f = b.take();
  f.blocks[0].code.back().imm = 57;
  EXPECT_TRUE(has_rule(pass_verify(f), "branch-out-of-range"));
}

TEST(Verify, RejectsCbrElseTargetOutOfRange) {
  Builder b("f", 0, 0);
  const auto t = b.new_block();
  b.cbr(b.konst(1), t, t);
  b.set_block(t);
  b.ret(b.konst(0));
  Function f = b.take();
  for (Instr& i : f.blocks[0].code) {
    if (i.op == Op::kCbr) i.b = 99;
  }
  EXPECT_TRUE(has_rule(pass_verify(f), "branch-out-of-range"));
}

TEST(Verify, RejectsTempOutOfRange) {
  Builder b("f", 0, 0);
  b.ret(b.konst(0));
  Function f = b.take();
  f.blocks[0].code[0].a = 1000;  // konst has no operand; smash one in
  f.blocks[0].code[0].op = Op::kTmLoad;
  EXPECT_TRUE(has_rule(pass_verify(f), "temp-out-of-range"));
}

TEST(Verify, RejectsMultipleAssignment) {
  Builder b("f", 0, 0);
  const auto t = b.konst(1);
  b.ret(t);
  Function f = b.take();
  f.blocks[0].code.insert(f.blocks[0].code.begin(),
                          {.op = Op::kConst, .dst = t, .imm = 2});
  EXPECT_TRUE(has_rule(pass_verify(f), "multiple-assignment"));
}

TEST(Verify, RejectsUndefinedTemp) {
  Builder b("f", 0, 0);
  b.ret(b.konst(0));
  Function f = b.take();
  f.num_temps = 2;
  f.blocks[0].code.back().a = 1;  // ret t1: never defined
  EXPECT_TRUE(has_rule(pass_verify(f), "undefined-temp"));
}

TEST(Verify, RejectsUseOfDeadDef) {
  Builder b("f", 0, 0);
  const auto t = b.konst(7);
  b.ret(t);
  Function f = b.take();
  f.blocks[0].code[0].dead = true;  // kill the def, keep the use
  EXPECT_TRUE(has_rule(pass_verify(f), "use-of-dead-def"));
}

TEST(Verify, RejectsDefNotDominatingUse) {
  // Diamond: t defined only in the then-branch, used at the join.
  Builder b("f", 1, 0);
  const auto then_b = b.new_block();
  const auto else_b = b.new_block();
  const auto join = b.new_block();
  b.cbr(b.arg(0), then_b, else_b);
  b.set_block(then_b);
  const auto t = b.konst(1);
  b.br(join);
  b.set_block(else_b);
  b.br(join);
  b.set_block(join);
  b.ret(t);  // neither branch dominates the join
  Function f = b.take();
  EXPECT_TRUE(has_rule(pass_verify(f), "def-not-dominating"));
}

TEST(Verify, RejectsArgIndexOutOfRange) {
  Builder b("f", 1, 0);
  b.ret(b.arg(0));
  Function f = b.take();
  f.blocks[0].code[0].imm = 5;
  EXPECT_TRUE(has_rule(pass_verify(f), "arg-out-of-range"));
}

TEST(Verify, RejectsLocalSlotOutOfRange) {
  Builder b("f", 0, 1);
  b.store_local(0, b.konst(1));
  b.ret(b.load_local(0));
  Function f = b.take();
  for (Instr& i : f.blocks[0].code) {
    if (i.op == Op::kStoreLocal) i.imm = 9;
  }
  EXPECT_TRUE(has_rule(pass_verify(f), "local-out-of-range"));
}

TEST(Verify, RejectsMissingDstAndOperands) {
  Builder b("f", 0, 0);
  const auto x = b.konst(1);
  b.ret(b.add(x, x));
  Function f = b.take();
  for (Instr& i : f.blocks[0].code) {
    if (i.op == Op::kAdd) {
      i.dst = -1;  // producer without a destination
      i.b = -1;    // binary op missing an operand
    }
  }
  const auto diags = pass_verify(f);
  EXPECT_TRUE(has_rule(diags, "missing-dst"));
  EXPECT_TRUE(has_rule(diags, "missing-operand"));
}

TEST(Verify, RejectsDstOnVoidOp) {
  Builder b("f", 1, 0);
  b.tm_store(b.arg(0), b.konst(1));
  b.ret(b.konst(0));
  Function f = b.take();
  for (Instr& i : f.blocks[0].code) {
    if (i.op == Op::kTmStore) i.dst = 0;
  }
  EXPECT_TRUE(has_rule(pass_verify(f), "dst-on-void"));
}

TEST(Verify, RejectsSemanticBuiltinBeforeMark) {
  Builder b("f", 2, 0);
  const auto addr = b.arg(0);
  const auto delta = b.arg(1);
  b.tm_store(addr, delta);
  b.ret(b.konst(0));
  Function f = b.take();
  for (Instr& i : f.blocks[0].code) {
    if (i.op == Op::kTmStore) i.op = Op::kTmInc;  // forged semantic op
  }
  ASSERT_FALSE(f.marked);
  EXPECT_TRUE(has_rule(pass_verify(f), "semantic-before-mark"));
  f.marked = true;  // after staging, the structural rule is satisfied
  EXPECT_FALSE(has_rule(pass_verify(f), "semantic-before-mark"));
}

// ---------------------------------------------------------------------------
// pass_tm_lint: legality re-proof of semantic rewrites
// ---------------------------------------------------------------------------

TEST(TmLint, AcceptsEveryMarkedKernelBeforeAndAfterOptimize) {
  for (Function& f : all_kernels()) {
    const MarkStats ms = pass_tm_mark(f);
    LintStats ls;
    EXPECT_TRUE(pass_tm_lint(f, &ls).empty()) << f.name;
    EXPECT_EQ(ls.checked_s1r, ms.s1r) << f.name;
    EXPECT_EQ(ls.checked_s2r, ms.s2r) << f.name;
    EXPECT_EQ(ls.checked_sw, ms.sw) << f.name;
    pass_tm_optimize(f);
    // Killed origin loads keep their husks: the proof must still go through.
    EXPECT_TRUE(pass_tm_lint(f).empty()) << f.name << " post-optimize";
  }
}

/// A canonical markable compare: if (TM_READ(x) > 0).
Function marked_cmp_function() {
  Builder b("cmp", 1, 0);
  const auto v = b.tm_load(b.arg(0));
  const auto t = b.new_block();
  const auto e = b.new_block();
  b.cbr(b.cmp(Rel::SGT, v, b.konst(0)), t, e);
  b.set_block(t);
  b.ret(b.konst(1));
  b.set_block(e);
  b.ret(b.konst(0));
  Function f = b.finish();
  EXPECT_EQ(pass_tm_mark(f).s1r, 1u);
  return f;
}

Instr* find_op(Function& f, Op op) {
  for (Block& blk : f.blocks) {
    for (Instr& i : blk.code) {
      if (!i.dead && i.op == op) return &i;
    }
  }
  return nullptr;
}

// --- provenance-link structural rules --------------------------------------

TEST(Verify, RejectsProvenanceOutOfRange) {
  Function f = marked_cmp_function();
  find_op(f, Op::kTmCmp1)->src_a = 999;
  EXPECT_TRUE(has_rule(pass_verify(f), "provenance-out-of-range"));
}

TEST(Verify, RejectsUndefinedProvenance) {
  Function f = marked_cmp_function();
  f.num_temps += 1;  // a temp id with no defining instruction
  find_op(f, Op::kTmCmp1)->src_a =
      static_cast<std::int32_t>(f.num_temps - 1);
  EXPECT_TRUE(has_rule(pass_verify(f), "provenance-undefined"));
}

TEST(Verify, RejectsNonDominatingProvenance) {
  Function f = marked_cmp_function();
  // Point the origin load's link at the compare's own result — a
  // definition that sits later in the block.
  find_op(f, Op::kTmLoad)->src_a = find_op(f, Op::kTmCmp1)->dst;
  EXPECT_TRUE(has_rule(pass_verify(f), "provenance-not-dominating"));
}

TEST(TmLint, CatchesUnmarkedFunction) {
  Function f = marked_cmp_function();
  f.marked = false;
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-unmarked"));
}

TEST(TmLint, CatchesMissingProvenance) {
  Function f = marked_cmp_function();
  find_op(f, Op::kTmCmp1)->src_a = -1;  // a pass "forgot" to record it
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-no-provenance"));
}

TEST(TmLint, CatchesOriginThatIsNotALoad) {
  Function f = marked_cmp_function();
  Instr* cmp = find_op(f, Op::kTmCmp1);
  cmp->src_a = cmp->b;  // point provenance at the konst operand
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-origin-not-load"));
}

TEST(TmLint, CatchesAddressSubstitution) {
  // The rewrite claims an address the origin load never read — the exact
  // "wrong address, silently different semantics" bug class.
  Function f = marked_cmp_function();
  Instr* cmp = find_op(f, Op::kTmCmp1);
  cmp->a = cmp->b;  // claimed address temp is now the konst operand
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-origin-address"));
}

TEST(TmLint, CatchesClobberedOriginAndMarkRefusesIt) {
  // v = TM_READ(x); TM_WRITE(y, 1); if (v > 0): rewriting the compare to
  // re-read x at the branch could observe y's store (y may alias x — no
  // alias analysis). tm_mark must refuse; a forged rewrite must be caught.
  Builder b("clob", 2, 0);
  const auto x = b.arg(0);
  const auto y = b.arg(1);
  const auto v = b.tm_load(x);
  b.tm_store(y, b.konst(1));
  const auto t = b.new_block();
  const auto e = b.new_block();
  b.cbr(b.cmp(Rel::SGT, v, b.konst(0)), t, e);
  b.set_block(t);
  b.ret(b.konst(1));
  b.set_block(e);
  b.ret(b.konst(0));
  Function f = b.finish();

  Function forged = f;  // copy before marking
  const MarkStats ms = pass_tm_mark(f);
  EXPECT_EQ(ms.s1r, 0u);
  EXPECT_EQ(ms.skipped_clobbered, 1u);

  // Simulate a buggy tm_mark that rewrites anyway.
  forged.marked = true;
  for (Block& blk : forged.blocks) {
    for (Instr& i : blk.code) {
      if (i.op == Op::kCmp) {
        i.op = Op::kTmCmp1;
        i.src_a = i.a;
        i.a = 0;  // arg(0) temp == the load's address
      }
    }
  }
  EXPECT_TRUE(has_rule(pass_tm_lint(forged), "lint-clobbered-origin"));
}

TEST(TmLint, CatchesIncNegationDrift) {
  Builder b("inc", 1, 0);
  const auto ax = b.arg(0);
  b.tm_store(ax, b.sub(b.tm_load(ax), b.konst(3)));
  b.ret(b.konst(0));
  Function f = b.finish();
  ASSERT_EQ(pass_tm_mark(f).sw, 1u);
  Instr* inc = find_op(f, Op::kTmInc);
  inc->imm = 0;  // drop the negate flag: x -= 3 would become x += 3
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-inc-shape"));
}

TEST(TmLint, CatchesIncAddressMismatch) {
  Builder b("inc2", 2, 0);
  const auto ax = b.arg(0);
  b.arg(1);
  b.tm_store(ax, b.add(b.tm_load(ax), b.konst(1)));
  b.ret(b.konst(0));
  Function f = b.finish();
  ASSERT_EQ(pass_tm_mark(f).sw, 1u);
  Instr* inc = find_op(f, Op::kTmInc);
  inc->a = 1;  // now claims to increment arg(1)'s address
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-origin-address"));
}

TEST(TmLint, CatchesImpureValueOperand) {
  Builder b("impure", 2, 0);
  const auto v = b.tm_load(b.arg(0));
  const auto w = b.tm_load(b.arg(1));
  const auto t = b.new_block();
  const auto e = b.new_block();
  b.cbr(b.cmp(Rel::SGT, v, b.konst(0)), t, e);
  b.set_block(t);
  b.ret(w);
  b.set_block(e);
  b.ret(b.konst(0));
  Function f = b.finish();
  ASSERT_EQ(pass_tm_mark(f).s1r, 1u);
  // Forge: make the compare's value operand the *other* TM load — not a
  // literal/arg/local, so the single-address S1R form cannot express it.
  Instr* cmp = find_op(f, Op::kTmCmp1);
  for (Block& blk : f.blocks) {
    for (Instr& i : blk.code) {
      if (i.op == Op::kTmLoad && i.dst != cmp->src_a) cmp->b = i.dst;
    }
  }
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-impure-operand"));
}

// ---------------------------------------------------------------------------
// pass_tm_rbe: redundant-barrier elimination
// ---------------------------------------------------------------------------

TEST(TmRbe, ForwardsLoadAfterLoad) {
  Builder b("llfwd", 1, 0);
  const auto a = b.arg(0);
  const auto v1 = b.tm_load(a);
  const auto v2 = b.tm_load(a);
  b.ret(b.add(v1, v2));
  Function f = b.finish();
  const RbeStats st = pass_tm_rbe(f);
  EXPECT_EQ(st.load_load_forwarded, 1u);
  EXPECT_EQ(f.count(Op::kTmLoad).dead, 1u);
  EXPECT_EQ(f.count(Op::kTmLoad).live, 1u);
  EXPECT_TRUE(pass_verify(f).empty());
  EXPECT_TRUE(pass_tm_lint(f).empty());
}

TEST(TmRbe, ForwardsStoreToLoad) {
  Builder b("slfwd", 2, 0);
  const auto a = b.arg(0);
  b.tm_store(a, b.arg(1));
  const auto v = b.tm_load(a);
  b.ret(v);
  Function f = b.finish();
  const RbeStats st = pass_tm_rbe(f);
  EXPECT_EQ(st.store_load_forwarded, 1u);
  EXPECT_EQ(f.count(Op::kTmLoad).dead, 1u);
  EXPECT_TRUE(pass_verify(f).empty());
  EXPECT_TRUE(pass_tm_lint(f).empty());
  // The return now reads the stored temp directly.
  for (const Instr& i : f.blocks[0].code) {
    if (i.op == Op::kRet) EXPECT_EQ(i.a, 1);  // arg(1)'s temp
  }
}

TEST(TmRbe, EliminatesOverwrittenStore) {
  Builder b("dstore", 3, 0);
  const auto a = b.arg(0);
  b.tm_store(a, b.arg(1));
  b.tm_store(a, b.arg(2));
  b.ret(b.konst(0));
  Function f = b.finish();
  const RbeStats st = pass_tm_rbe(f);
  EXPECT_EQ(st.dead_stores, 1u);
  EXPECT_EQ(f.count(Op::kTmStore).dead, 1u);
  EXPECT_EQ(f.count(Op::kTmStore).live, 1u);
  // The husk links the *later* overwriting store's operands — the verifier
  // must accept the forward witness, and the lint must re-prove it.
  EXPECT_TRUE(pass_verify(f).empty());
  EXPECT_TRUE(pass_tm_lint(f).empty());
}

TEST(TmRbe, MayAliasWriteBlocksForwarding) {
  // Two distinct pointer arguments may refer to the same word: the store
  // through the second must stop both forwarding and dead-store scans.
  Builder b("mayblock", 2, 0);
  const auto a = b.arg(0);
  const auto u = b.arg(1);
  const auto v1 = b.tm_load(a);
  b.tm_store(u, b.konst(1));
  const auto v2 = b.tm_load(a);
  b.ret(b.add(v1, v2));
  Function f = b.finish();
  EXPECT_EQ(pass_tm_rbe(f).total(), 0u);
  EXPECT_EQ(f.count(Op::kTmLoad).live, 2u);
}

TEST(TmRbe, ProvenDisjointWriteIsCrossed) {
  // Same base, different constant offsets: the intervening store provably
  // cannot touch the reloaded cell, so the reload still forwards.
  Builder b("disjoint", 2, 0);
  const auto base = b.arg(0);
  const auto a1 = b.add(base, b.konst(0));
  const auto a2 = b.add(base, b.konst(8));
  const auto v1 = b.tm_load(a1);
  b.tm_store(a2, b.arg(1));
  const auto v2 = b.tm_load(a1);
  b.ret(b.add(v1, v2));
  Function f = b.finish();
  const RbeStats st = pass_tm_rbe(f);
  EXPECT_EQ(st.load_load_forwarded, 1u);
  EXPECT_TRUE(pass_verify(f).empty());
  EXPECT_TRUE(pass_tm_lint(f).empty());
}

TEST(TmRbe, LiveReadBlocksDeadStoreElimination) {
  // store a; (may-alias store u keeps the reload live); read a; store a —
  // the first store's value is observed, so it must survive.
  Builder b("readblock", 3, 0);
  const auto a = b.arg(0);
  const auto u = b.arg(1);
  b.tm_store(a, b.konst(5));
  b.tm_store(u, b.konst(6));
  const auto v = b.tm_load(a);
  b.tm_store(a, b.arg(2));
  b.ret(v);
  Function f = b.finish();
  EXPECT_EQ(pass_tm_rbe(f).total(), 0u);
  EXPECT_EQ(f.count(Op::kTmStore).live, 3u);
}

// --- lint re-proof forgeries for claimed eliminations ----------------------

TEST(TmLint, CatchesElimTagOnLiveInstruction) {
  Function f = marked_cmp_function();
  find_op(f, Op::kTmLoad)->elim = Elim::kRbeLoadLoad;
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-rbe-shape"));
}

TEST(TmLint, CatchesElimTagOnWrongOpcode) {
  Builder b("wrongop", 0, 0);
  const auto t = b.konst(7);
  b.ret(b.konst(0));
  Function f = b.take();
  for (Instr& i : f.blocks[0].code) {
    if (i.op == Op::kConst && i.dst == t) {
      i.dead = true;
      i.elim = Elim::kRbeDeadStore;  // a konst is no store
    }
  }
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-rbe-shape"));
}

TEST(TmLint, CatchesForwardFromWrongAddress) {
  // Forge a load-load forward whose source read a different cell.
  Builder b("badfwd", 1, 0);
  const auto base = b.arg(0);
  const auto a1 = b.add(base, b.konst(0));
  const auto a2 = b.add(base, b.konst(8));
  const auto v1 = b.tm_load(a1);
  const auto v2 = b.tm_load(a2);
  b.ret(b.add(v1, v2));
  Function f = b.finish();
  EXPECT_EQ(pass_tm_rbe(f).total(), 0u);  // disjoint cells: nothing redundant
  Instr* first = nullptr;
  Instr* second = nullptr;
  for (Instr& i : f.blocks[0].code) {
    if (i.op != Op::kTmLoad) continue;
    (first == nullptr ? first : second) = &i;
  }
  second->dead = true;
  second->elim = Elim::kRbeLoadLoad;
  second->src_a = first->dst;
  for (Instr& i : f.blocks[0].code) {
    if (i.op == Op::kAdd && i.b == second->dst) i.b = first->dst;
  }
  ASSERT_TRUE(pass_verify(f).empty());
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-rbe-forward"));
}

TEST(TmLint, CatchesForwardAcrossClobber) {
  // Forge a load-load forward across a may-alias store the real pass
  // refused to cross.
  Builder b("fclob", 2, 0);
  const auto a = b.arg(0);
  const auto u = b.arg(1);
  const auto v1 = b.tm_load(a);
  b.tm_store(u, b.konst(1));
  const auto v2 = b.tm_load(a);
  b.ret(b.add(v1, v2));
  Function f = b.finish();
  EXPECT_EQ(pass_tm_rbe(f).total(), 0u);
  Instr* first = nullptr;
  Instr* second = nullptr;
  for (Instr& i : f.blocks[0].code) {
    if (i.op != Op::kTmLoad) continue;
    (first == nullptr ? first : second) = &i;
  }
  second->dead = true;
  second->elim = Elim::kRbeLoadLoad;
  second->src_a = first->dst;
  for (Instr& i : f.blocks[0].code) {
    if (i.op == Op::kAdd && i.b == second->dst) i.b = first->dst;
  }
  ASSERT_TRUE(pass_verify(f).empty());
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-rbe-forward"));
}

TEST(TmLint, CatchesMissingForwardWitness) {
  // Legitimate store-to-load forward, then the witness store's value
  // operand is swapped out from under it.
  Builder b("nowit", 3, 0);
  const auto a = b.arg(0);
  const auto other = b.arg(2);
  b.tm_store(a, b.arg(1));
  const auto v = b.tm_load(a);
  b.ret(v);
  Function f = b.finish();
  ASSERT_EQ(pass_tm_rbe(f).store_load_forwarded, 1u);
  ASSERT_TRUE(pass_tm_lint(f).empty());
  find_op(f, Op::kTmStore)->b = other;  // not the recorded value temp
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-rbe-forward"));
}

TEST(TmLint, CatchesDeadStoreWithObservedValue) {
  // Forge a dead-store claim over a store whose value a live load reads.
  Builder b("obsv", 3, 0);
  const auto a = b.arg(0);
  b.tm_store(a, b.arg(1));
  const auto v = b.tm_load(a);
  b.tm_store(a, b.arg(2));
  b.ret(v);
  Function f = b.finish();
  Instr* first = nullptr;
  Instr* second = nullptr;
  for (Instr& i : f.blocks[0].code) {
    if (i.op != Op::kTmStore) continue;
    (first == nullptr ? first : second) = &i;
  }
  first->dead = true;
  first->elim = Elim::kRbeDeadStore;
  first->src_a = second->b;  // the overwriter's operands, as the pass records
  first->src_b = second->a;
  ASSERT_TRUE(pass_verify(f).empty());
  EXPECT_TRUE(has_rule(pass_tm_lint(f), "lint-rbe-dead-store"));
}

TEST(TmLint, CountsRbeProofObligations) {
  Function f = build_center_update_kernel(8);
  const RbeStats rbe = pass_tm_rbe(f);
  pass_tm_mark(f);
  pass_tm_optimize(f);
  LintStats ls;
  EXPECT_TRUE(pass_tm_lint(f, &ls).empty());
  EXPECT_EQ(ls.checked_rbe_forwards,
            rbe.load_load_forwarded + rbe.store_load_forwarded);
  EXPECT_EQ(ls.checked_rbe_dead_stores, rbe.dead_stores);
  EXPECT_EQ(ls.checked_rbe_forwards, 1u);  // the trailing length re-read
}

// ---------------------------------------------------------------------------
// Liveness-based tm_optimize
// ---------------------------------------------------------------------------

TEST(TmOptimize, RemovesDeadLocalStoreChains) {
  // t = TM_READ(x); locals[0] = t; ret 0 — slot 0 is never loaded, so the
  // store, the load and the whole chain are dead, although the store
  // *syntactically* uses t: counting uses cannot see it, liveness can.
  Builder b("deadchain", 1, 1);
  const auto v = b.tm_load(b.arg(0));
  b.store_local(0, v);
  b.ret(b.konst(0));
  Function f = b.finish();
  const OptimizeStats os = pass_tm_optimize(f);
  EXPECT_EQ(os.removed_tm_loads, 1u);
  EXPECT_EQ(f.count(Op::kStoreLocal).dead, 1u);
  EXPECT_TRUE(pass_verify(f).empty());
}

TEST(TmOptimize, KeepsLocalStoresThatFeedALaterLoad) {
  Builder b("livechain", 1, 1);
  const auto v = b.tm_load(b.arg(0));
  b.store_local(0, v);
  b.ret(b.load_local(0));
  Function f = b.finish();
  const OptimizeStats os = pass_tm_optimize(f);
  EXPECT_EQ(os.removed_tm_loads, 0u);
  EXPECT_EQ(f.count(Op::kStoreLocal).live, 1u);
}

TEST(TmOptimize, KeepsLoopCarriedLocals) {
  // locals[0] counts down a loop: the store in the body must survive even
  // though the only load is "behind" it through the back edge.
  Builder b("loop", 1, 1);
  b.store_local(0, b.arg(0));
  const auto head = b.new_block();
  const auto body = b.new_block();
  const auto done = b.new_block();
  b.br(head);
  b.set_block(head);
  b.cbr(b.cmp(Rel::UGT, b.load_local(0), b.konst(0)), body, done);
  b.set_block(body);
  b.store_local(0, b.sub(b.load_local(0), b.konst(1)));
  b.br(head);
  b.set_block(done);
  b.ret(b.konst(0));
  Function f = b.finish();
  const OptimizeStats os = pass_tm_optimize(f);
  EXPECT_EQ(f.count(Op::kStoreLocal).live, 2u);
  EXPECT_EQ(os.removed_other, 0u);
}

TEST(TmOptimize, KillsUnreachableBlocks) {
  Builder b("unreach", 1, 0);
  const auto orphan = b.new_block();
  b.ret(b.konst(0));
  b.set_block(orphan);  // nothing branches here
  b.tm_store(b.arg(0), b.tm_load(b.arg(0)));
  b.ret(b.konst(1));
  Function f = b.take();
  const OptimizeStats os = pass_tm_optimize(f);
  EXPECT_EQ(os.removed_tm_loads, 1u);
  EXPECT_EQ(f.count(Op::kTmStore).dead, 1u);
  EXPECT_TRUE(pass_verify(f).empty());
}

TEST(TmOptimize, RemovesEveryKernelsDeadLoadsExactly) {
  // tm_mark -> tm_optimize removes exactly these TM loads per kernel, in
  // all_kernels() order: probe, insert, remove, reserve(4) (3 price reads
  // stay live), center_update(8) (the read halves of all 9 increments;
  // only the trailing length re-read stays live). The removal counter
  // also agrees with the dead-load count in the IR (no stats drift).
  const std::size_t want[] = {3, 2, 3, 6, 9};
  std::vector<Function> kernels = all_kernels();
  ASSERT_EQ(kernels.size(), std::size(want));
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    Function& f = kernels[k];
    pass_tm_mark(f);
    const OptimizeStats os = pass_tm_optimize(f);
    EXPECT_EQ(os.removed_tm_loads, want[k]) << f.name;
    EXPECT_EQ(os.removed_tm_loads, f.count(Op::kTmLoad).dead) << f.name;
  }
}

TEST(TmOptimize, LivenessFrameworkAgreesWithRemoval) {
  // Every dead-marked TM load must be non-live at its definition per the
  // framework, and every surviving one live — the pass and the analysis
  // cannot disagree.
  for (Function& f : all_kernels()) {
    pass_tm_mark(f);
    pass_tm_optimize(f);
    const Cfg cfg(f);
    const Liveness lv = compute_liveness(f, cfg);
    for (std::uint32_t b = 0; b < f.blocks.size(); ++b) {
      if (!cfg.reachable(b)) continue;
      BitSet live = lv.sets.out[b];
      for (auto it = f.blocks[b].code.rbegin(); it != f.blocks[b].code.rend();
           ++it) {
        if (it->op == Op::kTmLoad) {
          const bool live_def = live.test(static_cast<std::size_t>(it->dst));
          EXPECT_EQ(live_def, !it->dead) << f.name;
        }
        if (!it->dead) detail::step_backward(*it, f.num_temps, live);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MarkStats / OpCount drift
// ---------------------------------------------------------------------------

TEST(OpCount, LiveAndDeadSplitStaysConsistentThroughThePipeline) {
  Function f = build_center_update_kernel(4);
  const std::size_t loads_before = f.count(Op::kTmLoad).total();
  const MarkStats ms = pass_tm_mark(f);
  EXPECT_EQ(f.count(Op::kTmInc).live, ms.sw);
  const OptimizeStats os = pass_tm_optimize(f);
  const OpCount loads = f.count(Op::kTmLoad);
  EXPECT_EQ(loads.total(), loads_before);  // husks remain, split shifts
  EXPECT_EQ(loads.dead, os.removed_tm_loads);
}

// ---------------------------------------------------------------------------
// CFG / dominator sanity (the substrate the verifier leans on)
// ---------------------------------------------------------------------------

TEST(Cfg, DominatorsOnADiamond) {
  Builder b("d", 1, 0);
  const auto t = b.new_block();
  const auto e = b.new_block();
  const auto j = b.new_block();
  b.cbr(b.arg(0), t, e);
  b.set_block(t);
  b.br(j);
  b.set_block(e);
  b.br(j);
  b.set_block(j);
  b.ret(b.konst(0));
  Function f = b.finish();
  const Cfg cfg(f);
  EXPECT_TRUE(cfg.dominates(0, j));
  EXPECT_FALSE(cfg.dominates(t, j));
  EXPECT_FALSE(cfg.dominates(e, j));
  EXPECT_EQ(cfg.idom(j), 0);
  EXPECT_EQ(cfg.succs(0).size(), 2u);
  EXPECT_EQ(cfg.preds(j).size(), 2u);
}

TEST(Cfg, UnreachableBlocksAreFlagged) {
  Builder b("u", 0, 0);
  const auto orphan = b.new_block();
  b.ret(b.konst(0));
  b.set_block(orphan);
  b.ret(b.konst(1));
  Function f = b.take();
  const Cfg cfg(f);
  EXPECT_TRUE(cfg.reachable(0));
  EXPECT_FALSE(cfg.reachable(orphan));
}

// ---------------------------------------------------------------------------
// Interpreter malformed-IR guards (satellite: loud abort, not UB)
// ---------------------------------------------------------------------------

class InterpGuards : public ::testing::Test {
 protected:
  void SetUp() override {
    algo_ = make_algorithm("norec");
    ctx_ = std::make_unique<ThreadCtx>(algo_->make_tx());
    binder_ = std::make_unique<CtxBinder>(*ctx_);
  }
  word_t run(const Function& f, std::initializer_list<word_t> args) {
    return atomically([&](auto& tx) {
      return execute(tx, f, args.begin(), args.size());
    });
  }
  std::unique_ptr<Algorithm> algo_;
  std::unique_ptr<ThreadCtx> ctx_;
  std::unique_ptr<CtxBinder> binder_;
};

using InterpGuardsDeathTest = InterpGuards;

TEST_F(InterpGuardsDeathTest, TempIdOutOfRangeAbortsLoudly) {
  Builder b("badtemp", 0, 0);
  b.ret(b.konst(0));
  Function f = b.take();
  f.blocks[0].code.back().a = 40;  // ret t40 of 1 temp
  EXPECT_DEATH(run(f, {}), "malformed IR in badtemp: temp 40");
}

TEST_F(InterpGuardsDeathTest, LocalSlotOutOfRangeAbortsLoudly) {
  Builder b("badlocal", 0, 1);
  b.store_local(0, b.konst(1));
  b.ret(b.konst(0));
  Function f = b.take();
  for (Instr& i : f.blocks[0].code) {
    if (i.op == Op::kStoreLocal) i.imm = 3;
  }
  EXPECT_DEATH(run(f, {}), "malformed IR in badlocal: local slot 3");
}

TEST_F(InterpGuardsDeathTest, ArgIndexOutOfRangeAbortsLoudly) {
  Builder b("badarg", 1, 0);
  b.ret(b.arg(0));
  Function f = b.take();
  f.blocks[0].code[0].imm = 6;
  EXPECT_DEATH(run(f, {11}), "malformed IR in badarg: arg index 6");
}

}  // namespace
}  // namespace semstm::tmir
