// Tests for the tmir substrate: interpreter semantics, the tm_mark
// pattern detector, the tm_optimize dead-TM-read eliminator, and
// end-to-end equivalence of original vs. transformed kernels.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "containers/tarray.hpp"
#include "semstm.hpp"
#include "util/rng.hpp"
#include "tmir/analysis/lint.hpp"
#include "tmir/builder.hpp"
#include "tmir/interp.hpp"
#include "tmir/kernels.hpp"
#include "tmir/passes.hpp"

namespace semstm::tmir {
namespace {

class TmirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    algo_ = make_algorithm("snorec");
    ctx_ = std::make_unique<ThreadCtx>(algo_->make_tx());
    binder_ = std::make_unique<CtxBinder>(*ctx_);
  }

  word_t run(const Function& f, std::initializer_list<word_t> args,
             InterpOptions opts = {}) {
    return atomically([&](auto& tx) {
      return execute(tx, f, args.begin(), args.size(), opts);
    });
  }

  std::unique_ptr<Algorithm> algo_;
  std::unique_ptr<ThreadCtx> ctx_;
  std::unique_ptr<CtxBinder> binder_;
};

// ---------------------------------------------------------------------------
// Interpreter basics
// ---------------------------------------------------------------------------

TEST_F(TmirFixture, ArithmeticAndBranches) {
  // return (a > b) ? a - b : b - a
  Builder b("absdiff", 2, 0);
  const auto a = b.arg(0);
  const auto c = b.arg(1);
  const auto then_b = b.new_block();
  const auto else_b = b.new_block();
  b.cbr(b.cmp(Rel::SGT, a, c), then_b, else_b);
  b.set_block(then_b);
  b.ret(b.sub(a, c));
  b.set_block(else_b);
  b.ret(b.sub(c, a));
  const Function f = b.take();

  EXPECT_EQ(run(f, {10, 3}), 7u);
  EXPECT_EQ(run(f, {3, 10}), 7u);
  EXPECT_EQ(run(f, {5, 5}), 0u);
}

TEST_F(TmirFixture, LocalsAndLoops) {
  // sum 1..n via a loop
  Builder b("sum", 1, 1);
  const auto n = b.arg(0);
  b.store_local(0, b.konst(0));
  const auto loop = b.new_block();
  const auto body = b.new_block();
  const auto done = b.new_block();
  b.br(loop);
  b.set_block(loop);
  b.cbr(b.cmp(Rel::UGT, n, b.konst(0)), body, done);  // placeholder cond
  b.set_block(body);
  // acc += n is not expressible without mutating n; use a counting local.
  b.br(done);
  b.set_block(done);
  b.ret(b.load_local(0));
  const Function f = b.take();
  EXPECT_EQ(run(f, {4}), 0u);  // structural smoke: loop + locals execute
}

TEST_F(TmirFixture, TmLoadStoreRoundTrip) {
  TVar<long> x(7);
  Builder b("bump", 1, 0);
  const auto addr = b.arg(0);
  const auto v = b.tm_load(addr);
  b.tm_store(addr, b.add(v, b.konst(5)));
  b.ret(v);
  const Function f = b.take();
  const word_t old = run(f, {to_word(x.word())});
  EXPECT_EQ(old, 7u);
  EXPECT_EQ(x.unsafe_get(), 12);
}

TEST_F(TmirFixture, InstrumentedLocalsBehaveIdentically) {
  Builder b("loc", 1, 1);
  b.store_local(0, b.arg(0));
  const auto v = b.load_local(0);
  b.store_local(0, b.add(v, b.konst(1)));
  b.ret(b.load_local(0));
  const Function f = b.take();
  EXPECT_EQ(run(f, {41}), 42u);
  tword shadow[1];  // must outlive the transaction (write-set points here)
  EXPECT_EQ(
      run(f, {41}, {.instrument_locals = true, .local_shadow = shadow}),
      42u);
}

TEST_F(TmirFixture, InstrumentedLocalsRequireCallerShadow) {
  Builder b("loc2", 0, 1);
  b.store_local(0, b.konst(1));
  b.ret(b.load_local(0));
  const Function f = b.take();
  EXPECT_THROW(run(f, {}, {.instrument_locals = true}), std::runtime_error);
}

TEST_F(TmirFixture, MalformedIrIsRejected) {
  Builder b("bad", 0, 0);
  b.konst(1);  // block without terminator
  const Function f = b.take();
  EXPECT_THROW(run(f, {}), std::runtime_error);
}

// ---------------------------------------------------------------------------
// pass_tm_mark pattern detection
// ---------------------------------------------------------------------------

TEST(TmMark, DetectsAddressValueCompare) {
  // if (TM_READ(x) > 0) — the paper's canonical S1R pattern.
  Builder b("s1r", 1, 0);
  const auto v = b.tm_load(b.arg(0));
  const auto t = b.new_block();
  const auto e = b.new_block();
  b.cbr(b.cmp(Rel::SGT, v, b.konst(0)), t, e);
  b.set_block(t);
  b.ret(b.konst(1));
  b.set_block(e);
  b.ret(b.konst(0));
  Function f = b.take();

  const MarkStats ms = pass_tm_mark(f);
  EXPECT_EQ(ms.s1r, 1u);
  EXPECT_EQ(f.count(Op::kTmCmp1).live, 1u);
  // The feeding load becomes never-live; tm_optimize removes it.
  const OptimizeStats os = pass_tm_optimize(f);
  EXPECT_EQ(os.removed_tm_loads, 1u);
  EXPECT_EQ(f.count(Op::kTmLoad).live, 0u);
}

TEST(TmMark, DetectsMirroredCompare) {
  // if (0 < TM_READ(x)) — load on the right; relation must mirror.
  Builder b("s1r_m", 1, 0);
  const auto v = b.tm_load(b.arg(0));
  const auto t = b.new_block();
  const auto e = b.new_block();
  b.cbr(b.cmp(Rel::SLT, b.konst(0), v), t, e);
  b.set_block(t);
  b.ret(b.konst(1));
  b.set_block(e);
  b.ret(b.konst(0));
  Function f = b.take();

  EXPECT_EQ(pass_tm_mark(f).s1r, 1u);
  // Find the rewritten instruction and check the mirrored relation.
  for (const Block& blk : f.blocks) {
    for (const Instr& i : blk.code) {
      if (i.op == Op::kTmCmp1) EXPECT_EQ(i.rel, Rel::SGT);
    }
  }
}

TEST(TmMark, DetectsAddressAddressCompare) {
  // if (TM_READ(head) == TM_READ(tail)) — S2R.
  Builder b("s2r", 2, 0);
  const auto h = b.tm_load(b.arg(0));
  const auto t0 = b.tm_load(b.arg(1));
  const auto t = b.new_block();
  const auto e = b.new_block();
  b.cbr(b.cmp(Rel::EQ, h, t0), t, e);
  b.set_block(t);
  b.ret(b.konst(1));
  b.set_block(e);
  b.ret(b.konst(0));
  Function f = b.take();

  EXPECT_EQ(pass_tm_mark(f).s2r, 1u);
  EXPECT_EQ(pass_tm_optimize(f).removed_tm_loads, 2u);
}

TEST(TmMark, DetectsIncrementAndDecrement) {
  // TM_WRITE(x, TM_READ(x) + 5) and TM_WRITE(y, TM_READ(y) - 3).
  Builder b("incdec", 2, 0);
  const auto ax = b.arg(0);
  const auto ay = b.arg(1);
  b.tm_store(ax, b.add(b.tm_load(ax), b.konst(5)));
  b.tm_store(ay, b.sub(b.tm_load(ay), b.konst(3)));
  b.ret(b.konst(0));
  Function f = b.take();

  EXPECT_EQ(pass_tm_mark(f).sw, 2u);
  EXPECT_EQ(f.count(Op::kTmInc).live, 2u);
  EXPECT_EQ(pass_tm_optimize(f).removed_tm_loads, 2u);
}

TEST(TmMark, LeavesLiveReadsAlone) {
  // v = TM_READ(x); TM_WRITE(x, v + 1); return v — the read stays live
  // (returned), so the store is rewritten but the load must NOT be removed.
  Builder b("live", 1, 0);
  const auto ax = b.arg(0);
  const auto v = b.tm_load(ax);
  b.tm_store(ax, b.add(v, b.konst(1)));
  b.ret(v);
  Function f = b.take();

  EXPECT_EQ(pass_tm_mark(f).sw, 1u);
  EXPECT_EQ(pass_tm_optimize(f).removed_tm_loads, 0u);
  EXPECT_EQ(f.count(Op::kTmLoad).live, 1u);
}

TEST(TmMark, IgnoresNonTmPatterns) {
  // Compare of two locals, store of a product: nothing to mark.
  Builder b("plain", 1, 2);
  b.store_local(0, b.konst(1));
  b.store_local(1, b.konst(2));
  const auto t = b.new_block();
  const auto e = b.new_block();
  b.cbr(b.cmp(Rel::SLT, b.load_local(0), b.load_local(1)), t, e);
  b.set_block(t);
  const auto ax = b.arg(0);
  b.tm_store(ax, b.mul(b.tm_load(ax), b.konst(2)));  // x *= 2: not an inc
  b.ret(b.konst(1));
  b.set_block(e);
  b.ret(b.konst(0));
  Function f = b.take();

  const MarkStats ms = pass_tm_mark(f);
  EXPECT_EQ(ms.s1r + ms.s2r + ms.sw, 0u);
}

TEST(TmMark, IgnoresDifferentAddressStore) {
  // TM_WRITE(y, TM_READ(x) + 1): not an increment of y.
  Builder b("xfer", 2, 0);
  b.tm_store(b.arg(1), b.add(b.tm_load(b.arg(0)), b.konst(1)));
  b.ret(b.konst(0));
  Function f = b.take();
  EXPECT_EQ(pass_tm_mark(f).sw, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: kernels behave identically before and after the passes.
// ---------------------------------------------------------------------------

class KernelEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelEquivalence, HashKernelsMatchAcrossPipelines) {
  auto algo = make_algorithm(GetParam());
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);

  Function probe_raw = build_probe_kernel();
  Function insert_raw = build_insert_kernel();
  Function remove_raw = build_remove_kernel();
  Function probe_opt = build_probe_kernel();
  Function insert_opt = build_insert_kernel();
  Function remove_opt = build_remove_kernel();
  for (Function* f : {&probe_opt, &insert_opt, &remove_opt}) {
    pass_tm_mark(*f);
    pass_tm_optimize(*f);
  }
  EXPECT_GT(probe_opt.count(Op::kTmCmp1).live, 0u);

  constexpr std::size_t kCap = 64;
  TArray<std::int64_t> states_a(kCap, 0), keys_a(kCap, 0);
  TArray<std::int64_t> states_b(kCap, 0), keys_b(kCap, 0);

  auto word_args = [&](TArray<std::int64_t>& st, TArray<std::int64_t>& ks,
                       word_t start, word_t key) {
    return std::array<word_t, 6>{to_word(st[0].word()), to_word(ks[0].word()),
                                 kCap - 1, start, key, kCap};
  };

  Rng rng(99);
  for (int step = 0; step < 1500; ++step) {
    const word_t key = 1 + rng.below(40);
    const word_t start = key % kCap;
    const unsigned action = static_cast<unsigned>(rng.below(3));
    const Function& raw = action == 0   ? insert_raw
                          : action == 1 ? remove_raw
                                        : probe_raw;
    const Function& opt = action == 0   ? insert_opt
                          : action == 1 ? remove_opt
                                        : probe_opt;
    auto aa = word_args(states_a, keys_a, start, key);
    auto ab = word_args(states_b, keys_b, start, key);
    const word_t ra = atomically(
        [&](auto& tx) { return execute(tx, raw, aa.data(), aa.size()); });
    const word_t rb = atomically(
        [&](auto& tx) { return execute(tx, opt, ab.data(), ab.size()); });
    ASSERT_EQ(ra, rb) << "step " << step << " action " << action;
  }
  // The two tables must be bit-identical after the op sequence.
  for (std::size_t i = 0; i < kCap; ++i) {
    ASSERT_EQ(states_a[i].unsafe_get(), states_b[i].unsafe_get()) << i;
    ASSERT_EQ(keys_a[i].unsafe_get(), keys_b[i].unsafe_get()) << i;
  }
}

TEST_P(KernelEquivalence, ReserveKernelMatches) {
  auto algo = make_algorithm(GetParam());
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);

  Function raw = build_reserve_kernel(4);
  Function opt = build_reserve_kernel(4);
  const MarkStats ms = pass_tm_mark(opt);
  EXPECT_EQ(ms.sw, 1u);   // the numFree decrement
  EXPECT_GE(ms.s1r, 4u);  // numFree > 0 checks (price check keeps its read)
  pass_tm_optimize(opt);

  constexpr std::size_t kRecords = 16;
  TArray<std::int64_t> free_a(kRecords, 3), price_a(kRecords, 0);
  TArray<std::int64_t> free_b(kRecords, 3), price_b(kRecords, 0);
  Rng setup(5);
  for (std::size_t i = 0; i < kRecords; ++i) {
    const auto p = setup.between(10, 500);
    price_a[i].unsafe_set(p);
    price_b[i].unsafe_set(p);
  }

  Rng rng(123);
  for (int step = 0; step < 600; ++step) {
    std::array<word_t, 6> aa{to_word(free_a[0].word()),
                             to_word(price_a[0].word())};
    std::array<word_t, 6> ab{to_word(free_b[0].word()),
                             to_word(price_b[0].word())};
    for (int q = 0; q < 4; ++q) {
      const word_t id = rng.below(kRecords);
      aa[2 + q] = id;
      ab[2 + q] = id;
    }
    const word_t ra = atomically(
        [&](auto& tx) { return execute(tx, raw, aa.data(), aa.size()); });
    const word_t rb = atomically(
        [&](auto& tx) { return execute(tx, opt, ab.data(), ab.size()); });
    ASSERT_EQ(ra, rb) << step;
  }
  for (std::size_t i = 0; i < kRecords; ++i) {
    ASSERT_EQ(free_a[i].unsafe_get(), free_b[i].unsafe_get()) << i;
  }
}

TEST_P(KernelEquivalence, CenterUpdateKernelMatches) {
  auto algo = make_algorithm(GetParam());
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);

  // The hoisted-loads record shape, raw and through
  // tm_rbe -> tm_mark -> tm_optimize.
  Function raw = build_center_update_kernel(8);
  Function opt = build_center_update_kernel(8);

  const RbeStats rbe = pass_tm_rbe(opt);
  EXPECT_EQ(rbe.store_load_forwarded, 1u);  // the trailing length re-read
  const MarkStats ms = pass_tm_mark(opt);
  // All 8 feature adds recover: each crosses only proven-disjoint cells.
  // The length store stays a plain store — it is the forwarding witness.
  EXPECT_EQ(ms.sw, 8u);
  EXPECT_EQ(ms.recovered_noalias, 8u);
  EXPECT_EQ(ms.skipped_clobbered, 0u);
  const OptimizeStats os = pass_tm_optimize(opt);
  EXPECT_EQ(os.removed_tm_loads, 8u);  // the 8 feature-cell origin loads
  EXPECT_EQ(opt.count(Op::kTmLoad).live, 1u);  // only the length load runs
  EXPECT_TRUE(pass_tm_lint(opt).empty());

  TArray<std::int64_t> rec_a(9, 0), rec_b(9, 0);
  Rng rng(7);
  for (int step = 0; step < 200; ++step) {
    std::array<word_t, 9> aa{to_word(rec_a[0].word())};
    std::array<word_t, 9> ab{to_word(rec_b[0].word())};
    for (int j = 0; j < 8; ++j) {
      const word_t fv = rng.below(100);
      aa[1 + j] = fv;
      ab[1 + j] = fv;
    }
    const word_t ra = atomically(
        [&](auto& tx) { return execute(tx, raw, aa.data(), aa.size()); });
    const word_t rb = atomically(
        [&](auto& tx) { return execute(tx, opt, ab.data(), ab.size()); });
    ASSERT_EQ(ra, rb) << step;  // returned new length
  }
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_EQ(rec_a[j].unsafe_get(), rec_b[j].unsafe_get()) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, KernelEquivalence,
                         ::testing::Values("cgl", "norec", "snorec", "tl2",
                                           "stl2"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace semstm::tmir
