// Property tests for the tmir analysis pipeline.
//
// 1. Random-IR generation: a seeded generator produces straight-line and
//    diamond CFGs over TM loads/stores, locals and arithmetic. For every
//    seed, pass_verify must accept what the Builder produced; both
//    pipelines — tm_mark -> tm_optimize (what fig2_gcc runs) and
//    tm_rbe -> tm_mark -> tm_optimize — must stay verifier- and lint-clean
//    after every stage and account for every dead TM load; and — the
//    soundness property — each optimized function must compute the same
//    result and leave the same memory as the original on the same inputs.
//
// 2. Deterministic-scheduler oracle: every built-in kernel, pre- vs
//    post-pass, run under the virtual scheduler across all five
//    algorithms, must produce bit-identical per-op results, final memory
//    and per-fiber commit counts (each fiber owns disjoint tables, sliced
//    from one array so that no two fibers' words share an orec, so the
//    two pipelines face identical conflict structure: none).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "containers/tarray.hpp"
#include "runtime/orec.hpp"
#include "sched/virtual_scheduler.hpp"
#include "semstm.hpp"
#include "tmir/analysis/lint.hpp"
#include "tmir/analysis/verify.hpp"
#include "tmir/builder.hpp"
#include "tmir/interp.hpp"
#include "tmir/kernels.hpp"
#include "tmir/passes.hpp"
#include "util/rng.hpp"

namespace semstm::tmir {
namespace {

// ---------------------------------------------------------------------------
// Random-IR generator
// ---------------------------------------------------------------------------

constexpr std::size_t kCells = 16;

/// Temps a block may legally use: `pool` holds value temps defined in a
/// dominating position, `addrs` the subset known to be TM cell addresses —
/// reusing one re-creates the same-base access patterns (reloads, repeated
/// stores, read-modify-write chains) that alias analysis and the
/// redundant-barrier eliminator feed on.
struct Scope {
  std::vector<std::int32_t> pool;
  std::vector<std::int32_t> addrs;
};

/// Emits random code into the current block.
class RandomCode {
 public:
  RandomCode(Builder& b, Rng& rng, std::int32_t base)
      : b_(b), rng_(rng), base_(base) {}

  std::int32_t pick(const std::vector<std::int32_t>& pool) {
    return pool[static_cast<std::size_t>(rng_.below(pool.size()))];
  }

  std::int32_t addr_of_random_cell() {
    const word_t cell = rng_.below(kCells);
    return b_.add(base_, b_.konst(cell * 8));
  }

  /// A fresh or remembered cell address; remembered ones create the
  /// same-temp / must-alias pairs the eliminations need.
  std::int32_t some_addr(Scope& s) {
    if (!s.addrs.empty() && rng_.below(2) == 0) return pick(s.addrs);
    const std::int32_t a = addr_of_random_cell();
    s.addrs.push_back(a);
    return a;
  }

  /// Mostly-pure operand: what tm_mark accepts as a compare value or an
  /// increment delta. Falls back to an arbitrary pool temp sometimes so
  /// the not-markable path is exercised too.
  std::int32_t pure_or_any(const std::vector<std::int32_t>& pool) {
    return rng_.below(2) == 0 ? b_.konst(rng_.below(64)) : pick(pool);
  }

  void emit_op(Scope& s) {
    switch (rng_.below(12)) {
      case 0:
        s.pool.push_back(b_.konst(rng_.below(1000)));
        break;
      case 1:
        s.pool.push_back(b_.add(pick(s.pool), pick(s.pool)));
        break;
      case 2:
        s.pool.push_back(b_.sub(pick(s.pool), pick(s.pool)));
        break;
      case 3:
        s.pool.push_back(b_.band(pick(s.pool), pick(s.pool)));
        break;
      case 4:
        s.pool.push_back(b_.tm_load(some_addr(s)));
        break;
      case 5:
        b_.tm_store(some_addr(s), pick(s.pool));
        break;
      case 6:
        b_.store_local(static_cast<std::uint32_t>(rng_.below(2)),
                       pick(s.pool));
        break;
      case 7:
        s.pool.push_back(
            b_.load_local(static_cast<std::uint32_t>(rng_.below(2))));
        break;
      case 8: {
        // The paper's increment shape — sometimes left markable, sometimes
        // clobbered or impure so tm_mark's refusal paths run too.
        const std::int32_t addr = some_addr(s);
        const std::int32_t v = b_.tm_load(addr);
        const std::int32_t delta = pure_or_any(s.pool);
        const std::int32_t x =
            rng_.below(2) == 0 ? b_.add(v, delta) : b_.sub(v, delta);
        b_.tm_store(addr, x);
        if (rng_.below(4) == 0) s.pool.push_back(v);  // keep the read live
        break;
      }
      case 9:
        // Deliberate same-base reload: a load through an address temp
        // that earlier code already dereferenced — load-load and
        // store-to-load forwarding fodder.
        s.pool.push_back(b_.tm_load(
            s.addrs.empty() ? addr_of_random_cell() : pick(s.addrs)));
        break;
      case 10: {
        // Offset-disjoint store pair: two cells at distinct constant
        // offsets from the same base. Proven no-alias when the offsets
        // differ; an honest clobber when the generator rolls them equal.
        b_.tm_store(addr_of_random_cell(), pure_or_any(s.pool));
        b_.tm_store(addr_of_random_cell(), pure_or_any(s.pool));
        break;
      }
      case 11: {
        // Unknown-base access: the offset is a masked arbitrary temp, so
        // the address derivation is opaque to the analysis and must
        // clobber everything (while staying inside the table: `band 120`
        // keeps the offset an 8-aligned value below kCells * 8).
        const std::int32_t addr =
            b_.add(base_, b_.band(pick(s.pool), b_.konst(120)));
        s.addrs.push_back(addr);
        if (rng_.below(2) == 0) {
          s.pool.push_back(b_.tm_load(addr));
        } else {
          b_.tm_store(addr, pure_or_any(s.pool));
        }
        break;
      }
    }
  }

  void emit_block(Scope& s, unsigned len) {
    for (unsigned i = 0; i < len; ++i) emit_op(s);
  }

  /// A branch condition in the S1R family (sometimes markable).
  std::int32_t condition(Scope& s) {
    static constexpr Rel kRels[] = {Rel::EQ,  Rel::NEQ, Rel::SLT,
                                    Rel::SGT, Rel::ULT, Rel::UGE};
    const Rel rel = kRels[rng_.below(6)];
    if (rng_.below(2) == 0) {
      return b_.cmp(rel, b_.tm_load(some_addr(s)), pure_or_any(s.pool));
    }
    return b_.cmp(rel, pick(s.pool), pick(s.pool));
  }

 private:
  Builder& b_;
  Rng& rng_;
  std::int32_t base_;
};

Function generate(std::uint64_t seed) {
  Rng rng(seed);
  // args: [0] = cell base address, [1..3] = opaque input values.
  Builder b("rand" + std::to_string(seed), 4, 2);
  const std::int32_t base = b.arg(0);
  RandomCode gen(b, rng, base);

  Scope scope;
  scope.pool = {b.arg(1), b.arg(2), b.arg(3), b.konst(rng.below(100))};
  gen.emit_block(scope, 3 + static_cast<unsigned>(rng.below(8)));

  if (rng.below(2) == 0) {
    // Straight line.
    b.ret(gen.pick(scope.pool));
    return b.take();
  }

  // Diamond: entry -> {then, else} -> join. Branch blocks may only use
  // entry-defined temps; their own temps must not leak to the join.
  const std::int32_t cond = gen.condition(scope);
  const std::uint32_t then_b = b.new_block();
  const std::uint32_t else_b = b.new_block();
  const std::uint32_t join = b.new_block();
  b.cbr(cond, then_b, else_b);
  for (const std::uint32_t blk : {then_b, else_b}) {
    b.set_block(blk);
    Scope local = scope;
    gen.emit_block(local, 1 + static_cast<unsigned>(rng.below(5)));
    b.br(join);
  }
  b.set_block(join);
  gen.emit_block(scope, static_cast<unsigned>(rng.below(3)));
  b.ret(gen.pick(scope.pool));
  return b.take();
}

// ---------------------------------------------------------------------------
// Property: verify accepts, pipeline stays clean, optimize is sound
// ---------------------------------------------------------------------------

class RandomIr : public ::testing::Test {
 protected:
  void SetUp() override {
    algo_ = make_algorithm("snorec");
    ctx_ = std::make_unique<ThreadCtx>(algo_->make_tx());
    binder_ = std::make_unique<CtxBinder>(*ctx_);
  }
  word_t run(const Function& f, const std::array<word_t, 4>& args) {
    return atomically(
        [&](auto& tx) { return execute(tx, f, args.data(), args.size()); });
  }
  std::unique_ptr<Algorithm> algo_;
  std::unique_ptr<ThreadCtx> ctx_;
  std::unique_ptr<CtxBinder> binder_;
};

/// Success when `f` is verifier- and lint-clean, else its first diagnostic.
::testing::AssertionResult clean(const Function& f) {
  std::vector<Diagnostic> diags = pass_verify(f);
  if (diags.empty()) diags = pass_tm_lint(f);
  if (diags.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << format_diagnostic(f, diags[0]);
}

TEST_F(RandomIr, FiveHundredSeedsVerifyLintAndStayEquivalent) {
  std::size_t marked_something = 0;
  std::size_t rbe_total = 0;
  std::size_t recovered_total = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const Function raw = generate(seed);
    ASSERT_TRUE(pass_verify(raw).empty())
        << format_diagnostic(raw, pass_verify(raw)[0]);

    // The two-pass pipeline fig2_gcc ships: tm_mark, then tm_optimize.
    Function two = raw;
    pass_tm_mark(two);
    ASSERT_TRUE(clean(two)) << "seed " << seed << " two-pass mark";
    const OptimizeStats os_two = pass_tm_optimize(two);
    ASSERT_TRUE(clean(two)) << "seed " << seed << " two-pass opt";
    ASSERT_EQ(os_two.removed_tm_loads, two.count(Op::kTmLoad).dead)
        << "seed " << seed;

    // Barrier elimination in front of the same two passes.
    Function opt = raw;
    const RbeStats rbe = pass_tm_rbe(opt);
    rbe_total += rbe.total();
    ASSERT_TRUE(clean(opt)) << "seed " << seed << " post-rbe";
    const MarkStats ms = pass_tm_mark(opt);
    marked_something += (ms.s1r + ms.s2r + ms.sw) != 0 ? 1 : 0;
    recovered_total += ms.recovered_noalias;
    ASSERT_TRUE(clean(opt)) << "seed " << seed << " post-mark";
    const OptimizeStats os = pass_tm_optimize(opt);
    ASSERT_TRUE(clean(opt)) << "seed " << seed << " post-opt";
    // Every dead TM load is accounted for by exactly one killer: a
    // forwarding (RBE) or the liveness sweep.
    ASSERT_EQ(os.removed_tm_loads + rbe.load_load_forwarded +
                  rbe.store_load_forwarded,
              opt.count(Op::kTmLoad).dead)
        << "seed " << seed;

    // Soundness: same inputs, same initial memory -> same result, same
    // final memory, for both pipelines against the raw function. This is
    // what "never removes a read whose result is read" and "never drops a
    // store whose value is observed" mean observably.
    Rng init(seed ^ 0x9E3779B97F4A7C15ULL);
    TArray<std::int64_t> mem_a(kCells, 0), mem_b(kCells, 0), mem_c(kCells, 0);
    for (std::size_t c = 0; c < kCells; ++c) {
      const auto v = static_cast<std::int64_t>(init.below(1 << 20));
      mem_a[c].unsafe_set(v);
      mem_b[c].unsafe_set(v);
      mem_c[c].unsafe_set(v);
    }
    const std::array<word_t, 4> args_a{to_word(mem_a[0].word()), init.below(50),
                                       init.below(50), init.below(50)};
    std::array<word_t, 4> args_b = args_a;
    std::array<word_t, 4> args_c = args_a;
    args_b[0] = to_word(mem_b[0].word());
    args_c[0] = to_word(mem_c[0].word());
    const word_t want = run(raw, args_a);
    ASSERT_EQ(want, run(two, args_b)) << "seed " << seed;
    ASSERT_EQ(want, run(opt, args_c)) << "seed " << seed;
    for (std::size_t c = 0; c < kCells; ++c) {
      ASSERT_EQ(mem_a[c].unsafe_get(), mem_b[c].unsafe_get())
          << "seed " << seed << " cell " << c << " (two-pass)";
      ASSERT_EQ(mem_a[c].unsafe_get(), mem_c[c].unsafe_get())
          << "seed " << seed << " cell " << c << " (rbe)";
    }
  }
  // The generator must actually exercise the rewrites, not just survive:
  // rewrites fire, eliminations fire, and alias analysis lets rewrites
  // cross provably disjoint TM writes.
  EXPECT_GT(marked_something, 50u);
  EXPECT_GT(rbe_total, 0u);
  EXPECT_GT(recovered_total, 0u);
}

// ---------------------------------------------------------------------------
// Deterministic-scheduler differential oracle
// ---------------------------------------------------------------------------

struct PipelineRun {
  std::vector<std::vector<word_t>> results;   // per fiber, per op
  std::vector<std::int64_t> memory;           // all tables, flattened
  std::vector<std::uint64_t> commits;         // per fiber
  std::vector<std::uint64_t> aborts;          // per fiber
};

constexpr unsigned kFibers = 2;
constexpr std::size_t kCap = 32;     // hash-table capacity (power of 2)
constexpr std::size_t kRecords = 8;  // reserve() tables
constexpr unsigned kFeatures = 8;

/// One fiber's kernel state: five tables, each a slice of KernelMemory.
struct FiberTables {
  // `record` is the center-update record: [len, center[0..kFeatures)].
  std::span<TVar<std::int64_t>> states, keys, numfree, price, record;

  void reset(unsigned fiber) {
    Rng setup(900 + fiber);
    for (std::size_t i = 0; i < kCap; ++i) {
      states[i].unsafe_set(0);
      keys[i].unsafe_set(0);
    }
    for (std::size_t i = 0; i < kRecords; ++i) {
      numfree[i].unsafe_set(3);
      price[i].unsafe_set(static_cast<std::int64_t>(setup.between(10, 500)));
    }
    for (unsigned j = 0; j <= kFeatures; ++j) record[j].unsafe_set(0);
  }
};

/// Every fiber's tables, sliced from one array of consecutive words. The
/// stripe map gives consecutive words distinct orecs while the array is
/// shorter than the orec table, so no two fibers' words share an orec by
/// construction: a false conflict would abort in one interleaving and not
/// in another, and the raw and optimized runs would no longer face the
/// same (absent) conflict structure. Both pipelines run over this one
/// instance, reset between runs rather than reallocated.
struct KernelMemory {
  static constexpr std::size_t kFiberWords =
      2 * kCap + 2 * kRecords + kFeatures + 1;
  TArray<std::int64_t> words{kFibers * kFiberWords, 0};
  std::vector<FiberTables> fibers;

  KernelMemory() {
    std::size_t at = 0;
    const auto take = [&](std::size_t n) {
      std::span<TVar<std::int64_t>> slice(&words[at], n);
      at += n;
      return slice;
    };
    for (unsigned f = 0; f < kFibers; ++f) {
      fibers.push_back(FiberTables{take(kCap), take(kCap), take(kRecords),
                                   take(kRecords), take(kFeatures + 1)});
    }
  }
};

/// Orec slots of every fiber's words, as the algorithms' default table
/// maps them (a slot index is a function of the word's address alone).
std::vector<std::size_t> orec_slots(const KernelMemory& mem) {
  OrecTable orecs(AlgoOptions{}.orec_log2);
  std::vector<std::size_t> slots;
  for (const FiberTables& tb : mem.fibers) {
    for (const auto& table : {tb.states, tb.keys, tb.numfree, tb.price,
                              tb.record}) {
      for (const TVar<std::int64_t>& v : table) {
        slots.push_back(orecs.index(&orecs.of(v.word())));
      }
    }
  }
  return slots;
}

/// Run a scripted kernel workload on the virtual scheduler, with a fresh
/// algorithm instance over `tables` (one per fiber, reset first). Each
/// fiber owns disjoint tables on disjoint orecs (KernelMemory), so raw
/// and optimized pipelines see the same (absent) conflict structure even
/// though the optimized one issues fewer barriers and therefore
/// interleaves differently.
PipelineRun run_kernels(const std::string& algo_name, bool optimized,
                        std::vector<FiberTables>& tables) {
  Function probe = build_probe_kernel();
  Function insert = build_insert_kernel();
  Function remove = build_remove_kernel();
  Function reserve = build_reserve_kernel(4);
  Function center = build_center_update_kernel(kFeatures);
  if (optimized) {
    for (Function* f : {&probe, &insert, &remove, &reserve, &center}) {
      pass_tm_rbe(*f);
      pass_tm_mark(*f);
      pass_tm_optimize(*f);
    }
  }

  auto algo = make_algorithm(algo_name);
  std::vector<std::unique_ptr<ThreadCtx>> ctxs;
  for (unsigned t = 0; t < kFibers; ++t) {
    tables[t].reset(t);
    ctxs.push_back(std::make_unique<ThreadCtx>(algo->make_tx()));
  }

  PipelineRun out;
  out.results.resize(kFibers);

  sched::VirtualScheduler sim(sched::SimOptions{.seed = 42});
  sim.run(kFibers, [&](unsigned tid) {
    CtxBinder bind(*ctxs[tid]);
    FiberTables& tb = tables[tid];
    Rng rng(1000 + tid);
    for (int step = 0; step < 80; ++step) {
      const Function* f = nullptr;
      std::array<word_t, 10> args{};
      std::size_t nargs = 0;
      switch (rng.below(5)) {
        case 0:
        case 1:
        case 2: {
          f = rng.below(3) == 0   ? &probe
              : rng.below(2) == 0 ? &insert
                                  : &remove;
          const word_t key = 1 + rng.below(24);
          args = {to_word(tb.states[0].word()), to_word(tb.keys[0].word()),
                  kCap - 1, key % kCap, key, kCap};
          nargs = 6;
          break;
        }
        case 3: {
          f = &reserve;
          args[0] = to_word(tb.numfree[0].word());
          args[1] = to_word(tb.price[0].word());
          for (int q = 0; q < 4; ++q) args[2 + q] = rng.below(kRecords);
          nargs = 6;
          break;
        }
        case 4: {
          f = &center;
          args[0] = to_word(tb.record[0].word());
          for (unsigned j = 0; j < kFeatures; ++j) {
            args[1 + j] = rng.below(100);
          }
          nargs = 1 + kFeatures;
          break;
        }
      }
      out.results[tid].push_back(atomically(
          [&](auto& tx) { return execute(tx, *f, args.data(), nargs); }));
    }
  });

  for (unsigned t = 0; t < kFibers; ++t) {
    const FiberTables& tb = tables[t];
    for (std::size_t i = 0; i < kCap; ++i) {
      out.memory.push_back(tb.states[i].unsafe_get());
      out.memory.push_back(tb.keys[i].unsafe_get());
    }
    for (std::size_t i = 0; i < kRecords; ++i) {
      out.memory.push_back(tb.numfree[i].unsafe_get());
      out.memory.push_back(tb.price[i].unsafe_get());
    }
    for (unsigned j = 0; j <= kFeatures; ++j) {
      out.memory.push_back(tb.record[j].unsafe_get());
    }
    out.commits.push_back(ctxs[t]->tx->stats.commits);
    out.aborts.push_back(ctxs[t]->tx->stats.aborts);
  }
  return out;
}

class SchedulerOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerOracle, OptimizedKernelsAreBitIdenticalUnderTheScheduler) {
  KernelMemory mem;
  std::vector<std::size_t> slots = orec_slots(mem);
  ASSERT_EQ(slots.size(), kFibers * KernelMemory::kFiberWords);
  std::sort(slots.begin(), slots.end());
  ASSERT_EQ(std::adjacent_find(slots.begin(), slots.end()), slots.end())
      << "two words of the kernel tables share an orec";
  const PipelineRun raw =
      run_kernels(GetParam(), /*optimized=*/false, mem.fibers);
  const PipelineRun opt =
      run_kernels(GetParam(), /*optimized=*/true, mem.fibers);
  ASSERT_EQ(raw.results.size(), opt.results.size());
  for (std::size_t t = 0; t < raw.results.size(); ++t) {
    ASSERT_EQ(raw.results[t], opt.results[t]) << "fiber " << t;
  }
  EXPECT_EQ(raw.memory, opt.memory);
  EXPECT_EQ(raw.commits, opt.commits);
  EXPECT_EQ(raw.aborts, opt.aborts);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SchedulerOracle,
                         ::testing::Values("cgl", "norec", "snorec", "tl2",
                                           "stl2"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace semstm::tmir
