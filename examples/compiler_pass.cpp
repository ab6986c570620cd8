// The compiler path, end to end (paper §6): build the hashtable probe as
// plain IR (what GCC's gimplifier emits), run tm_mark + tm_optimize, show
// what the passes found and removed, then execute both pipelines
// transactionally and verify they agree.
//
//   $ ./compiler_pass
#include <cstdio>

#include "containers/tarray.hpp"
#include "semstm.hpp"
#include "tmir/interp.hpp"
#include "tmir/kernels.hpp"
#include "tmir/passes.hpp"

int main() {
  using namespace semstm;
  using namespace semstm::tmir;

  Function raw = build_probe_kernel();
  Function marked = build_probe_kernel();

  std::printf("== tm_mark: semantic pattern detection ==\n");
  const MarkStats ms = pass_tm_mark(marked);
  std::printf("  _ITM_S1R (address-value compares) : %zu\n", ms.s1r);
  std::printf("  _ITM_S2R (address-address compares): %zu\n", ms.s2r);
  std::printf("  _ITM_SW  (increments)              : %zu\n", ms.sw);

  std::printf("== tm_optimize: never-live TM read elimination ==\n");
  const OptimizeStats os = pass_tm_optimize(marked);
  std::printf("  removed TM loads: %zu, removed other dead defs: %zu\n",
              os.removed_tm_loads, os.removed_other);
  std::printf("  TM loads: %zu (before) -> %zu (after)\n",
              raw.count(Op::kTmLoad).live, marked.count(Op::kTmLoad).live);
  std::printf("  semantic builtins now in the IR: %zu\n",
              marked.count(Op::kTmCmp1).live + marked.count(Op::kTmCmp2).live);

  // Execute both pipelines against identical tables and compare.
  auto algo = make_algorithm("snorec");
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);

  constexpr std::size_t kCap = 32;
  TArray<std::int64_t> states(kCap, 0), keys(kCap, 0);
  // Place keys 300 and 900 at their home slots (key % capacity).
  for (const std::int64_t key : {300, 900}) {
    const auto slot = static_cast<std::size_t>(key) % kCap;
    states[slot].unsafe_set(1);
    keys[slot].unsafe_set(key);
  }

  std::printf("== executing both pipelines transactionally ==\n");
  bool all_match = true;
  for (const word_t key : {300u, 900u, 555u}) {
    const word_t args[6] = {to_word(states[0].word()), to_word(keys[0].word()),
                            kCap - 1, key % kCap, key, kCap};
    const word_t a =
        atomically([&](auto& tx) { return execute(tx, raw, args, 6); });
    const word_t b =
        atomically([&](auto& tx) { return execute(tx, marked, args, 6); });
    std::printf("  probe(key=%llu): plain=%llu semantic=%llu %s\n",
                static_cast<unsigned long long>(key),
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b),
                a == b ? "OK" : "MISMATCH");
    all_match = all_match && a == b;
  }
  const TxStats& s = ctx.tx->stats;
  std::printf("stats: reads=%llu compares=%llu (the semantic pipeline "
              "replaced reads with compares)\n",
              static_cast<unsigned long long>(s.reads),
              static_cast<unsigned long long>(s.compares));
  return all_match ? 0 : 1;
}
