// Backward liveness over temps *and* local slots.
//
// Fact space: bit t in [0, num_temps) = "temp t is live", bit
// num_temps + s = "local slot s is live" (its current value may still be
// loaded). Locals matter because tmir locals are mutable slots, not SSA
// temps: a kStoreLocal is dead only if no path from it reaches a
// kLoadLocal of the same slot before the next store — exactly the
// question liveness answers and counting syntactic uses cannot.
//
// Nothing is live out of a kRet (locals are function-private), so the
// boundary condition is the empty set at every exit block.
#pragma once

#include "tmir/analysis/cfg.hpp"
#include "tmir/analysis/dataflow.hpp"

namespace semstm::tmir {

struct Liveness {
  std::size_t num_temps = 0;
  /// Boundary sets per block over the temps+locals fact space.
  DataflowResult sets;

  bool temp_live_in(std::size_t block, std::size_t t) const noexcept {
    return sets.in[block].test(t);
  }
  bool temp_live_out(std::size_t block, std::size_t t) const noexcept {
    return sets.out[block].test(t);
  }
  bool local_live_out(std::size_t block, std::size_t slot) const noexcept {
    return sets.out[block].test(num_temps + slot);
  }
};

namespace detail {

/// Apply one instruction's liveness transfer to `live`, in reverse
/// program order: kill the definition, then gen the uses.
inline void step_backward(const Instr& i, std::size_t num_temps,
                          BitSet& live) {
  if (produces_value(i.op) && i.dst >= 0) {
    live.clear(static_cast<std::size_t>(i.dst));
  }
  if (i.op == Op::kStoreLocal) {
    live.clear(num_temps + static_cast<std::size_t>(i.imm));
  }
  for_each_use(i, [&](std::int32_t t) {
    if (t >= 0) live.set(static_cast<std::size_t>(t));
  });
  if (i.op == Op::kLoadLocal) {
    live.set(num_temps + static_cast<std::size_t>(i.imm));
  }
}

}  // namespace detail

/// Block-granular liveness via the worklist solver. Consumers needing
/// per-instruction liveness start from `sets.out[b]` and apply
/// detail::step_backward over the block's live code in reverse.
inline Liveness compute_liveness(const Function& f, const Cfg& cfg) {
  const std::size_t nbits = f.num_temps + f.num_locals;
  const std::size_t nb = f.blocks.size();
  std::vector<BitSet> gen(nb, BitSet(nbits));   // upward-exposed uses
  std::vector<BitSet> kill(nb, BitSet(nbits));  // definitions
  for (std::size_t b = 0; b < nb; ++b) {
    // Walking backward and applying the per-instruction transfer to an
    // empty "out" set yields exactly gen; tracking kills alongside keeps
    // the two consistent by construction.
    BitSet g(nbits), k(nbits);
    const Block& blk = f.blocks[b];
    for (auto it = blk.code.rbegin(); it != blk.code.rend(); ++it) {
      if (it->dead) continue;
      if (produces_value(it->op) && it->dst >= 0) {
        const auto d = static_cast<std::size_t>(it->dst);
        g.clear(d);
        k.set(d);
      }
      if (it->op == Op::kStoreLocal) {
        const std::size_t d = f.num_temps + static_cast<std::size_t>(it->imm);
        g.clear(d);
        k.set(d);
      }
      for_each_use(*it, [&](std::int32_t t) {
        if (t >= 0) g.set(static_cast<std::size_t>(t));
      });
      if (it->op == Op::kLoadLocal) {
        g.set(f.num_temps + static_cast<std::size_t>(it->imm));
      }
    }
    gen[b] = g;
    kill[b] = k;
  }

  Liveness lv;
  lv.num_temps = f.num_temps;
  lv.sets = solve(cfg, Direction::kBackward, gen, kill, nbits);
  return lv;
}

}  // namespace semstm::tmir
