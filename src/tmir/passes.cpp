#include "tmir/passes.hpp"

#include <utility>
#include <vector>

#include "tmir/analysis/alias.hpp"
#include "tmir/analysis/cfg.hpp"
#include "tmir/analysis/liveness.hpp"
#include "tmir/analysis/verify.hpp"

namespace semstm::tmir {

namespace {

/// Mirror a relation across operand swap: (a REL b) == (b mirror(REL) a).
Rel mirror(Rel r) noexcept {
  switch (r) {
    case Rel::EQ:  return Rel::EQ;
    case Rel::NEQ: return Rel::NEQ;
    case Rel::SLT: return Rel::SGT;
    case Rel::SLE: return Rel::SGE;
    case Rel::SGT: return Rel::SLT;
    case Rel::SGE: return Rel::SLE;
    case Rel::ULT: return Rel::UGT;
    case Rel::ULE: return Rel::UGE;
    case Rel::UGT: return Rel::ULT;
    case Rel::UGE: return Rel::ULE;
  }
  return r;
}

/// Map temp -> its defining instruction (temps are single-assignment).
std::vector<Instr*> def_map(Function& f) {
  std::vector<Instr*> defs(f.num_temps, nullptr);
  for (Block& b : f.blocks) {
    for (Instr& i : b.code) {
      if (!i.dead && produces_value(i.op) && i.dst >= 0) {
        defs[static_cast<std::size_t>(i.dst)] = &i;
      }
    }
  }
  return defs;
}

bool is_literal_or_local(const Instr* def) noexcept {
  return def != nullptr && (def->op == Op::kConst || def->op == Op::kArg ||
                            def->op == Op::kLoadLocal);
}

bool defined_in_block(const Block& b, const Instr* def) noexcept {
  return def >= b.code.data() && def < b.code.data() + b.code.size();
}

}  // namespace

MarkStats pass_tm_mark(Function& f) {
  MarkStats stats;
  auto defs = def_map(f);
  const Cfg cfg(f);
  const AliasAnalysis aa(f, cfg);

  // Stores that pass_tm_rbe recorded as witnesses — a kRbeStoreLoad husk's
  // forwarded value, or the overwriter a kRbeDeadStore husk points at —
  // must stay plain stores: the lint re-proves those eliminations by
  // finding a kTmStore with exactly the recorded (address, value) operands,
  // and an inc rewrite would erase the value temp from the instruction.
  std::vector<std::pair<std::int32_t, std::int32_t>> witness_stores;
  for (const Block& b : f.blocks) {
    for (const Instr& i : b.code) {
      if (i.dead &&
          (i.elim == Elim::kRbeStoreLoad || i.elim == Elim::kRbeDeadStore)) {
        witness_stores.emplace_back(i.src_b, i.src_a);  // (address, value)
      }
    }
  }
  const auto is_witness_store = [&](const Instr& s) {
    for (const auto& [addr, value] : witness_stores) {
      if (s.a == addr && s.b == value) return true;
    }
    return false;
  };

  for (Block& b : f.blocks) {
    // Which temps feed a conditional branch in this block?
    std::vector<bool> feeds_cbr(f.num_temps, false);
    for (const Instr& i : b.code) {
      if (i.op == Op::kCbr && i.a >= 0) {
        feeds_cbr[static_cast<std::size_t>(i.a)] = true;
      }
    }

    for (Instr& i : b.code) {
      if (i.dead) continue;

      // -- cmp pattern: conditional over direct TM load origins ------------
      if (i.op == Op::kCmp && i.dst >= 0 &&
          feeds_cbr[static_cast<std::size_t>(i.dst)]) {
        Instr* da = i.a >= 0 ? defs[static_cast<std::size_t>(i.a)] : nullptr;
        Instr* db = i.b >= 0 ? defs[static_cast<std::size_t>(i.b)] : nullptr;
        const bool a_load = da != nullptr && da->op == Op::kTmLoad &&
                            defined_in_block(b, da);
        const bool b_load = db != nullptr && db->op == Op::kTmLoad &&
                            defined_in_block(b, db);
        // A possibly-aliasing TM write between an origin load and the
        // compare refuses the rewrite (the legality condition pass_tm_lint
        // re-proves); `recovered` notes that a provably disjoint one was
        // crossed.
        bool recovered = false;
        const bool a_clear =
            a_load && !aa.clobbers_between(da, &i, da->a, &recovered);
        const bool b_clear =
            b_load && !aa.clobbers_between(db, &i, db->a, &recovered);
        if ((a_load && !a_clear) || (b_load && !b_clear)) {
          ++stats.skipped_clobbered;
          continue;
        }
        if (a_clear && b_clear) {
          // _ITM_S2R: both origins are direct transactional accesses.
          i.op = Op::kTmCmp2;
          i.src_a = i.a;  // origin load temps, for the lint's re-proof
          i.src_b = i.b;
          i.a = da->a;    // address temps
          i.b = db->a;
          ++stats.s2r;
          stats.recovered_noalias += recovered ? 1 : 0;
        } else if (a_clear && is_literal_or_local(db)) {
          i.op = Op::kTmCmp1;
          i.src_a = i.a;
          i.a = da->a;
          ++stats.s1r;
          stats.recovered_noalias += recovered ? 1 : 0;
        } else if (b_clear && is_literal_or_local(da)) {
          // (value REL load) == (load mirror(REL) value).
          const std::int32_t value_temp = i.a;
          i.op = Op::kTmCmp1;
          i.rel = mirror(i.rel);
          i.src_a = i.b;
          i.a = db->a;       // address temp of the load
          i.b = value_temp;  // literal/local operand
          ++stats.s1r;
          stats.recovered_noalias += recovered ? 1 : 0;
        }
        continue;
      }

      // -- inc pattern: TM_STORE(addr, TM_LOAD(addr) +/- delta) ------------
      if (i.op == Op::kTmStore && i.b >= 0) {
        if (is_witness_store(i)) continue;  // pinned by an RBE provenance link
        Instr* dv = defs[static_cast<std::size_t>(i.b)];
        if (dv == nullptr || !defined_in_block(b, dv)) continue;
        if (dv->op != Op::kAdd && dv->op != Op::kSub) continue;
        Instr* dx = dv->a >= 0 ? defs[static_cast<std::size_t>(dv->a)] : nullptr;
        Instr* dy = dv->b >= 0 ? defs[static_cast<std::size_t>(dv->b)] : nullptr;

        // The load's address and the store's must refer to the same word:
        // same temp, or proven must-alias (RBE load merging can leave the
        // surviving load holding a different but equal-valued address temp).
        const auto same_addr = [&](const Instr* load) {
          return load->a == i.a || aa.must_alias(load->a, i.a);
        };
        // load on the left: store(addr, load(addr) +/- delta)
        if (dx != nullptr && dx->op == Op::kTmLoad && same_addr(dx) &&
            defined_in_block(b, dx) && is_literal_or_local(dy)) {
          bool recovered = false;
          if (aa.clobbers_between(dx, &i, i.a, &recovered)) {
            ++stats.skipped_clobbered;
            continue;
          }
          i.src_a = dv->a;  // origin load temp
          i.src_b = i.b;    // arithmetic temp
          i.op = Op::kTmInc;
          i.b = dv->b;                            // delta temp
          i.imm = dv->op == Op::kSub ? 1 : 0;     // 1 = negate delta
          ++stats.sw;
          stats.recovered_noalias += recovered ? 1 : 0;
          continue;
        }
        // load on the right (add only: c - load is not an increment)
        if (dv->op == Op::kAdd && dy != nullptr && dy->op == Op::kTmLoad &&
            same_addr(dy) && defined_in_block(b, dy) &&
            is_literal_or_local(dx)) {
          bool recovered = false;
          if (aa.clobbers_between(dy, &i, i.a, &recovered)) {
            ++stats.skipped_clobbered;
            continue;
          }
          i.src_a = dv->b;
          i.src_b = i.b;
          i.op = Op::kTmInc;
          i.b = dv->a;
          i.imm = 0;
          ++stats.sw;
          stats.recovered_noalias += recovered ? 1 : 0;
          continue;
        }
      }
    }
  }
  f.marked = true;
  debug_verify(f, "after pass_tm_mark");
  return stats;
}

RbeStats pass_tm_rbe(Function& f) {
  RbeStats stats;
  const Cfg cfg(f);
  const AliasAnalysis aa(f, cfg);

  // Rewrite every use of `from` — in live and dead instructions alike, so
  // husks stay verifier-consistent — to `to`. Provenance links are *not*
  // uses and stay untouched: they name recorded origins.
  const auto replace_uses = [&](std::int32_t from, std::int32_t to) {
    for (Block& blk : f.blocks) {
      for (Instr& i : blk.code) {
        for_each_use_ref(i, [&](std::int32_t& t) {
          if (t == from) t = to;
        });
      }
    }
  };

  for (Block& blk : f.blocks) {
    auto& code = blk.code;
    for (std::size_t idx = 0; idx < code.size(); ++idx) {
      Instr& i = code[idx];
      if (i.dead) continue;

      // -- forwarding: a load of a must-alias address reuses the earlier
      //    temp; scanning stops at the first possibly-aliasing write -----
      if (i.op == Op::kTmLoad) {
        for (std::size_t k = idx; k-- > 0;) {
          const Instr& p = code[k];
          if (p.dead) continue;
          if (p.op == Op::kTmStore) {
            const AliasResult r = aa.alias(p.a, i.a);
            if (r == AliasResult::kMustAlias) {
              replace_uses(i.dst, p.b);
              i.dead = true;
              i.elim = Elim::kRbeStoreLoad;
              i.src_a = p.b;  // the value the load would have observed
              i.src_b = p.a;  // the witness store's address temp
              ++stats.store_load_forwarded;
              break;
            }
            if (r == AliasResult::kMayAlias) break;
          } else if (p.op == Op::kTmInc) {
            // An increment both writes the word and holds its result in no
            // temp: any non-disjoint inc ends the scan.
            if (aa.alias(p.a, i.a) != AliasResult::kNoAlias) break;
          } else if (p.op == Op::kTmLoad) {
            if (aa.must_alias(p.a, i.a)) {
              replace_uses(i.dst, p.dst);
              i.dead = true;
              i.elim = Elim::kRbeLoadLoad;
              i.src_a = p.dst;
              ++stats.load_load_forwarded;
              break;
            }
            // Loads never clobber: keep scanning past may-alias loads.
          }
        }
        continue;
      }

      // -- dead stores: an earlier must-alias store whose value cannot be
      //    read before this store overwrites it ------------------------
      if (i.op == Op::kTmStore) {
        for (std::size_t k = idx; k-- > 0;) {
          Instr& p = code[k];
          if (p.dead || p.op != Op::kTmStore) continue;
          if (!aa.must_alias(p.a, i.a)) continue;
          bool read_between = false;
          for (std::size_t m = k + 1; m < idx && !read_between; ++m) {
            const Instr& q = code[m];
            if (q.dead) continue;
            switch (q.op) {
              case Op::kTmLoad:
              case Op::kTmCmp1:
              case Op::kTmInc:
                read_between = aa.alias(q.a, p.a) != AliasResult::kNoAlias;
                break;
              case Op::kTmCmp2:
                read_between = aa.alias(q.a, p.a) != AliasResult::kNoAlias ||
                               aa.alias(q.b, p.a) != AliasResult::kNoAlias;
                break;
              default:
                break;
            }
          }
          if (read_between) continue;
          p.dead = true;
          p.elim = Elim::kRbeDeadStore;
          p.src_a = i.b;  // the overwriting store's value temp ...
          p.src_b = i.a;  // ... and address temp, for the lint re-proof
          ++stats.dead_stores;
        }
        continue;
      }
    }
  }
  debug_verify(f, "after pass_tm_rbe");
  return stats;
}

OptimizeStats pass_tm_optimize(Function& f) {
  OptimizeStats stats;
  const Cfg cfg(f);

  auto kill = [&](Instr& i) {
    i.dead = true;
    i.elim = Elim::kDeadCode;
    if (i.op == Op::kTmLoad) {
      ++stats.removed_tm_loads;
    } else {
      ++stats.removed_other;
    }
  };

  // Unreachable blocks never execute; their code (terminators included)
  // is summarily dead and excluded from the liveness problem below.
  for (std::size_t b = 0; b < f.blocks.size(); ++b) {
    if (cfg.reachable(b)) continue;
    for (Instr& i : f.blocks[b].code) {
      if (!i.dead) kill(i);
    }
  }

  // Liveness-driven sweep, to fixpoint: removing an instruction erases
  // its uses, which can turn an upstream definition in another block
  // dead — block-summary liveness must then be recomputed. Within one
  // block a single backward walk already cascades (the running live set
  // never gains the uses of a killed instruction).
  bool changed = true;
  while (changed) {
    changed = false;
    const Liveness lv = compute_liveness(f, cfg);
    for (const std::uint32_t b : cfg.rpo()) {
      Block& blk = f.blocks[b];
      BitSet live = lv.sets.out[b];
      for (auto it = blk.code.rbegin(); it != blk.code.rend(); ++it) {
        Instr& i = *it;
        if (i.dead) continue;
        // is_pure excludes the kTmCmp builtins, honouring the contract
        // that tm_optimize never deletes programmer-visible semantics.
        const bool dead_def = is_pure(i.op) && i.dst >= 0 &&
                              !live.test(static_cast<std::size_t>(i.dst));
        const bool dead_store =
            i.op == Op::kStoreLocal &&
            !live.test(f.num_temps + static_cast<std::size_t>(i.imm));
        if (dead_def || dead_store) {
          kill(i);
          changed = true;
          continue;  // its uses never enter the live set
        }
        detail::step_backward(i, f.num_temps, live);
      }
    }
  }
  debug_verify(f, "after pass_tm_optimize");
  return stats;
}

}  // namespace semstm::tmir
