// The tmir interpreter: executes a function as the body of a transaction,
// lowering IR statements to the (extended) TM ABI of abi.hpp — the role
// GCC-generated code plays at run time.
//
// `instrument_locals` reproduces GCC's conservatism: inside a
// _transaction_atomic block GCC speculates *every* read and write,
// including provably-private ones, "while RSTM speculates only addresses
// accessed using its transactional API" (paper §7.2). With the flag set,
// local-slot accesses also go through TM barriers, which is what makes
// the GCC curves of Figure 2 sit below the RSTM curves of Figure 1.
//
// execute() is templated on the concrete descriptor core (DESIGN.md §4.12):
// the interpreter loop monomorphizes, and each barrier is one direct call
// into the core (tmir/abi.hpp).
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/tx.hpp"
#include "sched/yieldpoint.hpp"
#include "tmir/abi.hpp"
#include "tmir/ir.hpp"

namespace semstm::tmir {

/// Diagnose-and-die for out-of-range ids in the IR being executed.
/// Malformed IR reaching the interpreter is a pass/builder bug that
/// previously surfaced as out-of-bounds vector indexing (UB in release
/// builds, where the assert-free operator[] just reads garbage); fail
/// loudly in every build instead, matching the die_no_ctx convention.
/// pass_verify catches all of these ahead of time — run it.
[[noreturn]] inline void die_malformed(const char* fname, const char* what,
                                       long long id, long long limit) noexcept {
  std::fprintf(stderr,
               "semstm tmir: malformed IR in %s: %s %lld out of range [0,%lld)"
               " — run pass_verify on this function\n",
               fname, what, id, limit);
  std::abort();
}

/// Executed-TM-barrier counters, accumulated across every execute() call
/// that shares the struct (aborted attempts included — an aborted
/// transaction still paid for its barriers). The quantitative side of the
/// paper's instrumentation-shrinking story: micro_ops exports these per
/// kernel so barrier-count regressions gate CI, not just nanoseconds.
struct BarrierCounts {
  std::uint64_t tm_loads = 0;      ///< kTmLoad barriers executed
  std::uint64_t tm_stores = 0;     ///< kTmStore barriers executed
  std::uint64_t tm_cmps = 0;       ///< kTmCmp1 + kTmCmp2 semantic reads
  std::uint64_t tm_incs = 0;       ///< kTmInc semantic writes
  std::uint64_t local_loads = 0;   ///< instrumented kLoadLocal (GCC mode)
  std::uint64_t local_stores = 0;  ///< instrumented kStoreLocal (GCC mode)
  std::uint64_t total() const noexcept {
    return tm_loads + tm_stores + tm_cmps + tm_incs + local_loads +
           local_stores;
  }
};

struct InterpOptions {
  bool instrument_locals = false;
  /// When set, every executed TM barrier is tallied here.
  BarrierCounts* barriers = nullptr;
  /// Shadow storage for instrumented locals, provided by the caller and at
  /// least `Function::num_locals` words long. REQUIRED when
  /// instrument_locals is set: the transaction's write-set keeps pointers
  /// into it until commit, so it must outlive the whole atomically() call
  /// (declare it outside the transaction body). execute() re-initializes
  /// the slots on entry, so retries after aborts are self-cleaning.
  tword* local_shadow = nullptr;
  std::size_t max_steps = 1u << 22;  ///< runaway-loop guard
};

/// Execute `f` under transaction `tx`. Returns the kRet operand (0 if the
/// function returns nothing). Throws std::runtime_error on malformed IR.
template <typename TxT>
word_t execute(TxT& tx, const Function& f, const word_t* args,
               std::size_t nargs, const InterpOptions& opts = {}) {
  if (nargs != f.num_args) {
    throw std::runtime_error("tmir: argument count mismatch for " + f.name);
  }
  std::vector<word_t> temps(f.num_temps, 0);
  // Plain local slots (library mode) and TM-instrumented shadows (GCC
  // mode). The shadows are private to this activation, but routing them
  // through the barriers charges the instrumentation cost GCC pays. They
  // are caller-owned: the write-set points into them until commit.
  std::vector<word_t> locals(f.num_locals, 0);
  tword* local_shadow = opts.local_shadow;
  if (opts.instrument_locals && f.num_locals > 0) {
    if (local_shadow == nullptr) {
      throw std::runtime_error(
          "tmir: instrument_locals requires a caller-provided local_shadow "
          "that outlives the transaction");
    }
    for (std::uint32_t i = 0; i < f.num_locals; ++i) {
      local_shadow[i].store(0, std::memory_order_relaxed);
    }
  }

  std::size_t steps = 0;
  std::size_t block = 0;
  for (;;) {
    if (block >= f.blocks.size()) {
      throw std::runtime_error("tmir: branch out of range in " + f.name);
    }
    const Block& b = f.blocks[block];
    bool jumped = false;
    for (const Instr& i : b.code) {
      if (i.dead) continue;
      if (++steps > opts.max_steps) {
        throw std::runtime_error("tmir: step limit exceeded in " + f.name);
      }
      sched::tick(sched::Cost::kWork);  // interpretation overhead
      // Forced inline: in a translation unit with many transaction bodies
      // GCC's growth limits otherwise leave these operand accessors as
      // calls on every instruction (about 1.4x slower tmir kernels).
      auto t = [&](std::int32_t id) __attribute__((always_inline)) -> word_t& {
        if (id < 0 || static_cast<std::uint32_t>(id) >= f.num_temps) {
          die_malformed(f.name.c_str(), "temp", id, f.num_temps);
        }
        return temps[static_cast<std::size_t>(id)];
      };
      auto slot = [&](word_t s) __attribute__((always_inline)) -> std::size_t {
        if (s >= f.num_locals) {
          die_malformed(f.name.c_str(), "local slot",
                        static_cast<long long>(s), f.num_locals);
        }
        return static_cast<std::size_t>(s);
      };
      switch (i.op) {
        case Op::kConst:
          t(i.dst) = i.imm;
          break;
        case Op::kArg:
          if (i.imm >= nargs) {
            die_malformed(f.name.c_str(), "arg index",
                          static_cast<long long>(i.imm),
                          static_cast<long long>(nargs));
          }
          t(i.dst) = args[i.imm];
          break;
        case Op::kLoadLocal:
          if (opts.instrument_locals) {
            if (opts.barriers != nullptr) ++opts.barriers->local_loads;
            t(i.dst) = abi::itm_read(tx, &local_shadow[slot(i.imm)]);
          } else {
            t(i.dst) = locals[slot(i.imm)];
          }
          break;
        case Op::kStoreLocal:
          if (opts.instrument_locals) {
            if (opts.barriers != nullptr) ++opts.barriers->local_stores;
            abi::itm_write(tx, &local_shadow[slot(i.imm)], t(i.a));
          } else {
            locals[slot(i.imm)] = t(i.a);
          }
          break;
        case Op::kAdd:
          t(i.dst) = t(i.a) + t(i.b);
          break;
        case Op::kSub:
          t(i.dst) = t(i.a) - t(i.b);
          break;
        case Op::kMul:
          t(i.dst) = t(i.a) * t(i.b);
          break;
        case Op::kAnd:
          t(i.dst) = t(i.a) & t(i.b);
          break;
        case Op::kCmp:
          t(i.dst) = eval(i.rel, t(i.a), t(i.b)) ? 1 : 0;
          break;
        case Op::kTmLoad:
          if (opts.barriers != nullptr) ++opts.barriers->tm_loads;
          t(i.dst) = abi::itm_read(tx, reinterpret_cast<const tword*>(t(i.a)));
          break;
        case Op::kTmStore:
          if (opts.barriers != nullptr) ++opts.barriers->tm_stores;
          abi::itm_write(tx, reinterpret_cast<tword*>(t(i.a)), t(i.b));
          break;
        case Op::kTmCmp1:
          if (opts.barriers != nullptr) ++opts.barriers->tm_cmps;
          t(i.dst) = abi::itm_s1r(tx, reinterpret_cast<const tword*>(t(i.a)),
                                  i.rel, t(i.b))
                         ? 1
                         : 0;
          break;
        case Op::kTmCmp2:
          if (opts.barriers != nullptr) ++opts.barriers->tm_cmps;
          t(i.dst) = abi::itm_s2r(tx, reinterpret_cast<const tword*>(t(i.a)),
                                  i.rel,
                                  reinterpret_cast<const tword*>(t(i.b)))
                         ? 1
                         : 0;
          break;
        case Op::kTmInc: {
          if (opts.barriers != nullptr) ++opts.barriers->tm_incs;
          const word_t delta = i.imm == 1 ? word_t{0} - t(i.b) : t(i.b);
          abi::itm_sw(tx, reinterpret_cast<tword*>(t(i.a)), delta);
          break;
        }
        case Op::kBr:
          block = static_cast<std::size_t>(i.imm);
          jumped = true;
          break;
        case Op::kCbr:
          block = t(i.a) != 0 ? static_cast<std::size_t>(i.imm)
                              : static_cast<std::size_t>(i.b);
          jumped = true;
          break;
        case Op::kRet:
          return i.a >= 0 ? t(i.a) : 0;
      }
      if (jumped) break;
    }
    if (!jumped) {
      throw std::runtime_error("tmir: block fell through in " + f.name);
    }
  }
}

}  // namespace semstm::tmir
