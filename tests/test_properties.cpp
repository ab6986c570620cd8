// Property-based tests.
//
// 1. Sequential specification (paper §5): random programs of read / write
//    / cmp / cmp2 / cmp_or / inc operations executed transactionally must
//    agree, operation by operation, with a plain reference interpreter —
//    "every read returns v + sum of deltas since the latest write; every
//    cmp returns the relation over that value".
// 2. Concurrent conservation: randomly composed balanced-transfer
//    transactions preserve a global sum under every algorithm and
//    simulated contention.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "semstm.hpp"
#include "util/rng.hpp"
#include "workloads/mono.hpp"

namespace semstm {
namespace {

constexpr Rel kRels[] = {Rel::EQ,  Rel::NEQ, Rel::SLT, Rel::SLE,
                         Rel::SGT, Rel::SGE};

using SeqParam = std::tuple<std::string, int>;  // (algorithm, seed)

class SequentialSpec : public ::testing::TestWithParam<SeqParam> {};

TEST_P(SequentialSpec, RandomProgramMatchesReference) {
  const auto& [algo_name, seed] = GetParam();
  auto algo = make_algorithm(algo_name);
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);

  constexpr std::size_t kVars = 6;
  std::vector<std::unique_ptr<TVar<std::int64_t>>> vars;
  std::int64_t ref[kVars];
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 17);
  for (std::size_t i = 0; i < kVars; ++i) {
    const std::int64_t init = rng.between(-50, 50);
    vars.push_back(std::make_unique<TVar<std::int64_t>>(init));
    ref[i] = init;
  }

  // A few transactions of random operations each; the reference model is
  // updated only when the transaction commits (it always does here — one
  // thread — but user aborts via exceptions are also exercised).
  for (int txn = 0; txn < 60; ++txn) {
    std::int64_t shadow[kVars];
    for (std::size_t i = 0; i < kVars; ++i) shadow[i] = ref[i];
    const bool user_abort = rng.percent(10);
    struct UserAbort {};
    try {
      atomically([&](auto& tx) {
        const unsigned ops = 1 + static_cast<unsigned>(rng.below(12));
        for (unsigned o = 0; o < ops; ++o) {
          const auto v = static_cast<std::size_t>(rng.below(kVars));
          const auto w = static_cast<std::size_t>(rng.below(kVars));
          const std::int64_t operand = rng.between(-60, 60);
          const Rel rel = kRels[rng.below(std::size(kRels))];
          switch (rng.below(6)) {
            case 0:
              ASSERT_EQ(vars[v]->get(tx), shadow[v]) << "read mismatch";
              break;
            case 1:
              vars[v]->set(tx, operand);
              shadow[v] = operand;
              break;
            case 2:
              ASSERT_EQ(tx.cmp(vars[v]->word(), rel, to_word(operand)),
                        eval(rel, to_word(shadow[v]), to_word(operand)))
                  << "cmp mismatch";
              break;
            case 3:
              ASSERT_EQ(tx.cmp2(vars[v]->word(), rel, vars[w]->word()),
                        eval(rel, to_word(shadow[v]), to_word(shadow[w])))
                  << "cmp2 mismatch";
              break;
            case 4: {
              const CmpTerm terms[2] = {
                  term<std::int64_t>(*vars[v], rel, operand),
                  term<std::int64_t>(*vars[w], Rel::SGT, operand / 2),
              };
              const bool expect =
                  eval(rel, to_word(shadow[v]), to_word(operand)) ||
                  eval(Rel::SGT, to_word(shadow[w]), to_word(operand / 2));
              ASSERT_EQ(tx.cmp_or(terms, 2), expect) << "cmp_or mismatch";
              break;
            }
            default:
              vars[v]->add(tx, operand);
              shadow[v] += operand;
              break;
          }
        }
        if (user_abort) throw UserAbort{};
      });
      for (std::size_t i = 0; i < kVars; ++i) ref[i] = shadow[i];
    } catch (const UserAbort&) {
      // Rolled back: reference state unchanged.
    }
    for (std::size_t i = 0; i < kVars; ++i) {
      ASSERT_EQ(vars[i]->unsafe_get(), ref[i]) << "post-tx state, var " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsBySeed, SequentialSpec,
    ::testing::Combine(::testing::Values("cgl", "norec", "snorec", "tl2",
                                         "stl2"),
                       ::testing::Range(0, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------

using ConsParam = std::tuple<std::string, int>;

class ConcurrentConservation : public ::testing::TestWithParam<ConsParam> {};

constexpr std::size_t kVars = 8;
constexpr std::int64_t kInit = 500;

class TransferWorkload final : public MonoWorkload<TransferWorkload> {
 public:
  TransferWorkload() {
      for (auto& v : vars) v = std::make_unique<TVar<std::int64_t>>(kInit);
    }
    template <typename TxT>
    void op_t(unsigned, Rng& rng) {
      const auto a = static_cast<std::size_t>(rng.below(kVars));
      const auto b = static_cast<std::size_t>(rng.below(kVars));
      if (a == b) return;
      const std::int64_t d = rng.between(1, 20);
      const unsigned style = static_cast<unsigned>(rng.below(3));
      atomically<TxT>([&](TxT& tx) {
        switch (style) {
          case 0:  // semantic guarded transfer
            if (vars[a]->gte(tx, d)) {
              vars[a]->sub(tx, d);
              vars[b]->add(tx, d);
            }
            break;
          case 1:  // plain read/write transfer
            if (vars[a]->get(tx) >= d) {
              vars[a]->set(tx, vars[a]->get(tx) - d);
              vars[b]->set(tx, vars[b]->get(tx) + d);
            }
            break;
          default: {  // clause-guarded: move only if either side is rich
            const CmpTerm terms[2] = {
                term<std::int64_t>(*vars[a], Rel::SGT, kInit / 2),
                term<std::int64_t>(*vars[b], Rel::SGT, kInit / 2),
            };
            if (tx.cmp_or(terms, 2) && vars[a]->gte(tx, d)) {
              vars[a]->sub(tx, d);
              vars[b]->add(tx, d);
            }
            break;
          }
        }
      });
    }
    void verify() override {
      std::int64_t total = 0;
      for (const auto& v : vars) {
        ASSERT_GE(v->unsafe_get(), 0);
        total += v->unsafe_get();
      }
      ASSERT_EQ(total, static_cast<std::int64_t>(kVars) * kInit);
    }
  std::unique_ptr<TVar<std::int64_t>> vars[kVars];
};

TEST_P(ConcurrentConservation, BalancedTransfersPreserveTotal) {
  const auto& [algo_name, seed] = GetParam();
  TransferWorkload w;
  RunConfig cfg;
  cfg.algo = algo_name;
  cfg.mode = ExecMode::kSim;
  cfg.threads = 6;
  cfg.ops_per_thread = 250;
  cfg.seed = static_cast<std::uint64_t>(seed) * 104729 + 31;
  run_workload(cfg, w);
  w.verify();
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsBySeed, ConcurrentConservation,
    ::testing::Combine(::testing::Values("cgl", "norec", "snorec", "tl2",
                                         "stl2"),
                       ::testing::Range(0, 6)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace semstm
