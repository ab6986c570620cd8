// The single point of type erasure (DESIGN.md §4.12): dispatch_algorithm()
// maps every algorithm name to its core, the untemplated atomically() runs
// a generic body on the bound algorithm's core, atomically<Core>() refuses
// a context bound to another algorithm, and sim-mode runs through
// MonoWorkload replay bit-identically.
//
// The shared state is owned by the fixture and reset (not reallocated)
// between runs: TL2-family read-set counters depend on which words share
// an orec, a function of their addresses, so the comparison is only
// meaningful when both runs see the same addresses.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "containers/tarray.hpp"
#include "core/atomically.hpp"
#include "core/dispatch.hpp"
#include "workloads/mono.hpp"

namespace semstm {
namespace {

constexpr std::size_t kCells = 64;
constexpr std::int64_t kInitial = 100;

/// Exercises every primitive of the extended API — read, write, cmp,
/// cmp2, cmp_or, inc (with RAW promotion via the re-read after add) —
/// against caller-owned cells, so repeated runs see identical addresses.
class ParityWorkload final : public MonoWorkload<ParityWorkload> {
 public:
  explicit ParityWorkload(TArray<std::int64_t>& cells) : cells_(cells) {}

  template <typename TxT>
  void op_t(unsigned, Rng& rng) {
    const auto a = static_cast<std::size_t>(rng.below(kCells));
    const auto b = static_cast<std::size_t>(rng.below(kCells));
    const auto kind = static_cast<unsigned>(rng.below(5));
    atomically<TxT>([&](TxT& tx) {
      switch (kind) {
        case 0:  // guarded transfer: cmp + inc/dec
          if (cells_[a].gte(tx, 1)) {
            cells_[a].sub(tx, 1);
            cells_[b].add(tx, 1);
          }
          break;
        case 1:  // address–address compare steering a write
          if (cells_[a].lt(tx, cells_[b])) {
            cells_[a].set(tx, cells_[a].get(tx) + 1);
          }
          break;
        case 2: {  // composed conditional (one cmp_or clause)
          const CmpTerm pass[2] = {
              term<std::int64_t>(cells_[a], Rel::SGT, kInitial),
              term<std::int64_t>(cells_[b], Rel::SLT, kInitial),
          };
          if (tx.cmp_or(pass, 2)) cells_[a].set(tx, kInitial);
          break;
        }
        case 3:  // increment then re-read: the RAW promotion path
          cells_[a].add(tx, 2);
          if (cells_[a].get(tx) > 2 * kInitial) cells_[a].sub(tx, 2);
          break;
        default:  // plain read/write traffic
          cells_[b].set(tx, cells_[a].get(tx));
          break;
      }
    });
  }

 private:
  TArray<std::int64_t>& cells_;
};

class DispatchParity : public ::testing::TestWithParam<const char*> {
 protected:
  void reset_cells() {
    for (std::size_t i = 0; i < kCells; ++i) {
      cells_[i].unsafe_set(kInitial);
    }
  }

  RunResult run() {
    reset_cells();
    ParityWorkload wl(cells_);
    RunConfig cfg;
    cfg.algo = GetParam();
    cfg.threads = 3;
    cfg.mode = ExecMode::kSim;
    cfg.ops_per_thread = 400;
    cfg.seed = 0xD15BA7C4;
    return run_workload(cfg, wl);
  }

  TArray<std::int64_t> cells_{kCells, kInitial};
};

TEST_P(DispatchParity, SimRunsAreBitIdenticalAcrossRepeats) {
  // Replay determinism of the scalable commit infrastructure (§4.16): the
  // GV4 clock, the announce-slot gate, and the SpinWait escalation must
  // leave the 1-carrier sim's yield-point sequence untouched, so the same
  // config over the same addresses reproduces every counter and the
  // makespan exactly. (Another allocation pattern may legitimately move
  // TL2 counts — which words share an orec depends on their address
  // differences — which is precisely why this comparison runs within one
  // process over fixture-owned cells.)
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_GT(a.stats.commits, 0u);
  EXPECT_EQ(a.stats.starts, b.stats.starts);
  EXPECT_EQ(a.stats.commits, b.stats.commits);
  EXPECT_EQ(a.stats.aborts, b.stats.aborts);
  EXPECT_EQ(a.stats.validations, b.stats.validations);
  EXPECT_EQ(a.stats.readset_adds, b.stats.readset_adds);
  EXPECT_EQ(a.stats.readset_dups, b.stats.readset_dups);
  EXPECT_EQ(a.stats.validate_entries, b.stats.validate_entries);
  for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
    EXPECT_EQ(a.stats.abort_causes[c], b.stats.abort_causes[c])
        << "abort cause index " << c;
  }
  EXPECT_EQ(a.makespan, b.makespan);

  // In the 1-carrier sim the GV4 clock CAS can never lose (no yield point
  // between its load and CAS), so TL2-family commits must never adopt —
  // the exact property that keeps sim results identical to the historical
  // fetch_add clock.
  EXPECT_EQ(a.stats.clock_adoptions, 0u);
  EXPECT_EQ(b.stats.clock_adoptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DispatchParity,
                         ::testing::Values("cgl", "norec", "snorec", "tl2",
                                           "stl2"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// -- dispatch_algorithm plumbing ---------------------------------------------

TEST(DispatchAlgorithm, TagMatchesAlgoIdForEveryName) {
  for (const std::string& name : algorithm_names()) {
    const AlgoId expected = algo_id(name);
    const AlgoId got = dispatch_algorithm(
        name, [](auto tag) { return decltype(tag)::id; });
    EXPECT_EQ(got, expected) << name;
  }
}

TEST(DispatchAlgorithm, TagCoreNameMatchesAlgorithmName) {
  for (const std::string& name : algorithm_names()) {
    const char* core_name = dispatch_algorithm(
        name, [](auto tag) { return decltype(tag)::tx_type::kName; });
    EXPECT_STREQ(core_name, name.c_str());
  }
}

TEST(DispatchAlgorithm, GenericAtomicallyRunsOnTheBoundAlgorithmsCore) {
  for (const std::string& name : algorithm_names()) {
    auto algo = make_algorithm(name);
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    const AlgoId ran = atomically(
        [](auto& tx) { return std::remove_cvref_t<decltype(tx)>::kId; });
    EXPECT_EQ(ran, algo_id(name)) << name;
    EXPECT_EQ(ctx.tx->stats.commits, 1u) << name;
  }
}

TEST(DispatchAlgorithm, UnknownNameThrows) {
  EXPECT_THROW((void)algo_id("tinystm"), std::invalid_argument);
  EXPECT_THROW((void)make_algorithm("tinystm"), std::invalid_argument);
}

// -- make_algorithm option validation ----------------------------------------

TEST(MakeAlgorithmOptions, RejectsOrecLog2OutOfRangeNamingTheValue) {
  AlgoOptions opts;
  opts.orec_log2 = 0;
  try {
    (void)make_algorithm("tl2", opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("orec_log2 = 0"), std::string::npos)
        << e.what();
  }
  opts.orec_log2 = 40;
  try {
    (void)make_algorithm("norec", opts);  // validated for every algorithm
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("orec_log2 = 40"), std::string::npos)
        << e.what();
  }
}

TEST(MakeAlgorithmOptions, AcceptsBoundaryValues) {
  AlgoOptions opts;
  opts.orec_log2 = AlgoOptions::kOrecLog2Min;
  EXPECT_NE(make_algorithm("tl2", opts), nullptr);
  opts.orec_log2 = 20;  // large but sane; max would allocate gigabytes
  EXPECT_NE(make_algorithm("stl2", opts), nullptr);
}

// -- loud misuse failures (release builds included) ---------------------------

TEST(CurrentTxDeath, AtomicallyFailsLoudlyWithNoBoundContext) {
  EXPECT_DEATH(atomically([](auto&) {}), "no transaction context bound");
}

TEST(CurrentTxDeath, AtomicallyOnAnotherAlgorithmsCoreDies) {
  auto algo = make_algorithm("norec");
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);
  EXPECT_DEATH(atomically<Tl2Core>([](Tl2Core&) {}),
               "atomically<tl2>\\(\\) called on a thread bound to a norec "
               "descriptor");
}

}  // namespace
}  // namespace semstm
