// Ablation studies for the design choices DESIGN.md calls out:
//
//  A. Clause-level vs per-operator semantic validation: the hashtable
//     probe's continuation condition validated as one cmp_or clause
//     (paper §3's composed conditional) vs. as two independent cmps.
//     This isolates WHY the composed form is what saves the aborts. A
//     last row adds the stable compare (an extension beyond Table 1):
//     the clause probe with its FREE check left unrecorded once it holds.
//     Validate entries per commit show the validation work each row pays.
//  B. Orec table sizing for TL2/S-TL2: the stripe map gives words a
//     table size apart one orec, so fewer orecs -> more false conflicts.
//  C. Semantic RB-tree descent: the paper leaves tree internals
//     untransformed (its GCC pass cannot see through STAMP's comparator
//     functions); what would transforming them buy?
//  D. Simulator quantum sensitivity: results must be stable as the
//     scheduling slack varies, or the simulator (not the algorithm) would
//     be generating the trends.
#include <cstdio>
#include <memory>

#include "containers/trbtree.hpp"
#include "core/atomically.hpp"
#include "semstm.hpp"
#include "util/cli.hpp"
#include "workloads/driver.hpp"
#include "workloads/hashtable_wl.hpp"
#include "workloads/mono.hpp"

namespace {

using namespace semstm;


void ablation_clause(std::uint64_t ops) {
  std::printf("## A. probe validation granularity (identical workload)\n");
  std::printf("#    hashtable workload, snorec, 16 simulated threads\n");
  std::printf("mode,throughput,abort%%,validate_entries/commit\n");
  struct Case {
    const char* label;
    TOpenHashTable::ProbeMode mode;
  };
  const Case cases[] = {
      {"base(reads)", TOpenHashTable::ProbeMode::kBase},
      {"per-operator", TOpenHashTable::ProbeMode::kPerOperator},
      {"clause(cmp_or)", TOpenHashTable::ProbeMode::kClause},
      {"clause+stable", TOpenHashTable::ProbeMode::kStable},
  };
  for (const Case& c : cases) {
    HashtableWorkload w(HashtableWorkload::Params{}, c.mode);
    RunConfig cfg;
    cfg.algo = "snorec";
    cfg.threads = 16;
    cfg.ops_per_thread = ops;
    cfg.sim_quantum = 24;
    const RunResult r = run_workload(cfg, w);
    std::printf("%s,%.1f,%.2f,%.1f\n", c.label, r.throughput, r.abort_pct,
                static_cast<double>(r.stats.validate_entries) /
                    static_cast<double>(r.stats.commits));
  }
  std::printf("\n");
}

// -- B: orec table sizing -----------------------------------------------------

void ablation_orecs(std::uint64_t ops) {
  std::printf("## B. orec table size (TL2 family): false conflicts from "
              "stripe aliasing\n");
  std::printf("log2_orecs,tl2_abort%%,stl2_abort%%\n");
  for (const unsigned log2 : {6u, 10u, 14u, 18u}) {
    double aborts[2];
    int k = 0;
    for (const char* algo : {"tl2", "stl2"}) {
      HashtableWorkload w(HashtableWorkload::Params{},
                          /*semantic=*/std::string(algo) == "stl2");
      RunConfig cfg;
      cfg.algo = algo;
      cfg.threads = 8;
      cfg.ops_per_thread = ops;
      cfg.algo_opts.orec_log2 = log2;
      cfg.sim_quantum = 24;
      aborts[k++] = run_workload(cfg, w).abort_pct;
    }
    std::printf("%u,%.2f,%.2f\n", log2, aborts[0], aborts[1]);
  }
  std::printf("\n");
}

// -- C: semantic tree descent --------------------------------------------------

/// 20% inserts, 80% lookups on a pre-populated red-black tree.
class TreeWorkload final : public MonoWorkload<TreeWorkload> {
 public:
  explicit TreeWorkload(bool semantic_descent)
      : tree_(1 << 16, semantic_descent) {}

  void setup(Rng& rng) override {
    auto algo = make_algorithm("cgl");
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    for (int i = 0; i < 2000; ++i) {
      const auto k = static_cast<std::int64_t>(rng.below(1 << 14));
      atomically([&](auto& tx) { (void)tree_.insert(tx, k, k); });
    }
  }

  template <typename TxT>
  void op_t(unsigned, Rng& rng) {
    const auto k = static_cast<std::int64_t>(rng.below(1 << 14));
    if (rng.percent(20)) {
      atomically<TxT>([&](TxT& tx) { (void)tree_.insert(tx, k, k); });
    } else {
      atomically<TxT>([&](TxT& tx) { (void)tree_.find(tx, k); });
    }
  }

 private:
  TRbMap tree_;
};

void ablation_tree(std::uint64_t ops) {
  std::printf("## C. semantic RB-tree descent (extension beyond the paper)\n");
  for (const bool semantic_descent : {false, true}) {
    TreeWorkload w(semantic_descent);
    RunConfig cfg;
    cfg.algo = "snorec";
    cfg.threads = 8;
    cfg.ops_per_thread = ops;
    cfg.sim_quantum = 24;
    const RunResult r = run_workload(cfg, w);
    std::printf("%s: throughput=%.1f abort%%=%.2f\n",
                semantic_descent ? "semantic descent " : "plain-read descent",
                r.throughput, r.abort_pct);
  }
  std::printf("\n");
}

// -- D: simulator quantum sensitivity -----------------------------------------

void ablation_quantum(std::uint64_t ops) {
  std::printf("## D. simulator quantum sensitivity (result stability)\n");
  std::printf("quantum,snorec_abort%%,norec_abort%%\n");
  for (const std::uint64_t q : {0ull, 8ull, 24ull, 64ull}) {
    double aborts[2];
    int k = 0;
    for (const char* algo : {"snorec", "norec"}) {
      HashtableWorkload w(HashtableWorkload::Params{},
                          std::string(algo) == "snorec");
      RunConfig cfg;
      cfg.algo = algo;
      cfg.threads = 8;
      cfg.ops_per_thread = ops;
      cfg.sim_quantum = q;
      aborts[k++] = run_workload(cfg, w).abort_pct;
    }
    std::printf("%llu,%.2f,%.2f\n", static_cast<unsigned long long>(q),
                aborts[0], aborts[1]);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  // --ops N overrides every study's own default op count.
  const bool ops_set = cli.has("ops");
  const auto ops = cli.get_uint<std::uint64_t>("ops", 0);
  cli.reject_unread();
  const auto ops_or = [&](std::uint64_t dflt) { return ops_set ? ops : dflt; };

  std::printf("# semstm ablation studies\n\n");
  ablation_clause(ops_or(250));
  ablation_orecs(ops_or(250));
  ablation_tree(ops_or(400));
  ablation_quantum(ops_or(250));
  return 0;
}
