// Table 3 reproduction: average number of operations per transaction
// (Read / Write / Compare / Increment / Promote) for every benchmark, in
// base and semantic builds. The paper measured these with RSTM; we run
// each workload single-threaded under NOrec (base) / S-NOrec (semantic) —
// operation counts are algorithm-independent modulo promotions.
#include <cstdio>

#include "semstm.hpp"
#include "util/cli.hpp"
#include "workloads/driver.hpp"
#include "workloads/registry.hpp"

namespace {

struct Row {
  double reads, writes, compares, increments, promotes;
};

Row measure(const std::string& wl, bool semantic, std::uint64_t ops) {
  using namespace semstm;
  auto w = make_workload(wl, semantic);
  RunConfig cfg;
  cfg.algo = semantic ? "snorec" : "norec";
  cfg.mode = ExecMode::kSim;
  cfg.threads = 1;  // profile without contention, like the paper's table
  cfg.ops_per_thread = ops;
  cfg.seed = 42;
  const RunResult r = run_workload(cfg, *w);
  const auto txs = static_cast<double>(r.stats.commits);
  return Row{
      static_cast<double>(r.stats.reads) / txs,
      static_cast<double>(r.stats.writes) / txs,
      static_cast<double>(r.stats.compares + r.stats.compares2) / txs,
      static_cast<double>(r.stats.increments) / txs,
      static_cast<double>(r.stats.promotions) / txs,
  };
}

}  // namespace

int main(int argc, char** argv) {
  semstm::Cli cli(argc, argv);
  const auto ops = cli.get_uint<std::uint64_t>("ops", 400);
  cli.reject_unread();

  std::printf("# Table 3: Average Number of Operations per Transaction\n");
  std::printf("# (columns: base | semantic, per workload)\n\n");
  std::printf("%-11s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n", "workload",
              "read_b", "write_b", "read_s", "write_s", "cmp_s", "inc_s",
              "promo_s", "cmp_b", "inc_b", "promo_b");

  for (const auto& wl : semstm::workload_names()) {
    const std::uint64_t n =
        (wl == "labyrinth" || wl == "labyrinth2") ? ops / 10 + 1 : ops;
    const Row base = measure(wl, false, n);
    const Row sem = measure(wl, true, n);
    std::printf(
        "%-11s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f\n",
        wl.c_str(), base.reads, base.writes, sem.reads, sem.writes,
        sem.compares, sem.increments, sem.promotes, base.compares,
        base.increments, base.promotes);
  }
  std::printf(
      "\n# Paper shape check: hashtable/lru reads ~all become compares;\n"
      "# kmeans becomes pure increments; vacation keeps most reads and\n"
      "# promotes its increments; genome/intruder stay non-semantic.\n");
  return 0;
}
