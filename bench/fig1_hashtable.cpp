// Figures 1a/1b: Hashtable (open addressing) throughput and abort rate.
// Runs the paper's Algorithm 2 probe: plain reads for the base algorithms,
// the composed-clause probe (every compare recorded) for the semantic ones.
// The stable-compare probe is an extension; ablation study A reports it.
#include "bench/figure_common.hpp"
#include "workloads/hashtable_wl.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  bench::FigureSpec spec;
  spec.name = "Figure 1a/1b: Hashtable with Open Addressing (RSTM path)";
  spec.metric = "throughput";
  spec.threads = {1, 2, 4, 8, 12, 16, 20, 24};
  spec.ops_per_thread = 400;
  bench::apply_cli(spec, cli);
  cli.reject_unread();
  bench::run_figure(spec, [](bool semantic) {
    return std::make_unique<HashtableWorkload>(
        HashtableWorkload::Params{}, semantic
                                         ? TOpenHashTable::ProbeMode::kClause
                                         : TOpenHashTable::ProbeMode::kBase);
  });
  return 0;
}
