// Figures 1e/1f: LRU-Cache throughput and abort rate.
#include "bench/figure_common.hpp"
#include "workloads/lru_wl.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  bench::FigureSpec spec;
  spec.name = "Figure 1e/1f: LRU Cache (RSTM path)";
  spec.metric = "throughput";
  spec.threads = {1, 2, 4, 8, 12, 16, 20, 24};
  spec.ops_per_thread = 600;
  bench::apply_cli(spec, cli);
  cli.reject_unread();
  bench::run_figure(spec, [](bool semantic) {
    return std::make_unique<LruWorkload>(LruWorkload::Params{}, semantic);
  });
  return 0;
}
