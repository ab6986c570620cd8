// Figures 1g/1h: Kmeans execution time and abort rate (fixed total work).
#include "bench/figure_common.hpp"
#include "workloads/kmeans.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  bench::FigureSpec spec;
  spec.name = "Figure 1g/1h: Kmeans (RSTM path)";
  spec.metric = "time";
  spec.threads = {1, 2, 4, 6, 8, 10, 12};
  spec.ops_per_thread = 12000;  // total points, divided across threads
  spec.fixed_total_work = true;
  bench::apply_cli(spec, cli);
  cli.reject_unread();
  bench::run_figure(spec, [](bool semantic) {
    return std::make_unique<KmeansWorkload>(KmeansWorkload::Params{},
                                            semantic);
  });
  return 0;
}
