// Figures 1o/1p: Yada execution time and abort rate (fixed total work).
#include "bench/figure_common.hpp"
#include "workloads/yada.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  bench::FigureSpec spec;
  spec.name = "Figure 1o/1p: Yada (RSTM path)";
  spec.metric = "time";
  spec.threads = {1, 2, 4, 6, 8, 10, 12};
  spec.ops_per_thread = 6000;  // total refinement attempts
  spec.fixed_total_work = true;
  bench::apply_cli(spec, cli);
  cli.reject_unread();
  bench::run_figure(spec, [](bool semantic) {
    return std::make_unique<YadaWorkload>(YadaWorkload::Params{}, semantic);
  });
  return 0;
}
