// Figures 1i/1j: Vacation execution time and abort rate (fixed total work).
#include "bench/figure_common.hpp"
#include "workloads/vacation.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  bench::FigureSpec spec;
  spec.name = "Figure 1i/1j: Vacation (RSTM path)";
  spec.metric = "time";
  spec.threads = {1, 2, 4, 6, 8, 10, 12};
  spec.ops_per_thread = 6000;  // total client sessions
  spec.fixed_total_work = true;
  bench::apply_cli(spec, cli);
  cli.reject_unread();
  bench::run_figure(spec, [](bool semantic) {
    return std::make_unique<VacationWorkload>(VacationWorkload::Params{},
                                              semantic);
  });
  return 0;
}
