// Figures 1k/1l (Labyrinth 1: grid copy inside the transaction) and
// 1m/1n (Labyrinth 2: the [Ruan et al. 2014] optimized variant).
#include "bench/figure_common.hpp"
#include "workloads/labyrinth.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  bench::FigureSpec spec;
  spec.metric = "time";
  spec.threads = {1, 2, 4, 6, 8, 10, 12};
  spec.ops_per_thread = 96;  // total routing requests
  spec.fixed_total_work = true;
  bench::apply_cli(spec, cli);
  cli.reject_unread();

  for (const bool optimized : {false, true}) {
    spec.name = optimized
                    ? "Figure 1m/1n: Labyrinth 2 (copy outside transaction)"
                    : "Figure 1k/1l: Labyrinth 1 (copy inside transaction)";
    bench::run_figure(spec, [optimized](bool semantic) {
      LabyrinthWorkload::Params p;
      p.variant = optimized ? LabyrinthWorkload::Variant::kCopyOutsideTx
                            : LabyrinthWorkload::Variant::kCopyInsideTx;
      return std::make_unique<LabyrinthWorkload>(p, semantic);
    });
  }
  return 0;
}
