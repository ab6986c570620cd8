// Figures 1c/1d: Bank throughput and abort rate.
//
// --hot-accounts N / --hot-pct P add Zipfian-style skew (P% of account
// picks land in the first N accounts) — the contention-cartography
// testbed: with skew on and --metrics-out set, the tm_top hot-site
// ranking should be dominated by the hot accounts' words.
#include "bench/figure_common.hpp"
#include "workloads/bank.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  bench::FigureSpec spec;
  spec.name = "Figure 1c/1d: Bank (RSTM path)";
  spec.metric = "throughput";
  spec.threads = {1, 2, 4, 8, 12, 16, 20, 24};
  spec.ops_per_thread = 600;
  bench::apply_cli(spec, cli);
  BankWorkload::Params params;
  params.hot_accounts = cli.get_uint<std::size_t>("hot-accounts", 0);
  params.hot_pct = cli.get_uint<unsigned>("hot-pct", 0);
  cli.reject_unread();
  if (params.hot_accounts > params.accounts || params.hot_pct > 100) {
    std::fprintf(stderr,
                 "error: --hot-accounts must be <= %zu and --hot-pct <= 100\n",
                 params.accounts);
    return 2;
  }
  bench::run_figure(spec, [&](bool semantic) {
    return std::make_unique<BankWorkload>(params, semantic);
  });
  return 0;
}
