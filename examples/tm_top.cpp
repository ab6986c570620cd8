// tm_top: render a --metrics-out JSON-lines dump as a contention report.
//
//   $ ./tm_top --in metrics.jsonl [--top 10]
//
// For every run in the file it prints a header, ASCII sparklines of
// per-window throughput and abort rate (the burst/livelock phases run-end
// averages hide), peak-window callouts, and the ranked hot-site table
// (which addresses/orecs the run actually fought over).
//
// Exit status (relied on by scripts/ci_obs_smoke.sh):
//   0  parsed and rendered at least one run
//   1  file readable but schema-invalid (or empty of runs)
//   2  file could not be opened, or a bad command line
#include <cstdio>
#include <string>

#include "obs/report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  const std::string in = cli.get("in", "");
  const auto top_k = cli.get_uint<std::size_t>("top", 10);
  cli.reject_unread();
  if (in.empty()) {
    std::fprintf(stderr,
                 "usage: tm_top --in metrics.jsonl [--top N]\n"
                 "  (produce metrics.jsonl with a fig1 bench's "
                 "--metrics-out)\n");
    return obs::kReportIoError;
  }
  std::string report;
  const int status = obs::render_metrics_report(in, top_k, report);
  if (status == obs::kReportOk) {
    std::fputs(report.c_str(), stdout);
  } else {
    std::fputs(report.c_str(), stderr);
  }
  return status;
}
