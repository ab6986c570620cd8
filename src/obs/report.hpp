// Human-readable rendering of contention cartography: the hotspot table
// and per-window sparkline behind `examples/tm_top.cpp`, and the in-process
// hot-site summary `examples/quickstart.cpp` prints.
//
// Two entry points:
//   - render_hot_sites(): format an in-memory ranking (from
//     obs::top_sites()) — no I/O, usable from any program holding a
//     ConflictMap.
//   - render_metrics_report(): read a --metrics-out JSON-lines file (the
//     MetricsWriter schema) and render every run it contains: a header,
//     per-window sparklines of throughput and abort rate, and the ranked
//     hotspot table. The parser is a deliberately minimal field scanner
//     over our own known-flat schema (one object per line, no nesting
//     beyond the `causes` map) — not a general JSON parser, and kept that
//     way so the repo takes no parsing dependency.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/conflict_map.hpp"

namespace semstm::obs {

/// Ranked hotspot table, one row per site (rank, address, orec, total
/// aborts, edge count, dominant cause, cause mix). `overflow` > 0 appends
/// a completeness warning. Empty input renders an explicit "none
/// recorded" line naming the two reasons a run records no site, so an
/// unobserved or conflict-free caller still prints something truthful.
std::string render_hot_sites(const std::vector<ConflictMap::Site>& sites,
                             std::uint64_t overflow = 0);

/// ASCII sparkline (one char per value, 8-level ramp, scaled to the max
/// value in `values`). Empty input yields an empty string.
std::string sparkline(const std::vector<double>& values);

/// Exit-status contract shared with scripts/ci_obs_smoke.sh.
enum : int {
  kReportOk = 0,        ///< parsed and rendered at least one run
  kReportInvalid = 1,   ///< file readable but schema-invalid / no run line
  kReportIoError = 2,   ///< could not open/read the file
};

/// Render every run in a MetricsWriter JSON-lines file into `out`.
/// Shows at most `top_k` hot sites per run. Returns kReport* status;
/// `out` carries a diagnostic on failure.
int render_metrics_report(const std::string& path, std::size_t top_k,
                          std::string& out);

}  // namespace semstm::obs
