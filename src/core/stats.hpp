// Per-transaction-descriptor operation counters.
//
// These are the statistics behind the paper's Table 3 (average number of
// read / write / compare / increment / promote operations per transaction)
// and the abort-rate series of Figures 1 and 2, plus the observability
// layer's abort-cause and latency breakdowns (src/obs).
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/abort_cause.hpp"
#include "obs/latency_histogram.hpp"

namespace semstm {

// Accounting contract (kept in sync with atomically()'s retry loop):
//
//   starts == commits + aborts + exceptions
//   aborts == sum(abort_causes)           (every TxAbort is thrown through
//                                          TxCoreBase::abort_tx(cause,
//                                          addr); an untagged throw — only
//                                          possible from test doubles
//                                          driving cores directly — lands
//                                          in the kUnknown bucket)
//
// A *user* exception that escapes the transaction body rolls the attempt
// back but is counted as `exceptions`, NOT as an abort: the transaction is
// abandoned rather than retried, so folding it into `aborts` would skew
// abort_pct() — the very series Figures 1–2 plot — with events that are not
// contention. An explicit user_abort() IS an abort (cause kUserAbort):
// the attempt is retried, so every abort is followed by exactly one retry.
// `fallbacks` counts escalations to the serial-irrevocable token, and
// `max_consec_aborts` is the high-water mark of consecutive aborts of a
// single atomically() invocation (aggregated with max, not sum).
//
// Latency histograms (populated only for descriptors a run binds a trace
// ring or metrics series to; always present so the reporting schema is
// stable):
//   lat_commit   — begin() -> successful commit, committed attempts only
//   lat_validate — one read-set / compare-set validation pass (aborting
//                  passes included: ScopedLatency records during unwind)
//   lat_backoff  — contention-manager inter-attempt wait
//   lat_gate     — serial-irrevocable token hold (acquire -> release)
// Histograms and the cause array aggregate element-wise under operator+=
// (min/max merged, everything else summed), so thread-level TxStats sum
// into run-level TxStats exactly like the scalar counters.
struct TxStats {
  std::uint64_t starts = 0;       ///< attempts (commits + aborts + exceptions)
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t exceptions = 0;   ///< attempts abandoned by a user exception
  std::uint64_t fallbacks = 0;    ///< serial-irrevocable escalations
  std::uint64_t max_consec_aborts = 0;  ///< worst single-transaction streak

  std::uint64_t reads = 0;        ///< plain transactional reads
  std::uint64_t writes = 0;       ///< plain transactional writes
  std::uint64_t compares = 0;     ///< semantic cmp (address–value)
  std::uint64_t compares2 = 0;    ///< semantic cmp (address–address)
  std::uint64_t increments = 0;   ///< semantic inc/dec
  std::uint64_t promotions = 0;   ///< inc promoted to read+write (RAW)
  std::uint64_t validations = 0;  ///< read/compare-set validation passes

  // Read-set economy counters: dedup keeps commit-time validation
  // O(unique locations) instead of O(reads). `readset_adds` counts entries
  // actually appended to a read/compare-set, `readset_dups` the appends
  // skipped because validating them could not fail (an equivalent entry was
  // already tracked, or a stable compare held), and `validate_entries` the
  // entries examined across all validation passes — the direct measure of
  // validation work per commit.
  std::uint64_t readset_adds = 0;
  std::uint64_t readset_dups = 0;
  std::uint64_t validate_entries = 0;

  /// GV4 commit-clock adoptions (runtime/global_clock.hpp): commits that
  /// lost the clock CAS and adopted a concurrent committer's stamp. Zero
  /// in the 1-carrier sim by construction (no yield point inside
  /// fetch_increment) — the determinism suite asserts exactly that; under
  /// real threads it measures clock-line contention relieved by GV4.
  std::uint64_t clock_adoptions = 0;

  /// Aborts by cause, indexed by obs::AbortCause (see the contract above).
  std::uint64_t abort_causes[obs::kAbortCauseCount] = {};

  obs::LatencyHistogram lat_commit;
  obs::LatencyHistogram lat_validate;
  obs::LatencyHistogram lat_backoff;
  obs::LatencyHistogram lat_gate;

  std::uint64_t abort_cause(obs::AbortCause c) const noexcept {
    return abort_causes[static_cast<std::size_t>(c)];
  }

  void note_abort_cause(obs::AbortCause c) noexcept {
    ++abort_causes[static_cast<std::size_t>(c)];
  }

  TxStats& operator+=(const TxStats& o) noexcept {
    starts += o.starts;
    commits += o.commits;
    aborts += o.aborts;
    exceptions += o.exceptions;
    fallbacks += o.fallbacks;
    if (o.max_consec_aborts > max_consec_aborts) {
      max_consec_aborts = o.max_consec_aborts;
    }
    reads += o.reads;
    writes += o.writes;
    compares += o.compares;
    compares2 += o.compares2;
    increments += o.increments;
    promotions += o.promotions;
    validations += o.validations;
    readset_adds += o.readset_adds;
    readset_dups += o.readset_dups;
    validate_entries += o.validate_entries;
    clock_adoptions += o.clock_adoptions;
    for (std::size_t i = 0; i < obs::kAbortCauseCount; ++i) {
      abort_causes[i] += o.abort_causes[i];
    }
    lat_commit += o.lat_commit;
    lat_validate += o.lat_validate;
    lat_backoff += o.lat_backoff;
    lat_gate += o.lat_gate;
    return *this;
  }

  /// Windowed-delta subtraction (obs/metrics.hpp): `o` must be an earlier
  /// snapshot of *this* (single-writer history), so every summable field of
  /// `o` is <= ours. Summable fields subtract exactly; max_consec_aborts —
  /// aggregated by max, not sum — keeps the minuend's running high-water
  /// mark, and histogram min/max follow the same rule (see
  /// LatencyHistogram::operator-=). Those running extremes are monotone
  /// over a single writer's life, so re-summing every window delta with
  /// operator+= reproduces the final TxStats field-for-field — the
  /// partition invariant tests/test_metrics.cpp asserts as full equality.
  TxStats& operator-=(const TxStats& o) noexcept {
    starts -= o.starts;
    commits -= o.commits;
    aborts -= o.aborts;
    exceptions -= o.exceptions;
    fallbacks -= o.fallbacks;
    // max_consec_aborts: keep the running max (see contract above).
    reads -= o.reads;
    writes -= o.writes;
    compares -= o.compares;
    compares2 -= o.compares2;
    increments -= o.increments;
    promotions -= o.promotions;
    validations -= o.validations;
    readset_adds -= o.readset_adds;
    readset_dups -= o.readset_dups;
    validate_entries -= o.validate_entries;
    clock_adoptions -= o.clock_adoptions;
    for (std::size_t i = 0; i < obs::kAbortCauseCount; ++i) {
      abort_causes[i] -= o.abort_causes[i];
    }
    lat_commit -= o.lat_commit;
    lat_validate -= o.lat_validate;
    lat_backoff -= o.lat_backoff;
    lat_gate -= o.lat_gate;
    return *this;
  }

  void reset() noexcept { *this = TxStats{}; }

  /// Abort percentage over contended attempts (commits + aborts), as
  /// plotted in the paper's figures; exception-abandoned attempts are
  /// excluded by design (see the accounting contract above).
  double abort_pct() const noexcept {
    const auto total = commits + aborts;
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(aborts) /
                                  static_cast<double>(total);
  }
};

}  // namespace semstm
