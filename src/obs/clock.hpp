// Observability time source.
//
// Recording is a per-run decision, not a build option: a descriptor
// records latency histograms, trace events, metrics windows and conflict
// sites only while the driver has bound it a sink (a TraceRing for
// --trace, a WindowSeries for --metrics-out). An unobserved descriptor
// pays one predictable branch per attempt, per validation pass and per
// semantic op; the recording bodies stay out of line and cold
// (core/atomically.hpp, core/tx.hpp).
#pragma once

#include <chrono>
#include <cstdint>

#include "sched/yieldpoint.hpp"

namespace semstm::obs {

/// Always false: recording is decided per run, not per build. Kept only
/// for the benchmark harness's build-configuration check.
inline constexpr bool kTraceEnabled = false;

/// Current time in "ticks". Under the virtual scheduler this is the
/// running fiber's deterministic virtual clock — the same unit as makespan
/// and throughput, so latency histograms and traces line up with the
/// figures. Reading it charges no ticks, so observing a simulated run does
/// not change its schedule. Under real threads it is a monotonic hardware
/// clock in nanoseconds (rdtsc would be cheaper but needs invariant-TSC
/// probing; observed runs are diagnostic runs, so portability wins).
inline std::uint64_t now_ticks() noexcept {
  if (const sched::YieldHook* h = sched::hook()) return h->now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace semstm::obs
