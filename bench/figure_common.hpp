// Shared harness for the Figure 1 / Figure 2 reproductions.
//
// Each figure bench sweeps thread counts for the four algorithms the paper
// plots (NOrec, S-NOrec, TL2, S-TL2; Figure 2 uses a NOrec-Modified-GCC
// configuration instead of TL2), pairing base workload builds with base
// algorithms and semantic builds with semantic algorithms, exactly as the
// paper's RSTM experiments do. Output is one CSV block per panel:
// throughput (or completion time) and abort rate — the same series the
// paper plots.
//
// Execution defaults to the deterministic virtual scheduler (see
// DESIGN.md: the host has one core); pass --mode=real for std::thread runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/abort_cause.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "util/cli.hpp"
#include "workloads/driver.hpp"

namespace semstm::bench {

struct AlgoConfig {
  std::string algo;      ///< TM algorithm name
  bool semantic_build;   ///< build the workload with semantic constructs?
  std::string label;     ///< series label in the output
};

/// Simulator scheduling slack of every figure run: amortizes fiber
/// switches (see sched::SimOptions::quantum). Ablation D sweeps it.
inline constexpr std::uint64_t kSimQuantum = 24;

struct FigureSpec {
  std::string name;                  // e.g. "Figure 1a/1b: Hashtable"
  std::string metric;                // "throughput" or "time"
  std::vector<unsigned> threads;
  std::uint64_t ops_per_thread = 1000;
  bool fixed_total_work = false;     // divide total ops across threads
  std::uint64_t seed = 0x5EED;
  ExecMode mode = ExecMode::kSim;
  /// When non-empty, every (series × thread-count) run is traced and the
  /// merged Chrome trace_event JSON is written here (--trace out.json).
  std::string trace_path;
  /// When non-empty, the machine-readable summary (the same object printed
  /// as the trailing "# JSON {...}" line) is also written to this file —
  /// the hook scripts/bench_baseline.sh uses to commit BENCH_*.json.
  std::string json_out;
  /// When non-empty (--metrics-out out.jsonl), every (series ×
  /// thread-count) run collects windowed metrics + hot sites and appends
  /// them as JSON-lines here (obs::MetricsWriter schema; rendered by
  /// examples/tm_top), over windows of the collector's default width.
  std::string metrics_path;
  std::vector<AlgoConfig> series = {
      {"norec", false, "NOrec"},
      {"snorec", true, "S-NOrec"},
      {"tl2", false, "TL2"},
      {"stl2", true, "S-TL2"},
  };
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>(bool semantic)>;

inline void apply_cli(FigureSpec& spec, const Cli& cli) {
  spec.threads = cli.get_list("threads", spec.threads);
  spec.ops_per_thread = cli.get_uint("ops", spec.ops_per_thread);
  spec.seed = cli.get_uint("seed", spec.seed);
  const std::string mode = cli.get("mode", "");
  if (mode == "real") {
    spec.mode = ExecMode::kReal;
  } else if (mode == "sim") {
    spec.mode = ExecMode::kSim;
  } else if (!mode.empty()) {
    std::fprintf(stderr, "error: --mode must be 'real' or 'sim', got %s\n",
                 mode.c_str());
    std::exit(2);
  }
  spec.trace_path = cli.get("trace", spec.trace_path);
  spec.json_out = cli.get("json-out", spec.json_out);
  spec.metrics_path = cli.get("metrics-out", spec.metrics_path);
}

struct SeriesPoint {
  double metric_value;  // throughput (commits/Mtick) or time (Mticks)
  double abort_pct;
  TxStats stats;        // full counters for the JSON summary
  std::uint64_t trace_dropped = 0;  // trace-ring drops (traced runs only)
  std::uint64_t conflict_overflow = 0;
  std::size_t windows = 0;          // metrics windows recorded for this run
  std::vector<obs::ConflictMap::Site> hot_sites;  // run-level top-K
};

/// The machine-readable summary, written either as the trailing
/// "# JSON {...}" stdout line or verbatim into --json-out's file.
inline void emit_json_summary(std::FILE* out, const FigureSpec& spec,
                              const std::vector<std::vector<SeriesPoint>>& table) {
  // `units` labels every tick-denominated field below (latency percentiles,
  // trace timestamps, metrics windows): virtual ticks in sim mode,
  // steady-clock nanoseconds under real threads.
  std::fprintf(out, "{\"figure\":\"%s\",\"metric\":\"%s\",\"units\":\"%s\","
               "\"mode\":\"%s\",\"series\":[",
               spec.name.c_str(), spec.metric.c_str(),
               spec.mode == ExecMode::kSim ? "ticks" : "ns",
               spec.mode == ExecMode::kSim ? "sim" : "real");
  for (std::size_t s = 0; s < spec.series.size(); ++s) {
    std::fprintf(out, "%s{\"label\":\"%s\",\"algo\":\"%s\",\"points\":[",
                 s == 0 ? "" : ",", spec.series[s].label.c_str(),
                 spec.series[s].algo.c_str());
    // Threads×metric scaling relative to the sweep's first (smallest)
    // thread count — >1 means the algorithm gained from added threads.
    // Meaningful under --mode=real on multi-core hosts; on the 1-fiber sim
    // it records the simulated-contention profile instead.
    const double base_metric = table[s][0].metric_value;
    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
      const SeriesPoint& p = table[s][t];
      const TxStats& st = p.stats;
      double speedup = 0.0;
      if (spec.metric == "time") {
        if (p.metric_value > 0) speedup = base_metric / p.metric_value;
      } else {
        if (base_metric > 0) speedup = p.metric_value / base_metric;
      }
      std::fprintf(
          out,
          "%s{\"threads\":%u,\"metric\":%.6g,\"speedup\":%.4g,"
          "\"abort_pct\":%.4g,"
          "\"commits\":%llu,\"aborts\":%llu,"
          "\"fallbacks\":%llu,\"max_consec_aborts\":%llu,"
          "\"exceptions\":%llu,\"validations\":%llu,"
          "\"readset_adds\":%llu,\"readset_dups\":%llu,"
          "\"validate_entries\":%llu,\"clock_adoptions\":%llu,"
          "\"abort_causes\":{",
          t == 0 ? "" : ",", spec.threads[t], p.metric_value, speedup,
          p.abort_pct,
          static_cast<unsigned long long>(st.commits),
          static_cast<unsigned long long>(st.aborts),
          static_cast<unsigned long long>(st.fallbacks),
          static_cast<unsigned long long>(st.max_consec_aborts),
          static_cast<unsigned long long>(st.exceptions),
          static_cast<unsigned long long>(st.validations),
          static_cast<unsigned long long>(st.readset_adds),
          static_cast<unsigned long long>(st.readset_dups),
          static_cast<unsigned long long>(st.validate_entries),
          static_cast<unsigned long long>(st.clock_adoptions));
      for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
        std::fprintf(out, "%s\"%s\":%llu", c == 0 ? "" : ",",
                     obs::abort_cause_name(static_cast<obs::AbortCause>(c)),
                     static_cast<unsigned long long>(
                         st.abort_cause(static_cast<obs::AbortCause>(c))));
      }
      // Latency percentiles (obs ticks). All-zero unless the run was
      // observed (--trace or --metrics-out); the schema is stable either way.
      std::fprintf(
          out,
          "},\"commit_p50\":%llu,\"commit_p99\":%llu,"
          "\"validate_p50\":%llu,\"validate_p99\":%llu,"
          "\"backoff_p50\":%llu,\"backoff_p99\":%llu,"
          "\"gate_p50\":%llu,\"gate_p99\":%llu",
          static_cast<unsigned long long>(st.lat_commit.percentile(50)),
          static_cast<unsigned long long>(st.lat_commit.percentile(99)),
          static_cast<unsigned long long>(st.lat_validate.percentile(50)),
          static_cast<unsigned long long>(st.lat_validate.percentile(99)),
          static_cast<unsigned long long>(st.lat_backoff.percentile(50)),
          static_cast<unsigned long long>(st.lat_backoff.percentile(99)),
          static_cast<unsigned long long>(st.lat_gate.percentile(50)),
          static_cast<unsigned long long>(st.lat_gate.percentile(99)));
      // Contention cartography (all-zero/empty unless observed; schema
      // stable either way). trace_dropped makes ring exhaustion a
      // machine-checkable condition instead of a flame-summary footnote.
      std::fprintf(out,
                   ",\"trace_dropped\":%llu,\"conflict_overflow\":%llu,"
                   "\"windows\":%zu,\"hot_sites\":[",
                   static_cast<unsigned long long>(p.trace_dropped),
                   static_cast<unsigned long long>(p.conflict_overflow),
                   p.windows);
      for (std::size_t h = 0; h < p.hot_sites.size(); ++h) {
        const obs::ConflictMap::Site& site = p.hot_sites[h];
        std::fprintf(out, "%s{\"addr\":\"%p\",\"orec\":", h == 0 ? "" : ",",
                     site.addr);
        if (site.orec == obs::kNoOrec) {
          std::fprintf(out, "null");
        } else {
          std::fprintf(out, "%llu",
                       static_cast<unsigned long long>(site.orec));
        }
        std::fprintf(out,
                     ",\"total\":%llu,\"edges\":%llu,\"top_cause\":\"%s\"}",
                     static_cast<unsigned long long>(site.total()),
                     static_cast<unsigned long long>(site.edges),
                     obs::abort_cause_name(site.top_cause()));
      }
      std::fprintf(out, "]}");
    }
    std::fprintf(out, "]}");
  }
  std::fprintf(out, "]}\n");
}

inline void run_figure(const FigureSpec& spec, const WorkloadFactory& make) {
  std::printf("# %s\n", spec.name.c_str());
  std::printf("# mode=%s ops_per_thread=%llu%s\n",
              spec.mode == ExecMode::kSim ? "sim" : "real",
              static_cast<unsigned long long>(spec.ops_per_thread),
              spec.fixed_total_work ? " (fixed total work)" : "");

  std::vector<std::vector<SeriesPoint>> table(
      spec.series.size(), std::vector<SeriesPoint>(spec.threads.size()));
  obs::TraceExporter exporter;
  std::unique_ptr<obs::MetricsWriter> metrics_writer;
  if (!spec.metrics_path.empty()) {
    metrics_writer = std::make_unique<obs::MetricsWriter>(spec.metrics_path);
    if (!metrics_writer->ok()) {
      std::fprintf(stderr, "error: cannot open --metrics-out file %s\n",
                   spec.metrics_path.c_str());
      std::exit(2);
    }
  }

  for (std::size_t s = 0; s < spec.series.size(); ++s) {
    for (std::size_t t = 0; t < spec.threads.size(); ++t) {
      const unsigned threads = spec.threads[t];
      RunConfig cfg;
      cfg.algo = spec.series[s].algo;
      cfg.threads = threads;
      cfg.mode = spec.mode;
      cfg.ops_per_thread = spec.ops_per_thread;
      if (spec.fixed_total_work) {
        // Lossless split: the remainder ops land on the first threads, so
        // every point of the sweep executes exactly spec.ops_per_thread
        // total operations (not up to threads-1 fewer).
        cfg.ops_by_thread = split_total_ops(spec.ops_per_thread, threads);
      }
      cfg.seed = spec.seed;
      cfg.sim_quantum = kSimQuantum;
      obs::TraceCollector collector;
      if (!spec.trace_path.empty()) cfg.trace = &collector;
      obs::MetricsCollector metrics;
      if (metrics_writer != nullptr) cfg.metrics = &metrics;
      auto w = make(spec.series[s].semantic_build);
      const RunResult r = run_workload(cfg, *w);
      w->verify();
      const std::string run_label =
          spec.series[s].label + "/" + std::to_string(threads) + "t";
      if (cfg.trace != nullptr) exporter.add_run(run_label, collector);
      if (metrics_writer != nullptr) {
        metrics_writer->add_run(run_label, r.units, metrics.width(),
                                threads, r.windows, r.hot_sites,
                                r.conflict_overflow);
      }
      SeriesPoint& p = table[s][t];
      p.abort_pct = r.abort_pct;
      p.stats = r.stats;
      if (cfg.trace != nullptr) p.trace_dropped = collector.dropped();
      p.conflict_overflow = r.conflict_overflow;
      p.windows = r.windows.size();
      p.hot_sites = r.hot_sites;
      if (spec.metric == "time") {
        // Completion time of the fixed total work, in mega-ticks (sim) or
        // seconds (real) — lower is better, like the paper's STAMP plots.
        p.metric_value = spec.mode == ExecMode::kSim
                             ? static_cast<double>(r.makespan) / 1e6
                             : r.wall_seconds;
      } else {
        p.metric_value = r.throughput;
      }
    }
  }

  const char* unit = spec.metric == "time"
                         ? (spec.mode == ExecMode::kSim ? "Mticks" : "sec")
                         : (spec.mode == ExecMode::kSim ? "commits/Mtick"
                                                        : "commits/sec");

  std::printf("\n## %s (%s)\n", spec.metric.c_str(), unit);
  std::printf("threads");
  for (const auto& s : spec.series) std::printf(",%s", s.label.c_str());
  std::printf("\n");
  for (std::size_t t = 0; t < spec.threads.size(); ++t) {
    std::printf("%u", spec.threads[t]);
    for (std::size_t s = 0; s < spec.series.size(); ++s) {
      std::printf(",%.3f", table[s][t].metric_value);
    }
    std::printf("\n");
  }

  std::printf("\n## abort rate (%%)\n");
  std::printf("threads");
  for (const auto& s : spec.series) std::printf(",%s", s.label.c_str());
  std::printf("\n");
  for (std::size_t t = 0; t < spec.threads.size(); ++t) {
    std::printf("%u", spec.threads[t]);
    for (std::size_t s = 0; s < spec.series.size(); ++s) {
      std::printf(",%.2f", table[s][t].abort_pct);
    }
    std::printf("\n");
  }

  // Serial-irrevocable fallbacks per 10k commits (0.00 unless some
  // transaction hit kRetryLimit consecutive aborts and ran alone — the
  // progress-guarantee audit trail).
  std::printf("\n## serial fallbacks (per 10k commits)\n");
  std::printf("threads");
  for (const auto& s : spec.series) std::printf(",%s", s.label.c_str());
  std::printf("\n");
  for (std::size_t t = 0; t < spec.threads.size(); ++t) {
    std::printf("%u", spec.threads[t]);
    for (std::size_t s = 0; s < spec.series.size(); ++s) {
      const TxStats& st = table[s][t].stats;
      const double rate =
          st.commits == 0 ? 0.0
                          : 1e4 * static_cast<double>(st.fallbacks) /
                                static_cast<double>(st.commits);
      std::printf(",%.2f", rate);
    }
    std::printf("\n");
  }

  // Headline ratios (paper: "up to 4x, average 1.6x"): semantic vs base,
  // same family, best thread count.
  auto best = [&](std::size_t s) {
    double v = table[s][0].metric_value;
    for (const auto& p : table[s]) {
      v = spec.metric == "time" ? std::min(v, p.metric_value)
                                : std::max(v, p.metric_value);
    }
    return v;
  };
  for (std::size_t s = 0; s + 1 < spec.series.size(); s += 2) {
    const double base = best(s);
    const double sem = best(s + 1);
    const double speedup =
        spec.metric == "time" ? base / sem : sem / base;
    std::printf("\n# peak %s/%s speedup: %.2fx\n",
                spec.series[s + 1].label.c_str(), spec.series[s].label.c_str(),
                speedup);
  }

  // Machine-readable summary (one JSON object per figure) so sweep scripts
  // can pull retry/fallback counters without parsing the CSV blocks.
  std::printf("\n# JSON ");
  emit_json_summary(stdout, spec, table);
  std::printf("\n");

  if (!spec.json_out.empty()) {
    std::FILE* f = std::fopen(spec.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open --json-out file %s\n",
                   spec.json_out.c_str());
      std::exit(2);
    }
    emit_json_summary(f, spec, table);
    std::fclose(f);
    std::printf("# json summary -> %s\n", spec.json_out.c_str());
  }

  if (metrics_writer != nullptr) {
    if (metrics_writer->close()) {
      std::printf("# metrics -> %s (render with tm_top --in %s)\n",
                  spec.metrics_path.c_str(), spec.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write metrics to %s\n",
                   spec.metrics_path.c_str());
      std::exit(2);
    }
  }

  if (!spec.trace_path.empty()) {
    if (exporter.write_chrome(spec.trace_path)) {
      std::printf("# trace: %zu events -> %s (chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  exporter.event_count(), spec.trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write trace to %s\n",
                   spec.trace_path.c_str());
    }
    // Flame summary: the 10-second diagnosis view, "# "-prefixed so CSV
    // consumers skip it like every other comment line.
    const std::string flame = exporter.flame_summary();
    std::size_t pos = 0;
    while (pos < flame.size()) {
      std::size_t nl = flame.find('\n', pos);
      if (nl == std::string::npos) nl = flame.size();
      std::printf("# %.*s\n", static_cast<int>(nl - pos), flame.c_str() + pos);
      pos = nl + 1;
    }
  }
}

}  // namespace semstm::bench
