#include "workloads/driver.hpp"

#include <vector>

#include "core/context.hpp"
#include "sched/thread_runner.hpp"
#include "sched/virtual_scheduler.hpp"
#include "util/timing.hpp"

namespace semstm {

RunResult run_workload(const RunConfig& cfg, Workload& workload) {
  auto algo = make_algorithm(cfg.algo, cfg.algo_opts);

  SplitMix64 seeder(cfg.seed);
  const std::uint64_t setup_seed = seeder.next();
  Rng setup_rng(setup_seed);
  workload.setup(setup_rng);

  // Descriptors and RNG streams are created up front so results do not
  // depend on thread startup order.
  std::vector<std::unique_ptr<ThreadCtx>> ctxs;
  std::vector<Rng> rngs;
  ctxs.reserve(cfg.threads);
  rngs.reserve(cfg.threads);
  for (unsigned t = 0; t < cfg.threads; ++t) {
    const std::uint64_t s = seeder.next();
    // The contention-manager seed stream is decorrelated from the workload
    // stream (distinct per thread AND per purpose) so backoff randomization
    // never echoes workload choices.
    ctxs.push_back(std::make_unique<ThreadCtx>(algo->make_tx(), s ^ 0xB0FF));
    rngs.emplace_back(s);
  }
  if (cfg.trace != nullptr) {
    cfg.trace->prepare(cfg.threads);
    for (unsigned t = 0; t < cfg.threads; ++t) {
      ctxs[t]->tx->base.bind_trace(&cfg.trace->ring(t));
    }
  }
  if (cfg.metrics != nullptr) {
    cfg.metrics->prepare(cfg.threads);
    for (unsigned t = 0; t < cfg.threads; ++t) {
      ctxs[t]->tx->base.bind_metrics(&cfg.metrics->series(t));
    }
  }

  if (!cfg.ops_by_thread.empty() && cfg.ops_by_thread.size() != cfg.threads) {
    std::fprintf(stderr,
                 "error: ops_by_thread has %zu entries for %u threads\n",
                 cfg.ops_by_thread.size(), cfg.threads);
    std::exit(2);
  }

  auto body = [&](unsigned tid) {
    CtxBinder bind(*ctxs[tid]);
    const std::uint64_t ops = cfg.ops_by_thread.empty()
                                  ? cfg.ops_per_thread
                                  : cfg.ops_by_thread[tid];
    workload.run_ops(tid, rngs[tid], ops);
  };

  RunResult r;
  Timer timer;
  if (cfg.mode == ExecMode::kSim) {
    sched::VirtualScheduler sim(
        sched::SimOptions{.seed = seeder.next(), .quantum = cfg.sim_quantum});
    const sched::SimResult sr = sim.run(cfg.threads, body);
    r.makespan = sr.makespan;
    r.wall_seconds = timer.seconds();
    r.units = "ticks";
  } else {
    const sched::RealResult rr = sched::run_threads(cfg.threads, body);
    r.wall_seconds = rr.seconds;
    r.units = "ns";  // obs::now_ticks() is steady_clock ns under real threads
  }

  for (const auto& ctx : ctxs) r.stats += ctx->tx->stats;
  r.abort_pct = r.stats.abort_pct();

  // Contention cartography (empty in unobserved runs: the per-descriptor
  // maps never record). Flushing after the run —
  // rather than sampling with a clock — keeps sim-mode final windows
  // correct: outside sim.run() the virtual clock is gone.
  if (cfg.metrics != nullptr) {
    for (unsigned t = 0; t < cfg.threads; ++t) {
      cfg.metrics->series(t).flush(ctxs[t]->tx->stats);
    }
    r.windows = cfg.metrics->merged();
  }
  obs::ConflictMap merged(12);  // 4096 run-level sites
  for (const auto& ctx : ctxs) merged.merge(ctx->tx->base.conflict_map());
  r.conflict_overflow = merged.overflow();
  r.hot_sites = obs::top_sites(merged, kHotSites);
  if (cfg.mode == ExecMode::kSim) {
    r.throughput = r.makespan == 0
                       ? 0.0
                       : static_cast<double>(r.stats.commits) * 1e6 /
                             static_cast<double>(r.makespan);
  } else {
    r.throughput = r.wall_seconds == 0.0
                       ? 0.0
                       : static_cast<double>(r.stats.commits) / r.wall_seconds;
  }
  return r;
}

}  // namespace semstm
