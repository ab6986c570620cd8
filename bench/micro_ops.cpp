// Micro-benchmarks (google-benchmark): single-threaded latencies of the
// TM constructs per algorithm, and validation cost as a function of
// read-set size — the raw numbers behind the paper's overhead discussion
// (§4: "no considerable overhead of S-NOrec over NOrec"; S-TL2's
// compare-set validation "linear with respect to the size of the
// compare-set itself").
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "containers/tarray.hpp"
#include "sched/thread_runner.hpp"
#include "semstm.hpp"
#include "tmir/interp.hpp"
#include "tmir/kernels.hpp"
#include "tmir/passes.hpp"
#include "util/rng.hpp"

namespace {

using namespace semstm;

const char* algo_of(int idx) {
  static const char* names[] = {"cgl", "norec", "snorec", "tl2", "stl2"};
  return names[idx];
}

/// Run `body` with the descriptor core of algorithm `name`, hoisting the
/// dispatch out of the timed loop, and label the run with the name. `body`
/// is a generic lambda over the dispatch tag — the mechanism the workload
/// driver uses (DESIGN.md §4.12).
template <typename Body>
void run_on_core(benchmark::State& state, const char* name, Body&& body) {
  dispatch_algorithm(algo_id(name), body);
  state.SetLabel(name);
}

struct Bound {
  std::unique_ptr<Algorithm> algo;
  std::unique_ptr<ThreadCtx> ctx;
  std::unique_ptr<CtxBinder> bind;

  explicit Bound(const std::string& name)
      : algo(make_algorithm(name)),
        ctx(std::make_unique<ThreadCtx>(algo->make_tx())),
        bind(std::make_unique<CtxBinder>(*ctx)) {}
};

void BM_ReadTx(benchmark::State& state) {
  const char* name = algo_of(static_cast<int>(state.range(0)));
  Bound b(name);
  TVar<long> x(7);
  run_on_core(state, name, [&](auto tag) {
    using TxT = typename decltype(tag)::tx_type;
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          atomically<TxT>([&](TxT& tx) { return x.get(tx); }));
    }
  });
}
BENCHMARK(BM_ReadTx)->DenseRange(0, 4);

void BM_WriteTx(benchmark::State& state) {
  const char* name = algo_of(static_cast<int>(state.range(0)));
  Bound b(name);
  TVar<long> x(0);
  long v = 0;
  run_on_core(state, name, [&](auto tag) {
    using TxT = typename decltype(tag)::tx_type;
    for (auto _ : state) {
      atomically<TxT>([&](TxT& tx) { x.set(tx, ++v); });
    }
  });
}
BENCHMARK(BM_WriteTx)->DenseRange(0, 4);

void BM_CompareTx(benchmark::State& state) {
  const char* name = algo_of(static_cast<int>(state.range(0)));
  Bound b(name);
  TVar<long> x(7);
  run_on_core(state, name, [&](auto tag) {
    using TxT = typename decltype(tag)::tx_type;
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          atomically<TxT>([&](TxT& tx) { return x.gt(tx, 0); }));
    }
  });
}
BENCHMARK(BM_CompareTx)->DenseRange(0, 4);

void BM_IncrementTx(benchmark::State& state) {
  const char* name = algo_of(static_cast<int>(state.range(0)));
  Bound b(name);
  TVar<long> x(0);
  run_on_core(state, name, [&](auto tag) {
    using TxT = typename decltype(tag)::tx_type;
    for (auto _ : state) {
      atomically<TxT>([&](TxT& tx) { x.add(tx, 1); });
    }
  });
}
BENCHMARK(BM_IncrementTx)->DenseRange(0, 4);

/// Cost of a writer commit as the read-set grows: NOrec-family validation
/// is linear in the read-set, TL2-family in the orec read-set.
template <int AlgoIdx>
void BM_CommitVsReadSetSize(benchmark::State& state) {
  Bound b(algo_of(AlgoIdx));
  const auto n = static_cast<std::size_t>(state.range(0));
  TArray<long> vars(n, 1);
  TVar<long> sink(0);
  for (auto _ : state) {
    atomically([&](auto& tx) {
      long acc = 0;
      for (std::size_t i = 0; i < n; ++i) acc += vars[i].get(tx);
      sink.set(tx, acc);  // writer: forces commit-time work
    });
  }
  state.SetLabel(b.algo->name());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CommitVsReadSetSize<1>)->RangeMultiplier(4)->Range(4, 1024)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_CommitVsReadSetSize<3>)->RangeMultiplier(4)->Range(4, 1024)
    ->Complexity(benchmark::oN);

/// Compare-set semantic validation cost (S-variants) vs clause size.
template <int AlgoIdx>
void BM_CompareSetValidation(benchmark::State& state) {
  Bound b(algo_of(AlgoIdx));
  const auto n = static_cast<std::size_t>(state.range(0));
  TArray<long> vars(n, 5);
  TVar<long> sink(0);
  for (auto _ : state) {
    atomically([&](auto& tx) {
      for (std::size_t i = 0; i < n; ++i) {
        benchmark::DoNotOptimize(vars[i].gt(tx, 0));
      }
      sink.set(tx, 1);
    });
  }
  state.SetLabel(b.algo->name());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompareSetValidation<2>)->RangeMultiplier(4)->Range(4, 1024)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_CompareSetValidation<4>)->RangeMultiplier(4)->Range(4, 1024)
    ->Complexity(benchmark::oN);

// ---------------------------------------------------------------------------
// Real-thread commit scalability (§4.16): throughput of the GV4 clock +
// announce-slot gate commit path under genuine OS threads, at 1/2/4
// threads, read-dominated and mixed. scripts/ci_scale_smoke.sh compares
// the 4-thread items_per_second against 1-thread on >=4-core hosts.
// Skipped under --mode=sim (the micro binary never installs the fiber
// scheduler, so "sim" means "latency-only benchmarks").
// ---------------------------------------------------------------------------

constexpr std::size_t kScaleCells = 256;
constexpr std::uint64_t kScaleOpsPerThread = 2000;

void BM_RealThreadScaling(benchmark::State& state) {
  const char* name = algo_of(static_cast<int>(state.range(0)));
  const auto threads = static_cast<unsigned>(state.range(1));
  const bool mixed = state.range(2) != 0;
  auto algo = make_algorithm(name);
  TArray<long> cells(kScaleCells, 100);
  for (auto _ : state) {
    const sched::RealResult r = sched::run_threads(threads, [&](unsigned tid) {
      // Contexts are per-OS-thread: CtxBinder binds a thread-local, so it
      // must run on the worker, not be hoisted into the harness thread.
      ThreadCtx ctx(algo->make_tx());
      CtxBinder bind(ctx);
      Rng rng(0x5CA1AB1EULL + tid);
      for (std::uint64_t i = 0; i < kScaleOpsPerThread; ++i) {
        const auto a = static_cast<std::size_t>(rng.below(kScaleCells));
        if (mixed && rng.below(4) == 0) {  // 25% writers
          atomically([&](auto& tx) { cells[a].add(tx, 1); });
        } else {
          benchmark::DoNotOptimize(
              atomically([&](auto& tx) { return cells[a].get(tx); }));
        }
      }
    });
    state.SetIterationTime(r.seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          threads * kScaleOpsPerThread);
  state.SetLabel(std::string(name) + (mixed ? "/mixed/" : "/reads/") +
                 std::to_string(threads) + "t");
}
BENCHMARK(BM_RealThreadScaling)
    ->ArgsProduct({{1, 3}, {1, 2, 4}, {0, 1}})  // norec, tl2
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Write-set lookup (read-after-write) cost as the write-set grows.
void BM_WriteSetLookup(benchmark::State& state) {
  Bound b("snorec");
  const auto n = static_cast<std::size_t>(state.range(0));
  TArray<long> vars(n, 0);
  for (auto _ : state) {
    atomically([&](auto& tx) {
      for (std::size_t i = 0; i < n; ++i) vars[i].set(tx, 1);
      long acc = 0;
      for (std::size_t i = 0; i < n; ++i) acc += vars[i].get(tx);  // RAW hits
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WriteSetLookup)->RangeMultiplier(4)->Range(4, 1024)
    ->Complexity(benchmark::oN);

// ---------------------------------------------------------------------------
// Executed-TM-barrier counts per kernel (DESIGN.md §4.17): each built-in
// tmir kernel runs raw and through the alias pipeline (tm_rbe + tm_mark +
// tm_optimize) under snorec, with InterpOptions::barriers tallying every
// barrier the interpreter actually issues. The workloads pin a constant
// control-flow path — probe/remove miss on an empty table, insert hits a
// pre-seeded duplicate, reserve's records are re-armed before every op,
// center_update is straight-line — so the per-op counters are exact
// integers, and scripts/ci_perf_smoke.sh gates on them *exactly*: a
// reintroduced barrier fails CI even when nanoseconds stay flat.
// ---------------------------------------------------------------------------

const char* tmir_kernel_name(int idx) {
  static const char* names[] = {"probe", "insert", "remove", "reserve",
                                "center_update"};
  return names[idx];
}

tmir::Function build_tmir_kernel(int idx) {
  switch (idx) {
    case 0: return tmir::build_probe_kernel();
    case 1: return tmir::build_insert_kernel();
    case 2: return tmir::build_remove_kernel();
    case 3: return tmir::build_reserve_kernel(4);
    default: return tmir::build_center_update_kernel(8);
  }
}

void BM_TmirKernelBarriers(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const bool optimized = state.range(1) != 0;
  Bound b("snorec");

  tmir::Function f = build_tmir_kernel(which);
  if (optimized) {
    tmir::pass_tm_rbe(f);
    tmir::pass_tm_mark(f);
    tmir::pass_tm_optimize(f);
  }

  // Shared state sized for the constant paths described above.
  constexpr std::size_t kCap = 16;
  constexpr unsigned kCandidates = 4;
  constexpr unsigned kFeatures = 8;
  constexpr word_t kKey = 7;
  constexpr word_t kStart = kKey % kCap;
  TArray<std::int64_t> states(kCap, 0), keys(kCap, 0);
  TArray<std::int64_t> numfree(kCandidates, 3), price(kCandidates, 0);
  TArray<std::int64_t> record(kFeatures + 1, 0);
  for (unsigned i = 0; i < kCandidates; ++i) {
    price[i].unsafe_set(100 + static_cast<long>(i));
  }
  if (which == 1) {  // insert takes its duplicate path: no table mutation
    states[kStart].unsafe_set(1);
    keys[kStart].unsafe_set(static_cast<long>(kKey));
  }

  std::vector<word_t> args;
  switch (which) {
    case 0:
    case 1:
    case 2:
      args = {to_word(states[0].word()), to_word(keys[0].word()),
              kCap - 1,                  kStart,
              kKey,                      kCap};
      break;
    case 3:
      args = {to_word(numfree[0].word()), to_word(price[0].word())};
      for (word_t id = 0; id < kCandidates; ++id) args.push_back(id);
      break;
    default:
      args = {to_word(record[0].word())};
      for (word_t v = 1; v <= kFeatures; ++v) args.push_back(v);
      break;
  }

  tmir::BarrierCounts counts;
  tmir::InterpOptions iopts;
  iopts.barriers = &counts;
  for (auto _ : state) {
    if (which == 3) {
      // Re-arm the records so reserve's numFree > 0 scan never changes path.
      for (unsigned i = 0; i < kCandidates; ++i) numfree[i].unsafe_set(3);
    }
    benchmark::DoNotOptimize(atomically([&](auto& tx) {
      return tmir::execute(tx, f, args.data(), args.size(), iopts);
    }));
  }

  const auto per_op = [](std::uint64_t c) {
    return benchmark::Counter(static_cast<double>(c),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["tm_loads_per_op"] = per_op(counts.tm_loads);
  state.counters["tm_stores_per_op"] = per_op(counts.tm_stores);
  state.counters["tm_cmps_per_op"] = per_op(counts.tm_cmps);
  state.counters["tm_incs_per_op"] = per_op(counts.tm_incs);
  state.counters["tm_barriers_per_op"] = per_op(counts.total());
  state.SetLabel(std::string(tmir_kernel_name(which)) +
                 (optimized ? "/opt" : "/raw"));
}
BENCHMARK(BM_TmirKernelBarriers)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 4, /*step=*/1), {0, 1}});

}  // namespace

// BENCHMARK_MAIN() plus two extra flags, stripped before
// benchmark::Initialize so the library's own strict flag parsing stays
// intact:
//   --json-out=FILE    write the full google-benchmark JSON report to FILE
//                      while the console report still goes to stdout — the
//                      hook scripts/bench_baseline.sh uses to commit
//                      BENCH_micro.json.
//   --mode=real|sim    "real" (default) runs everything; "sim" excludes
//                      the BM_RealThreadScaling family (this binary never
//                      installs the fiber scheduler, so sim mode means
//                      latency-only benchmarks — what 1-core CI hosts run).
int main(int argc, char** argv) {
  // Rewrite --json-out=FILE (or --json-out FILE) into the pair of native
  // flags the library validates together; everything else passes through.
  std::string json_out;
  std::string mode = "real";
  bool user_filter = false;
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      mode = argv[i] + 7;
    } else {
      if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0) {
        user_filter = true;
      }
      storage.emplace_back(argv[i]);
    }
  }
  if (mode != "real" && mode != "sim") {
    std::fprintf(stderr, "error: --mode must be 'real' or 'sim', got %s\n",
                 mode.c_str());
    return 2;
  }
  if (mode == "sim" && !user_filter) {
    storage.push_back("--benchmark_filter=-BM_RealThreadScaling.*");
  }
  if (!json_out.empty()) {
    // Fail before the run, not after minutes of benchmarking.
    std::ofstream probe(json_out, std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "error: cannot open --json-out file %s\n",
                   json_out.c_str());
      return 2;
    }
    storage.push_back("--benchmark_out=" + json_out);
    storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (auto& s : storage) args.push_back(s.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
