// perfbench: the library on real OS threads, four paper algorithms per
// workload, interleaved in short chunks. See README.md beside this file.
//
//   perfbench --workload hashtable-4t|bank-4t|vacation-1t --seed N
//             --seconds S --trace 0|1
//
// Prints human-readable `#` lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <time.h>

#include "core/atomically.hpp"
#include "core/dispatch.hpp"
#include "obs/clock.hpp"
#include "sched/thread_runner.hpp"
#include "trace.hpp"
#include "workloads/bank.hpp"
#include "workloads/hashtable_wl.hpp"
#include "workloads/vacation.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using semstm::Rng;
using semstm::TxStats;

constexpr std::array<const char*, 4> kAlgos = {"norec", "snorec", "tl2",
                                               "stl2"};
constexpr double kChunkSeconds = 0.1;     // target length of one chunk
constexpr unsigned kMinRounds = 4;        // so quarters are never empty
constexpr std::uint64_t kTraceEvery = 64; // traced chunks time 1 op in 64
constexpr double kDriftTolerance = 0.05;  // accesses/commit, first vs last

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Nearest-rank percentile; reorders `v`.
double percentile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

std::uint64_t accesses(const TxStats& s) {
  return s.reads + s.writes + s.compares + s.compares2 + s.increments;
}

// -- Workloads ----------------------------------------------------------------
//
// Each adapter owns one workload instance for one algorithm series: its
// constructor is the workload's set-up, op<TxT>() is one operation, and
// check() its correctness condition after the run ("" when it holds).

/// A descriptor of plain loads and stores, for set-up before any thread
/// starts: it drives a container through the same code as a transaction
/// would, without TM bookkeeping.
struct DirectAccess {
  semstm::word_t read(const semstm::tword* addr) {
    return addr->load(std::memory_order_relaxed);
  }
  void write(semstm::tword* addr, semstm::word_t value) {
    addr->store(value, std::memory_order_relaxed);
  }
  bool cmp(const semstm::tword* addr, semstm::Rel rel, semstm::word_t v) {
    return semstm::eval(rel, read(addr), v);
  }
  bool cmp_or(const semstm::CmpTerm* terms, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (terms[i].eval_now()) return true;
    }
    return false;
  }
};

/// The default backoff policy, which also counts the TM accesses of
/// attempts that aborted. atomically() calls on_abort() right after an
/// attempt rolls back and on_finish() right after one commits, on the
/// descriptor's own thread, so the accesses since the previous call belong
/// to that attempt.
class CountingCm final : public semstm::ContentionManager {
 public:
  CountingCm(std::uint64_t seed, const TxStats& stats)
      : backoff_(seed), stats_(stats), mark_(accesses(stats)) {}

  const char* name() const noexcept override { return backoff_.name(); }
  bool on_abort(std::uint64_t consecutive) override {
    const std::uint64_t now = accesses(stats_);
    wasted_ += now - mark_;
    mark_ = now;
    return backoff_.on_abort(consecutive);
  }
  void on_finish() noexcept override {
    mark_ = accesses(stats_);
    backoff_.on_finish();
  }

  /// Accesses made by aborted attempts so far.
  std::uint64_t wasted() const noexcept { return wasted_; }

 private:
  semstm::BackoffCm backoff_;
  const TxStats& stats_;
  std::uint64_t mark_;
  std::uint64_t wasted_ = 0;
};

/// Successful updates a thread committed (hashtable size conservation).
struct OpCounters {
  std::int64_t inserted = 0;
  std::int64_t removed = 0;
};

/// A library workload driven through its own op_t() and verify().
template <typename WL, unsigned Threads, std::uint64_t WarmupOps>
class LibraryWorkload {
 public:
  static constexpr unsigned kThreads = Threads;
  static constexpr std::uint64_t kWarmupOpsPerThread = WarmupOps;

  LibraryWorkload(typename WL::Params p, bool semantic, Rng& rng)
      : wl_(p, semantic) {
    wl_.setup(rng);
  }

  template <typename TxT>
  void op(unsigned tid, Rng& rng, OpCounters&) {
    wl_.template op_t<TxT>(tid, rng);
  }

  std::string check(const OpCounters&) {
    try {
      wl_.verify();
    } catch (const std::exception& e) {
      return e.what();
    }
    return {};
  }

 private:
  WL wl_;
};

/// bank-4t: BankWorkload at its default Params; short writers.
class Bank : public LibraryWorkload<semstm::BankWorkload, 4, 50000> {
 public:
  Bank(bool semantic, Rng& rng) : LibraryWorkload({}, semantic, rng) {}
};

/// vacation-1t: VacationWorkload on one thread. At the default capacity
/// (100 units per record) it sells out after about 90k ops and its reads
/// per op fall from 95 to 63; no run gets near kUnitsPerRecord.
class Vacation : public LibraryWorkload<semstm::VacationWorkload, 1, 20000> {
 public:
  static constexpr long kUnitsPerRecord = 1000000000;

  Vacation(bool semantic, Rng& rng)
      : LibraryWorkload(params(), semantic, rng) {}

 private:
  static semstm::VacationWorkload::Params params() {
    semstm::VacationWorkload::Params p;
    p.initial_free = kUnitsPerRecord;
    return p;
  }
};

/// hashtable-4t: the paper's Fig. 1a table (HashtableWorkload's default
/// Params), with the transaction body written here so the container calls
/// can be traced and successful updates counted.
///
/// Tombstones never revert to FREE, so probe chains keep growing long
/// after the prefill (see README.md). Set-up therefore ages the table by
/// kWarmupMutations random inserts/removes (the only ops that change it),
/// after which a run's drift stays within a few percent.
class Hashtable {
 public:
  static constexpr unsigned kThreads = 4;
  static constexpr std::uint64_t kWarmupOpsPerThread = 10000;
  static constexpr std::uint64_t kWarmupMutations = 64000000;

  Hashtable(bool semantic, Rng& rng) : table_(p_.capacity, semantic) {
    DirectAccess direct;
    const auto target = static_cast<std::size_t>(
        p_.prefill * static_cast<double>(p_.key_space));
    std::size_t size = 0;
    while (size < target) size += table_.insert(direct, key(rng));
    for (std::uint64_t i = 0; i < kWarmupMutations; ++i) {
      if (rng.below(2) != 0) {
        (void)table_.insert(direct, key(rng));
      } else {
        (void)table_.remove(direct, key(rng));
      }
    }
    base_size_ = static_cast<std::int64_t>(table_.unsafe_size());
  }

  template <typename TxT>
  void op(unsigned, Rng& rng, OpCounters& counters) {
    struct Step {
      std::int64_t key;
      unsigned kind;  // 0 insert, 1 remove, 2 lookup
    };
    Step plan[32];
    for (unsigned i = 0; i < p_.ops_per_tx; ++i) {
      plan[i].key = key(rng);
      const auto roll = static_cast<unsigned>(rng.below(100));
      plan[i].kind = roll < p_.insert_pct                    ? 0u
                     : roll < p_.insert_pct + p_.remove_pct ? 1u
                                                            : 2u;
    }
    const auto done = semstm::atomically<TxT>([&](TxT& tx) {
      OpCounters c;
      for (unsigned i = 0; i < p_.ops_per_tx; ++i) {
        const std::int64_t k = plan[i].key;
        switch (plan[i].kind) {
          case 0:
            c.inserted += container_call(tx, Layer::kHtInsert,
                                         [&] { return table_.insert(tx, k); });
            break;
          case 1:
            c.removed += container_call(tx, Layer::kHtRemove,
                                        [&] { return table_.remove(tx, k); });
            break;
          default:
            (void)container_call(tx, Layer::kHtContains,
                                 [&] { return table_.contains(tx, k); });
            break;
        }
      }
      return c;
    });
    counters.inserted += done.inserted;
    counters.removed += done.removed;
  }

  /// Size conservation: the table holds the set-up population plus every
  /// committed successful insert minus every committed successful remove.
  std::string check(const OpCounters& total) {
    const std::int64_t expected = base_size_ + total.inserted - total.removed;
    const auto actual = static_cast<std::int64_t>(table_.unsafe_size());
    if (actual == expected) return {};
    return "hashtable: size " + std::to_string(actual) + ", expected " +
           std::to_string(expected);
  }

 private:
  std::int64_t key(Rng& rng) const {
    return static_cast<std::int64_t>(rng.below(p_.key_space));
  }

  const semstm::HashtableWorkload::Params p_{};
  semstm::TOpenHashTable table_;
  std::int64_t base_size_ = 0;
};

// -- One algorithm series -----------------------------------------------------

/// One chunk: every thread runs ops until the chunk's deadline (or, for
/// the warm-up, a fixed count), so all threads stay busy throughout.
struct Chunk {
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  TxStats delta;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// How much later the slowest thread would finish than the fastest if
  /// each ran the same number of ops, as a share of that finish time:
  /// 1 - min/max of the threads' op counts.
  double skew_pct = 0.0;
  /// The threads' CPU time over their wall time: below 1 when the host or
  /// another process took the CPUs away during the chunk.
  double cpu_share = 1.0;
  std::uint64_t wasted_accesses = 0;  ///< made by aborted attempts
  LayerTotals spans;  ///< traced chunks only

  /// Commits per second the threads were running.
  double commits_per_s() const {
    return ratio(static_cast<double>(delta.commits), wall_s * cpu_share);
  }
};

class Series {
 public:
  virtual ~Series() = default;
  /// Second half of set-up, run alone: descriptors and a warm-up chunk.
  virtual void warm_up() = 0;
  virtual Chunk run_chunk(bool traced) = 0;
  /// Workload invariant and TxStats accounting contract ("" when both hold).
  virtual std::string check() = 0;

  /// From nothing to the first timed op, counting only the time the set-up
  /// threads were running, as commits_per_s does.
  double setup_s = 0.0;
};

template <typename Core, typename W>
class SeriesImpl final : public Series {
 public:
  /// First half of set-up, independent of the other series: the
  /// algorithm and the workload's own set-up.
  SeriesImpl(const char* algo, std::uint64_t seed) : seeder_(seed) {
    const double cpu0 = thread_cpu_seconds();
    algo_ = semstm::make_algorithm(algo);
    // Every series of a run draws the same inputs from the seed.
    Rng setup_rng(seeder_.next());
    wl_ = std::make_unique<W>(algo_->semantic(), setup_rng);
    setup_s = thread_cpu_seconds() - cpu0;
  }

  void warm_up() override {
    const double cpu0 = thread_cpu_seconds();
    for (Worker& w : workers_) {
      const std::uint64_t s = seeder_.next();
      std::unique_ptr<semstm::Tx> tx = algo_->make_tx();
      auto cm = std::make_unique<CountingCm>(s ^ 0xB0FF, tx->stats);
      w.cm = cm.get();
      w.ctx = std::make_unique<semstm::ThreadCtx>(std::move(tx), s ^ 0xB0FF,
                                                  std::move(cm));
      w.core = static_cast<Core*>(w.ctx->core);
      w.shim = std::make_unique<TracedTx<Core>>(*w.core, w.rec);
      w.rng = Rng(s);
    }
    setup_s += thread_cpu_seconds() - cpu0;
    const Chunk warm = run(W::kWarmupOpsPerThread, 0.0, false);
    setup_s += warm.wall_s * warm.cpu_share;
  }

  Chunk run_chunk(bool traced) override {
    return run(kUnbounded, kChunkSeconds, traced);
  }

  std::string check() override {
    const TxStats s = stats();
    if (s.starts != s.commits + s.aborts + s.exceptions) {
      return "TxStats: starts != commits + aborts + exceptions";
    }
    std::uint64_t causes = 0;
    for (const std::uint64_t c : s.abort_causes) causes += c;
    if (causes != s.aborts) return "TxStats: aborts != sum of abort causes";
    OpCounters total;
    for (const Worker& w : workers_) {
      total.inserted += w.counters.inserted;
      total.removed += w.counters.removed;
    }
    return wl_->check(total);
  }

 private:
  struct Worker {
    std::unique_ptr<semstm::ThreadCtx> ctx;
    CountingCm* cm = nullptr;  // owned by ctx
    Core* core = nullptr;
    std::unique_ptr<TracedTx<Core>> shim;
    SpanRecorder rec;
    Rng rng;
    OpCounters counters;
    std::uint64_t op_seq = 0;  // picks the traced ops
    // Per chunk:
    std::vector<std::uint64_t> lat_ns;
    LayerTotals spans;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
  };

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  TxStats stats() const {
    TxStats s;
    for (const Worker& w : workers_) s += w.core->stats;
    return s;
  }

  std::uint64_t wasted_accesses() const {
    std::uint64_t n = 0;
    for (const Worker& w : workers_) n += w.cm->wasted();
    return n;
  }

  /// Runs every thread for `ops` ops or, when `seconds` > 0, until that
  /// long after the first thread started, whichever comes first.
  Chunk run(std::uint64_t ops, double seconds, bool traced) {
    const TxStats before = stats();
    const std::uint64_t wasted_before = wasted_accesses();
    for (Worker& w : workers_) {
      // atomically<TxT>() finds its descriptor through ThreadCtx::core.
      w.ctx->core = traced ? static_cast<void*>(w.shim.get()) : w.core;
      w.lat_ns.clear();
      w.spans = LayerTotals{};
      w.ops = 0;
      w.failed = 0;
    }
    std::atomic<Clock::rep> deadline{0};
    const auto length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    const semstm::sched::RealResult rr =
        semstm::sched::run_threads(W::kThreads, [&](unsigned tid) {
          Worker& w = workers_[tid];
          semstm::CtxBinder bind(*w.ctx);
          Clock::time_point stop = Clock::time_point::max();
          if (seconds > 0.0) {
            Clock::rep first = 0;
            const Clock::rep mine =
                (Clock::now() + length).time_since_epoch().count();
            stop = Clock::time_point(Clock::duration(
                deadline.compare_exchange_strong(first, mine) ? mine : first));
          }
          if (traced) {
            loop<TracedTx<Core>>(tid, w, ops, stop);
          } else {
            loop<Core>(tid, w, ops, stop);
          }
        });

    Chunk c;
    c.wall_s = rr.seconds;
    c.delta = stats();
    c.delta -= before;
    c.wasted_accesses = wasted_accesses() - wasted_before;
    std::vector<std::uint64_t> lat;
    std::uint64_t min_ops = workers_[0].ops;
    std::uint64_t max_ops = workers_[0].ops;
    double cpu_s = 0.0;
    double wall_s = 0.0;
    for (const Worker& w : workers_) {
      cpu_s += w.cpu_s;
      wall_s += w.wall_s;
      c.ops += w.ops;
      c.failed += w.failed;
      c.spans += w.spans;
      lat.insert(lat.end(), w.lat_ns.begin(), w.lat_ns.end());
      min_ops = std::min(min_ops, w.ops);
      max_ops = std::max(max_ops, w.ops);
    }
    if (cpu_s > 0.0 && wall_s > 0.0) {
      c.cpu_share = std::min(1.0, cpu_s / wall_s);
    }
    c.p50_us = percentile(lat, 0.50) / 1e3;
    c.p99_us = percentile(lat, 0.99) / 1e3;
    c.skew_pct = 100.0 * (1.0 - ratio(static_cast<double>(min_ops),
                                      static_cast<double>(max_ops)));
    return c;
  }

  /// One thread's share of a chunk. Each op is timed with two clock reads;
  /// the second also serves the deadline check.
  template <typename TxT>
  void loop(unsigned tid, Worker& w, std::uint64_t ops,
            Clock::time_point stop) {
    const double cpu0 = thread_cpu_seconds();
    const Clock::time_point start = Clock::now();
    Clock::time_point t1;
    do {
      const bool sample = kIsTraced<TxT> && w.op_seq++ % kTraceEvery == 0;
      const Clock::time_point t0 = Clock::now();
      if (sample) w.rec.start_op();
      bool done = true;
      try {
        wl_->template op<TxT>(tid, w.rng, w.counters);
        if (sample) w.rec.end_op();
      } catch (...) {
        done = false;
        ++w.failed;
        w.rec.abandon_op();
      }
      t1 = Clock::now();
      if (sample && done) w.rec.fold(w.spans);
      w.lat_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    } while (++w.ops < ops && t1 < stop);
    w.cpu_s = thread_cpu_seconds() - cpu0;
    w.wall_s = seconds_since(start);
  }

  semstm::SplitMix64 seeder_;
  std::unique_ptr<semstm::Algorithm> algo_;
  std::unique_ptr<W> wl_;
  std::array<Worker, W::kThreads> workers_;
};

template <typename W>
std::unique_ptr<Series> make_series(const char* algo, std::uint64_t seed) {
  return semstm::dispatch_algorithm(
      semstm::algo_id(algo), [&](auto tag) -> std::unique_ptr<Series> {
        using Core = typename decltype(tag)::tx_type;
        return std::make_unique<SeriesImpl<Core, W>>(algo, seed);
      });
}

// -- Host speed -------------------------------------------------------------

/// A fixed probe of how fast the host runs code like the library's, taken
/// between chunks while no library thread runs. On a shared host the speed
/// of a core changes by up to a fifth over minutes while the CPU share stays
/// at 1 (README.md, "Host noise"), and it moves every algorithm alike. Each
/// thread looks up random absent keys in its own open-addressing table of
/// 4096 cells, 80% full: short loops with unpredictable branches over an
/// L1/L2-resident array, like the library's probe and barrier code. No
/// library code runs in it, so a change to the library cannot move it.
class HostSpeed {
 public:
  /// Lookups per thread-CPU-second on the 4-vCPU Intel Xeon VM the bounds
  /// were set on; the end-to-end metrics are scaled to this speed.
  static constexpr double kNominalLookupsPerS = 33e6;

  explicit HostSpeed(unsigned threads) : tables_(threads) {
    std::uint64_t state = 0x5EED;
    for (Table& t : tables_) {
      t.cells.assign(kCells, kFree);
      for (unsigned n = 0; n < kKeys; ++n) {
        const std::uint64_t key = splitmix(state) | 1;  // odd: stored keys
        std::size_t i = home(key);
        while (t.cells[i] != kFree) i = (i + 1) % kCells;
        t.cells[i] = key;
      }
    }
  }

  /// One measurement on every thread at once.
  void sample() {
    std::atomic<std::uint64_t> cpu_ns{0};
    semstm::sched::run_threads(tables_.size(), [&](unsigned tid) {
      Table& t = tables_[tid];
      const double cpu0 = thread_cpu_seconds();
      std::uint64_t sum = 0;
      for (unsigned n = 0; n < kLookupsPerSample; ++n) {
        const std::uint64_t key = splitmix(t.state) & ~std::uint64_t{1};
        std::size_t i = home(key);
        while (t.cells[i] != kFree && t.cells[i] != key) i = (i + 1) % kCells;
        sum += i;
      }
      t.sink += sum;
      cpu_ns += static_cast<std::uint64_t>(
          1e9 * (thread_cpu_seconds() - cpu0));
    });
    rates_.push_back(ratio(
        static_cast<double>(kLookupsPerSample) *
            static_cast<double>(tables_.size()),
        1e-9 * static_cast<double>(cpu_ns.load())));
  }

  /// Lookups per thread-CPU-second, averaged over the samples.
  double rate() const { return mean(rates_); }
  /// This run's host speed relative to the nominal one.
  double factor() const { return rate() / kNominalLookupsPerS; }

 private:
  static constexpr std::size_t kCells = 4096;
  static constexpr unsigned kKeys = 3300;
  static constexpr unsigned kLookupsPerSample = 200000;  // about 6 ms
  static constexpr std::uint64_t kFree = 0;

  /// SplitMix64, kept here so that no library code runs in the probe.
  static std::uint64_t splitmix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  static std::size_t home(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 52);
  }

  struct Table {
    std::vector<std::uint64_t> cells;
    std::uint64_t state = 0xC0FFEE;  // even keys: never stored
    std::uint64_t sink = 0;  // keeps the lookups from being optimised away
  };
  std::vector<Table> tables_;
  std::vector<double> rates_;
};

// -- Reporting ----------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  const std::string& json() const { return body_; }

 private:
  std::string body_;
};

/// Per commit, over the first or the last quarter of a series' chunks.
struct Window {
  double accesses = 0.0;  ///< made by committed attempts: the program's work
  double attempts = 0.0;
};

Window quarter(const std::vector<Chunk>& chunks, bool last) {
  const std::size_t q = std::max<std::size_t>(1, chunks.size() / 4);
  TxStats s;
  std::uint64_t wasted = 0;
  for (std::size_t i = 0; i < q; ++i) {
    const Chunk& c = chunks[last ? chunks.size() - 1 - i : i];
    s += c.delta;
    wasted += c.wasted_accesses;
  }
  const auto commits = static_cast<double>(s.commits);
  return {ratio(static_cast<double>(accesses(s) - wasted), commits),
          ratio(static_cast<double>(s.starts), commits)};
}

/// The half of a series' chunks in which its threads ran for the largest
/// share of the wall time. On a shared host, other load takes CPUs away in
/// bursts (per-chunk shares from 0.17 to 1.0 were seen); a chunk that lost
/// its CPUs measures the host, not the library.
std::vector<Chunk> least_disturbed(std::vector<Chunk> chunks) {
  std::sort(chunks.begin(), chunks.end(), [](const Chunk& a, const Chunk& b) {
    return a.cpu_share > b.cpu_share;
  });
  chunks.resize((chunks.size() + 1) / 2);
  return chunks;
}

std::vector<double> each(const std::vector<Chunk>& chunks,
                         double (*f)(const Chunk&)) {
  std::vector<double> out;
  out.reserve(chunks.size());
  for (const Chunk& c : chunks) out.push_back(f(c));
  return out;
}

void add_layer_metrics(Metrics& m, const std::string& a,
                       const std::vector<Chunk>& plain,
                       const std::vector<Chunk>& traced, double ns_per_tick) {
  using semstm::obs::AbortCause;
  TxStats s;  // counters from the untraced chunks
  for (const Chunk& c : plain) s += c.delta;
  LayerTotals t;  // spans from the traced chunks
  for (const Chunk& c : traced) t += c.spans;
  const auto commits = static_cast<double>(s.commits);
  const auto per_commit = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), commits);
  };
  const auto per_kcommit = [&](std::uint64_t n) { return 1e3 * per_commit(n); };
  const auto traced_ops = static_cast<double>(t.ops);  // one commit each
  const auto ns_per_op = [&](std::uint64_t ticks) {
    return ratio(static_cast<double>(ticks) * ns_per_tick, traced_ops);
  };
  const auto self_ns = [&](Layer l) {
    return ratio(static_cast<double>(t.self_of(l)) * ns_per_tick,
                 static_cast<double>(t.calls_of(l)));
  };
  const auto incl_ns = [&](Layer l) {
    return ratio(static_cast<double>(t.incl_of(l)) * ns_per_tick,
                 static_cast<double>(t.calls_of(l)));
  };

  m.add("core.attempts_per_commit." + a, per_commit(s.starts), "count");
  m.add("core.wasted_ns_per_commit." + a, ns_per_op(t.aborted_attempts), "ns");
  m.add("algos.begin_ns." + a, self_ns(Layer::kBegin), "ns");
  m.add("algos.commit_ns." + a, self_ns(Layer::kCommit), "ns");
  m.add("algos.rollback_ns." + a, self_ns(Layer::kRollback), "ns");
  m.add("algos.read_ns." + a, self_ns(Layer::kRead), "ns");
  m.add("algos.write_ns." + a, self_ns(Layer::kWrite), "ns");
  m.add("algos.cmp_ns." + a, self_ns(Layer::kCmp), "ns");
  m.add("algos.inc_ns." + a, self_ns(Layer::kInc), "ns");
  m.add("algos.reads_per_commit." + a, per_commit(s.reads), "count");
  m.add("algos.writes_per_commit." + a, per_commit(s.writes), "count");
  m.add("algos.cmps_per_commit." + a, per_commit(s.compares + s.compares2),
        "count");
  m.add("algos.incs_per_commit." + a, per_commit(s.increments), "count");
  m.add("algos.promotions_per_commit." + a, per_commit(s.promotions),
        "count");
  m.add("algos.abort.read_validation_per_kcommit." + a,
        per_kcommit(s.abort_cause(AbortCause::kReadValidation)), "count");
  m.add("algos.abort.write_lock_conflict_per_kcommit." + a,
        per_kcommit(s.abort_cause(AbortCause::kWriteLockConflict)), "count");
  m.add("algos.abort.cmp_revalidation_per_kcommit." + a,
        per_kcommit(s.abort_cause(AbortCause::kCmpRevalidation)), "count");
  m.add("runtime.validations_per_commit." + a, per_commit(s.validations),
        "count");
  m.add("runtime.validate_entries_per_commit." + a,
        per_commit(s.validate_entries), "count");
  m.add("runtime.readset_dup_frac." + a,
        ratio(static_cast<double>(s.readset_dups),
              static_cast<double>(s.readset_adds + s.readset_dups)),
        "ratio");
  m.add("runtime.clock_adoptions_per_kcommit." + a,
        per_kcommit(s.clock_adoptions), "count");
  m.add("runtime.fallbacks_per_kcommit." + a, per_kcommit(s.fallbacks),
        "count");
  m.add("runtime.backoff_ns_per_commit." + a,
        ns_per_op(t.self_of(Layer::kBackoff)), "ns");
  m.add("containers.self_ns_per_commit." + a,
        ns_per_op(t.self_of(Layer::kAttempt) + t.self_of(Layer::kHtInsert) +
                  t.self_of(Layer::kHtRemove) +
                  t.self_of(Layer::kHtContains)),
        "ns");
  m.add("containers.ht_insert_ns." + a, incl_ns(Layer::kHtInsert), "ns");
  m.add("containers.ht_remove_ns." + a, incl_ns(Layer::kHtRemove), "ns");
  m.add("containers.ht_contains_ns." + a, incl_ns(Layer::kHtContains), "ns");
  m.add("workloads.outside_tx_ns_per_op." + a, ns_per_op(t.self_of(Layer::kOp)),
        "ns");
  m.add("sched.finish_skew_pct." + a,
        median(each(plain, [](const Chunk& c) { return c.skew_pct; })), "%");
  const auto cps = [](const Chunk& c) { return c.commits_per_s(); };
  const double plain_cps = mean(each(least_disturbed(plain), cps));
  const double traced_cps = mean(each(least_disturbed(traced), cps));
  m.add("trace.overhead_pct." + a, 100.0 * (1.0 - ratio(traced_cps, plain_cps)),
        "%");
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

template <typename W>
int run(const Options& o) {
  // Workload set-up is single-threaded and independent per series, so the
  // four run side by side; the warm-up chunks then run one at a time.
  std::vector<std::unique_ptr<Series>> series(kAlgos.size());
  semstm::sched::run_threads(kAlgos.size(), [&](unsigned i) {
    series[i] = make_series<W>(kAlgos[i], o.seed);
  });
  for (const auto& s : series) s->warm_up();

  // Timed phase: rounds of one chunk per series (two when tracing: one
  // untraced, one traced), the starting series rotating each round, so
  // host-speed changes fall on all four algorithms alike.
  std::vector<std::vector<Chunk>> plain(kAlgos.size());
  std::vector<std::vector<Chunk>> traced(kAlgos.size());
  HostSpeed host(W::kThreads);
  const TickCalibration calibration;
  const Clock::time_point t0 = Clock::now();
  for (unsigned round = 0;
       round < kMinRounds || seconds_since(t0) < o.seconds; ++round) {
    for (std::size_t k = 0; k < kAlgos.size(); ++k) {
      const std::size_t i = (round + k) % kAlgos.size();
      plain[i].push_back(series[i]->run_chunk(false));
      if (o.trace) traced[i].push_back(series[i]->run_chunk(true));
    }
    host.sample();
  }
  const double ns_per_tick = calibration.finish();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < kAlgos.size(); ++i) {
    const std::string a = kAlgos[i];
    if (std::string e = series[i]->check(); !e.empty()) {
      errors.push_back(a + ": " + e);
    }
    std::uint64_t miscounted = 0;
    std::uint64_t bad_spans = 0;
    for (const auto* chunks : {&plain[i], &traced[i]}) {
      for (const Chunk& c : *chunks) {
        attempted += c.ops;
        failed += c.failed;
        miscounted += c.delta.commits != c.ops - c.failed;
        bad_spans += c.spans.bad_ops;
      }
    }
    if (miscounted != 0) {
      errors.push_back(a + ": commits differ from completed ops in " +
                       std::to_string(miscounted) + " chunks");
    }
    if (bad_spans != 0) {
      errors.push_back(a + ": " + std::to_string(bad_spans) +
                       " traced ops failed the span-partition check");
    }
    // Stationarity: the first and last quarter ran the same program.
    // Aborted attempts are left out, so contention does not count as drift.
    const Window head = quarter(plain[i], false);
    const Window tail = quarter(plain[i], true);
    const double drift = ratio(tail.accesses - head.accesses, head.accesses);
    std::printf(
        "# %-6s %zu chunks; first -> last quarter: accesses/commit %.2f "
        "(%+.2f%%), attempts/commit %.4f -> %.4f\n",
        a.c_str(), plain[i].size(), head.accesses, 100.0 * drift,
        head.attempts, tail.attempts);
    if (std::abs(drift) > kDriftTolerance) {
      errors.push_back(a + ": not stationary, accesses/commit drifted " +
                       std::to_string(100.0 * drift) + "%");
    }
  }

  Metrics m;
  if (o.trace) {
    for (std::size_t i = 0; i < kAlgos.size(); ++i) {
      add_layer_metrics(m, kAlgos[i], plain[i], traced[i], ns_per_tick);
    }
  } else {
    // Times and rates at the nominal host speed: a run on a host running
    // at 0.8 of it has its rates divided and its times multiplied by 0.8.
    const double speed = host.factor();
    std::printf("# host speed %.3f of nominal (%.1fM lookups/s per thread)\n",
                speed, host.rate() / 1e6);
    std::vector<double> setups;
    for (std::size_t i = 0; i < kAlgos.size(); ++i) {
      const std::string a = kAlgos[i];
      const std::vector<Chunk> c = least_disturbed(plain[i]);
      const double cps =
          mean(each(c, [](const Chunk& x) { return x.commits_per_s(); }));
      const double p50 = mean(each(c, [](const Chunk& x) { return x.p50_us; }));
      const double p99 = mean(each(c, [](const Chunk& x) { return x.p99_us; }));
      const double share =
          median(each(plain[i], [](const Chunk& x) { return x.cpu_share; }));
      std::printf(
          "# %-6s as run: commits/s %.0f  p50 %.2f us  p99 %.2f us  "
          "setup %.3f s  cpu share %.2f\n",
          a.c_str(), cps, p50, p99, series[i]->setup_s, share);
      m.add("commits_per_s." + a, ratio(cps, speed), "1/s");
      m.add("op_p50_us." + a, p50 * speed, "us");
      m.add("op_p99_us." + a, p99 * speed, "us");
      setups.push_back(series[i]->setup_s);
    }
    m.add("setup_s", median(setups) * speed, "s");
  }

  for (const std::string& e : errors) {
    std::printf("# FAILED %s\n", e.c_str());
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }
  const bool correct = errors.empty() && failed == 0;
  if (!errors.empty()) failed = attempted;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.json().c_str());
  return 0;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hashtable-4t|bank-4t|vacation-1t --seed N --seconds S "
               "--trace 0|1\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      have[1] = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      have[2] = end != v && *end == '\0' && o.seconds > 0.0;
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have[3] = o.trace || std::strcmp(v, "0") == 0;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0 || !have[0] || !have[1] || !have[2] || !have[3]) {
    return usage("missing or malformed arguments");
  }
  // Numbers from a debug build, or one that records latency histograms on
  // the hot path, would not describe the library users run.
  if (!kOptimized || semstm::obs::kTraceEnabled) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure: build must be optimised "
                 "with NDEBUG and without SEMSTM_TRACE\n");
    return 3;
  }
  std::printf(
      "# context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", \"build_type\": "
      "\"%s\"}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, std::thread::hardware_concurrency(),
      cpu_model().c_str(), PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);
  try {
    if (o.workload == "hashtable-4t") return run<Hashtable>(o);
    if (o.workload == "bank-4t") return run<Bank>(o);
    if (o.workload == "vacation-1t") return run<Vacation>(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage(("unknown workload " + o.workload).c_str());
}
