// Observability-layer tests (src/obs):
//
//  - TraceRing: SPSC semantics — FIFO order, wrap-around, overflow-drop
//    accounting, and a real-thread concurrent drain.
//  - LatencyHistogram: power-of-two bucket edges, percentile clamping and
//    single-writer-then-merge aggregation.
//  - Abort-cause attribution: every cause in the histogram is forced
//    deterministically, per algorithm, by driving two descriptor cores
//    directly on one thread (plus one real thread for the serial-gate
//    preemption case).
//  - TraceExporter: synthetic events render to parseable Chrome JSON and a
//    flame summary; an end-to-end driver run with a ring bound fills the
//    rings and the latency histograms.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/norec.hpp"
#include "algos/snorec.hpp"
#include "algos/stl2.hpp"
#include "algos/tl2.hpp"
#include "obs/abort_cause.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_ring.hpp"
#include "semstm.hpp"
#include "workloads/mono.hpp"

namespace semstm {
namespace {

using obs::AbortCause;
using obs::EventKind;
using obs::LatencyHistogram;
using obs::TraceEvent;
using obs::TraceRing;

// ---------------------------------------------------------------------------
// TraceRing.
// ---------------------------------------------------------------------------

TEST(TraceRing, FifoOrderAndOverflowDrop) {
  TraceRing ring(2);  // capacity 4
  ASSERT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.push(TraceEvent{.ts = i}));
  }
  // Full: pushes drop (and are counted) instead of blocking or overwriting.
  EXPECT_FALSE(ring.push(TraceEvent{.ts = 99}));
  EXPECT_FALSE(ring.push(TraceEvent{.ts = 100}));
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.size(), 4u);

  TraceEvent e;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.pop(e));
    EXPECT_EQ(e.ts, i) << "FIFO order violated";
  }
  EXPECT_FALSE(ring.pop(e)) << "ring should be empty";
}

TEST(TraceRing, WrapAroundPreservesOrder) {
  TraceRing ring(2);  // capacity 4: 100 events force many index wraps
  TraceEvent e;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.push(TraceEvent{.ts = i, .dur = i * 2}));
    ASSERT_TRUE(ring.pop(e));
    EXPECT_EQ(e.ts, i);
    EXPECT_EQ(e.dur, i * 2);
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, ConcurrentProducerConsumerDrain) {
  TraceRing ring(8);  // capacity 256, small enough to see backpressure
  constexpr std::uint64_t kTotal = 200000;
  std::atomic<bool> done{false};

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) {
      ring.push(TraceEvent{.ts = i});  // may drop; never blocks
    }
    done.store(true, std::memory_order_release);
  });

  // Consumer: timestamps must arrive strictly increasing even though the
  // producer runs concurrently (drops only remove, never reorder).
  std::uint64_t received = 0;
  std::uint64_t last = 0;
  bool first = true;
  TraceEvent e;
  for (;;) {
    if (ring.pop(e)) {
      if (!first) EXPECT_GT(e.ts, last);
      last = e.ts;
      first = false;
      ++received;
    } else if (done.load(std::memory_order_acquire) && ring.empty()) {
      break;
    }
  }
  producer.join();
  EXPECT_EQ(received + ring.dropped(), kTotal);
  EXPECT_GT(received, 0u);
}

// ---------------------------------------------------------------------------
// LatencyHistogram.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, BucketEdges) {
  // Bucket 0 holds exact zeros; bucket i >= 1 covers [2^(i-1), 2^i - 1].
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(7), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(8), 4u);
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}), 64u);

  EXPECT_EQ(LatencyHistogram::bucket_upper(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(2), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(3), 7u);
  EXPECT_EQ(LatencyHistogram::bucket_upper(64), ~std::uint64_t{0});

  LatencyHistogram h;
  for (std::uint64_t v : {0, 1, 2, 3, 4, 7, 8}) h.record(v);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 2u);
  EXPECT_EQ(h.buckets[4], 1u);
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 8u);
}

TEST(LatencyHistogram, PercentilesApproximateFromAbove) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(50), 0u) << "empty histogram reports 0";
  for (std::uint64_t v : {1, 2, 3, 100}) h.record(v);
  EXPECT_EQ(h.percentile(0), 1u) << "p0 is the observed min";
  // p50 rank = 2nd sample (value 2, bucket [2,3]) -> bucket upper bound 3.
  EXPECT_EQ(h.percentile(50), 3u);
  // p100 lands in bucket [64,127] but clamps to the observed max.
  EXPECT_EQ(h.percentile(100), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 4.0);
}

TEST(LatencyHistogram, MergeMatchesSingleWriterAggregation) {
  LatencyHistogram a, b, merged;
  for (std::uint64_t v : {1, 5, 9}) { a.record(v); merged.record(v); }
  for (std::uint64_t v : {0, 70}) { b.record(v); merged.record(v); }
  a += b;
  EXPECT_EQ(a.count, merged.count);
  EXPECT_EQ(a.sum, merged.sum);
  EXPECT_EQ(a.min, merged.min);
  EXPECT_EQ(a.max, merged.max);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.buckets[i], merged.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(a.percentile(99), merged.percentile(99));
}

TEST(ScopedLatency, RecordsOnlyIntoAGivenHistogram) {
  LatencyHistogram h;
  { obs::ScopedLatency lat(&h); }
  EXPECT_EQ(h.count, 1u);
  { obs::ScopedLatency lat(nullptr); }  // unobserved: records nowhere
  EXPECT_EQ(h.count, 1u);
}

// ---------------------------------------------------------------------------
// Abort-cause attribution, forced deterministically per algorithm. All
// conflicts are staged with two descriptors driven from one thread (the
// algorithms only block on *locked* state, never on mere version moves).
// ---------------------------------------------------------------------------

/// Run `f` expecting a TxAbort; returns the aborted descriptor's
/// attribution after rolling it back.
template <typename TxT, typename F>
obs::AbortInfo expect_abort(TxT& tx, F&& f) {
  [&] {  // EXPECT_THROW needs a void-returning callable
    EXPECT_THROW(f(), TxAbort);
  }();
  const obs::AbortInfo info = tx.last_abort();
  tx.rollback();
  return info;
}

TEST(AbortCause, NorecReadValidation) {
  NorecAlgorithm algo;
  NorecCore tx1(algo), tx2(algo);
  TVar<long> x(1), y(2);

  tx1.begin();
  EXPECT_EQ(tx1.read(x.word()), 1u);  // value entry for x joins the read-set

  tx2.begin();
  tx2.write(x.word(), 42);
  tx2.commit();  // bumps the seqlock: tx1's next read must revalidate

  const obs::AbortInfo info =
      expect_abort(tx1, [&] { tx1.read(y.word()); });
  EXPECT_EQ(info.cause, AbortCause::kReadValidation);
  EXPECT_EQ(info.addr, x.word()) << "conflicting address must be reported";
}

TEST(AbortCause, SnorecCmpRevalidation) {
  SnorecAlgorithm algo;
  SnorecCore tx1(algo), tx2(algo);
  TVar<long> x(10), y(0);

  tx1.begin();
  EXPECT_TRUE(tx1.cmp(x.word(), Rel::SGT, 5));  // semantic entry: x > 5

  tx2.begin();
  tx2.write(x.word(), 0);  // flips the recorded outcome
  tx2.commit();

  const obs::AbortInfo info =
      expect_abort(tx1, [&] { tx1.read(y.word()); });
  EXPECT_EQ(info.cause, AbortCause::kCmpRevalidation)
      << "a flipped cmp outcome must not be misfiled as a value failure";
  EXPECT_EQ(info.addr, x.word());
}

TEST(AbortCause, SnorecSurvivingCmpIsNotAnAbort) {
  // Counter-case: a write that does NOT flip the outcome must not abort —
  // the attribution machinery must not turn semantic tolerance into
  // spurious kCmpRevalidation.
  SnorecAlgorithm algo;
  SnorecCore tx1(algo), tx2(algo);
  TVar<long> x(10), y(0);

  tx1.begin();
  EXPECT_TRUE(tx1.cmp(x.word(), Rel::SGT, 5));

  tx2.begin();
  tx2.write(x.word(), 7);  // still > 5
  tx2.commit();

  EXPECT_NO_THROW(tx1.read(y.word()));
  EXPECT_NO_THROW(tx1.commit());
}

TEST(AbortCause, NorecClockOverflow) {
  NorecAlgorithm algo;
  NorecCore tx(algo);
  TVar<long> x(0);
  // Park the seqlock at the last even timestamp: committing from this
  // snapshot would wrap through odd into 0.
  algo.lock().set_for_test(~std::uint64_t{0} - 1);

  tx.begin();
  tx.write(x.word(), 1);
  const obs::AbortInfo info = expect_abort(tx, [&] { tx.commit(); });
  EXPECT_EQ(info.cause, AbortCause::kClockOverflow);
}

TEST(AbortCause, Tl2ReadValidation) {
  Tl2Algorithm algo;
  Tl2Core tx1(algo), tx2(algo);
  TVar<long> x(1);

  tx1.begin();  // start version 0

  tx2.begin();
  tx2.write(x.word(), 42);
  tx2.commit();  // x's orec version becomes 1 > tx1's snapshot

  const obs::AbortInfo info =
      expect_abort(tx1, [&] { tx1.read(x.word()); });
  EXPECT_EQ(info.cause, AbortCause::kReadValidation);
  EXPECT_EQ(info.addr, x.word());
}

TEST(AbortCause, Tl2WriteLockConflict) {
  Tl2Algorithm algo;
  Tl2Core tx1(algo), tx2(algo);
  TVar<long> x(1);

  // Stage a concurrent committer mid-write-back: its lock on x's orec.
  Orec& o = algo.orecs().of(x.word());
  ASSERT_TRUE(o.try_lock(&tx2));

  tx1.begin();
  const obs::AbortInfo info =
      expect_abort(tx1, [&] { tx1.read(x.word()); });
  EXPECT_EQ(info.cause, AbortCause::kWriteLockConflict);
  EXPECT_EQ(info.addr, x.word());
  o.unlock(&tx2);
}

TEST(AbortCause, Tl2CommitValidationFailure) {
  Tl2Algorithm algo;
  Tl2Core tx1(algo), tx2(algo);
  TVar<long> x(1), y(2);

  tx1.begin();
  EXPECT_EQ(tx1.read(x.word()), 1u);
  tx1.write(y.word(), 9);

  tx2.begin();
  tx2.write(x.word(), 42);
  tx2.commit();

  const obs::AbortInfo info = expect_abort(tx1, [&] { tx1.commit(); });
  EXPECT_EQ(info.cause, AbortCause::kReadValidation);
  EXPECT_NE(info.addr, nullptr) << "the stale orec must be reported";
  EXPECT_EQ(info.addr, &algo.orecs().of(x.word()));
}

TEST(AbortCause, Tl2ClockOverflow) {
  Tl2Algorithm algo;
  Tl2Core tx(algo);
  TVar<long> x(0);
  algo.clock().set_for_test(~std::uint64_t{0});  // fetch_increment wraps to 0

  tx.begin();
  tx.write(x.word(), 1);
  const obs::AbortInfo info = expect_abort(tx, [&] { tx.commit(); });
  EXPECT_EQ(info.cause, AbortCause::kClockOverflow);
}

TEST(AbortCause, Stl2CmpRevalidation) {
  Stl2Algorithm algo;
  Stl2Core tx1(algo), tx2(algo);
  TVar<long> x(10), w(0);

  tx1.begin();
  EXPECT_TRUE(tx1.cmp(x.word(), Rel::SGT, 5));  // compare-set entry
  tx1.write(w.word(), 1);                       // force commit validation

  tx2.begin();
  tx2.write(x.word(), 0);  // flips the outcome, advances the clock
  tx2.commit();

  const obs::AbortInfo info = expect_abort(tx1, [&] { tx1.commit(); });
  EXPECT_EQ(info.cause, AbortCause::kCmpRevalidation);
  EXPECT_EQ(info.addr, x.word());
}

TEST(AbortCause, Stl2ClockOverflow) {
  Stl2Algorithm algo;
  Stl2Core tx(algo);
  TVar<long> x(0);
  algo.clock().set_for_test(~std::uint64_t{0});

  tx.begin();
  tx.write(x.word(), 1);
  const obs::AbortInfo info = expect_abort(tx, [&] { tx.commit(); });
  EXPECT_EQ(info.cause, AbortCause::kClockOverflow);
}

TEST(AbortCause, SerialGatePreemptReclassifiesConflicts) {
  // While another transaction holds (or is draining into) the serial
  // token, an ordinary conflict abort is attributed to the gate: the root
  // cause is the quiescing serial transaction, not the conflicting write.
  NorecAlgorithm algo;
  NorecCore tx1(algo);
  TVar<long> x(1), y(2);
  int token_holder = 0;
  SerialGate* gate = tx1.serial_gate();
  ASSERT_NE(gate, nullptr);

  tx1.begin();
  EXPECT_EQ(tx1.read(x.word()), 1u);

  // The acquirer claims the token immediately, then spins until tx1 (the
  // only in-flight transaction) drains — which happens at rollback below.
  std::thread acquirer([&] {
    gate->acquire(&token_holder);
    gate->release();
  });
  while (!gate->held()) std::this_thread::yield();

  // Stage a conflicting commit directly on the seqlock (a second core
  // could not: its begin() would block on the held gate).
  ASSERT_TRUE(algo.lock().try_lock(0));
  x.unsafe_set(42);
  algo.lock().unlock(1);

  const obs::AbortInfo info =
      expect_abort(tx1, [&] { tx1.read(y.word()); });
  EXPECT_EQ(info.cause, AbortCause::kSerialGatePreempt);
  acquirer.join();
  EXPECT_FALSE(gate->held());
}

TEST(AbortCause, UserAbortCountsAsAbortAndRetries) {
  for (const std::string& name : algorithm_names()) {
    SCOPED_TRACE(name);
    auto algo = make_algorithm(name);
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    TVar<long> x(0);

    bool aborted_once = false;
    atomically([&](auto& tx) {
      x.set(tx, 7);
      if (!aborted_once) {
        aborted_once = true;
        tx.user_abort();  // retried, not abandoned
      }
    });
    const TxStats& s = ctx.tx->stats;
    EXPECT_EQ(s.commits, 1u);
    EXPECT_EQ(s.aborts, 1u);
    EXPECT_EQ(s.abort_cause(AbortCause::kUserAbort), 1u);
    EXPECT_EQ(x.unsafe_get(), 7);
  }
}

// ---------------------------------------------------------------------------
// Accounting invariant under real contention: aborts == sum(abort_causes)
// and nothing lands in the kUnknown bucket (every abort path is tagged).
// ---------------------------------------------------------------------------

struct ContendedWorkload final : MonoWorkload<ContendedWorkload> {
  TVar<long> a{0}, b{0};
  template <typename TxT>
  void op_t(unsigned, Rng&) {
    atomically<TxT>([&](TxT& tx) {
      const long v = a.get(tx);
      b.set(tx, v + 1);
      a.set(tx, a.get(tx) + 1);
    });
  }
};

TEST(AbortAccounting, CauseHistogramSumsToAborts) {
  for (const char* name : {"norec", "snorec", "tl2", "stl2"}) {
    SCOPED_TRACE(name);
    ContendedWorkload w;
    RunConfig cfg;
    cfg.algo = name;
    cfg.threads = 8;
    cfg.ops_per_thread = 500;
    cfg.sim_quantum = 16;  // interleave mid-transaction to force conflicts
    const RunResult r = run_workload(cfg, w);

    EXPECT_GT(r.stats.aborts, 0u) << "rig failed to generate contention";
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
      sum += r.stats.abort_causes[c];
    }
    EXPECT_EQ(r.stats.aborts, sum);
    EXPECT_EQ(r.stats.abort_cause(AbortCause::kUnknown), 0u)
        << "an abort path escaped attribution";
    EXPECT_EQ(r.stats.starts,
              r.stats.commits + r.stats.aborts + r.stats.exceptions);
  }
}

// ---------------------------------------------------------------------------
// TraceExporter: synthetic events (build-independent) and, in traced
// builds, the full driver -> collector -> Chrome JSON path.
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TraceExporter, SyntheticEventsRenderToChromeJson) {
  obs::TraceCollector col(4);
  col.prepare(2);
  col.ring(0).push(TraceEvent{.ts = 10, .kind = EventKind::kBegin});
  col.ring(0).push(TraceEvent{.ts = 30, .dur = 20, .kind = EventKind::kCommit});
  col.ring(1).push(TraceEvent{.ts = 12, .kind = EventKind::kBegin});
  col.ring(1).push(TraceEvent{.ts = 25,
                              .dur = 13,
                              .addr = &col,
                              .kind = EventKind::kAbort,
                              .cause = AbortCause::kReadValidation});

  obs::TraceExporter exporter;
  EXPECT_EQ(exporter.add_run("unit/2t", col), 4u);
  EXPECT_EQ(exporter.event_count(), 4u);
  EXPECT_TRUE(col.ring(0).empty()) << "add_run must drain the rings";

  const std::string path = testing::TempDir() + "semstm_obs_unit.json";
  ASSERT_TRUE(exporter.write_chrome(path));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("unit/2t"), std::string::npos);
  EXPECT_NE(json.find("read_validation"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "commit/abort must render as complete events";

  const std::string flame = exporter.flame_summary();
  EXPECT_NE(flame.find("abort/read_validation"), std::string::npos);
  EXPECT_NE(flame.find("commit"), std::string::npos);
}

TEST(TraceEndToEnd, DriverPopulatesRingsWithAttributedEvents) {
  ContendedWorkload w;
  obs::TraceCollector col;
  RunConfig cfg;
  cfg.algo = "norec";
  cfg.threads = 4;
  cfg.ops_per_thread = 200;
  cfg.sim_quantum = 16;
  cfg.trace = &col;
  const RunResult r = run_workload(cfg, w);

  ASSERT_EQ(col.threads(), 4u);
  std::uint64_t begins = 0, commits = 0;
  for (unsigned t = 0; t < col.threads(); ++t) {
    EXPECT_GT(col.ring(t).size(), 0u) << "thread " << t << " traced nothing";
    TraceEvent e;
    std::uint64_t last_ts = 0;
    while (col.ring(t).pop(e)) {
      EXPECT_GE(e.ts, last_ts) << "per-thread events must be time-ordered";
      last_ts = e.ts;
      if (e.kind == EventKind::kBegin) ++begins;
      if (e.kind == EventKind::kCommit) ++commits;
      if (e.kind == EventKind::kAbort) {
        EXPECT_NE(e.cause, AbortCause::kUnknown)
            << "every traced abort must carry its cause";
      }
    }
  }
  // The rings are bounded: counts are <= the stats, never more.
  EXPECT_GT(begins, 0u);
  EXPECT_LE(begins, r.stats.starts);
  EXPECT_LE(commits, r.stats.commits);
  // A bound ring also makes the run fill the latency histograms.
  EXPECT_EQ(r.stats.lat_commit.count, r.stats.commits);
  EXPECT_GT(r.stats.lat_validate.count, 0u);
}

}  // namespace
}  // namespace semstm
