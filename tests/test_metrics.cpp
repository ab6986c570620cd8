// Contention-cartography tests (src/obs conflict map + windowed metrics):
//
//  - TxStats algebra: operator+= is associative and commutative over every
//    field (cause array and latency histograms included), and operator-=
//    window deltas sum exactly back to the run totals — the partition
//    invariant the metrics layer rests on (property-tested over random
//    single-writer histories).
//  - ConflictMap: keying (orec-tagged vs address-region), per-cause
//    counts, edge accounting, merge, bounded-capacity overflow, top-K
//    ranking determinism.
//  - Abort attribution: TL2-family aborts carry the conflicting orec index
//    and owner hint end-to-end through abort_tx (build-independent —
//    AbortInfo is always populated).
//  - End-to-end through the driver: a hot-skewed bank run's #1 hot site
//    is a known hot account; per-site counts never exceed per-cause
//    totals; merged windows reproduce run totals field-for-field; and
//    binding sinks to a simulated run changes none of its counters while
//    an unbound run records nothing beyond them.
//  - Reporting: MetricsWriter JSON-lines round-trip through
//    render_metrics_report, exit-status contract, sparkline scaling.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "algos/tl2.hpp"
#include "obs/conflict_map.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "semstm.hpp"
#include "util/rng.hpp"
#include "workloads/bank.hpp"
#include "workloads/driver.hpp"

namespace semstm {
namespace {

using obs::AbortCause;
using obs::ConflictMap;
using obs::LatencyHistogram;

// ---------------------------------------------------------------------------
// TxStats algebra.
// ---------------------------------------------------------------------------

bool hist_eq(const LatencyHistogram& a, const LatencyHistogram& b) {
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (a.buckets[i] != b.buckets[i]) return false;
  }
  return a.count == b.count && a.sum == b.sum && a.min == b.min &&
         a.max == b.max;
}

/// Every TxStats field except the latency histograms.
bool counters_eq(const TxStats& a, const TxStats& b) {
  if (a.starts != b.starts || a.commits != b.commits ||
      a.aborts != b.aborts || a.exceptions != b.exceptions ||
      a.fallbacks != b.fallbacks ||
      a.max_consec_aborts != b.max_consec_aborts || a.reads != b.reads ||
      a.writes != b.writes || a.compares != b.compares ||
      a.compares2 != b.compares2 || a.increments != b.increments ||
      a.promotions != b.promotions || a.validations != b.validations ||
      a.readset_adds != b.readset_adds || a.readset_dups != b.readset_dups ||
      a.validate_entries != b.validate_entries ||
      a.clock_adoptions != b.clock_adoptions) {
    return false;
  }
  for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
    if (a.abort_causes[c] != b.abort_causes[c]) return false;
  }
  return true;
}

bool stats_eq(const TxStats& a, const TxStats& b) {
  return counters_eq(a, b) && hist_eq(a.lat_commit, b.lat_commit) &&
         hist_eq(a.lat_validate, b.lat_validate) &&
         hist_eq(a.lat_backoff, b.lat_backoff) &&
         hist_eq(a.lat_gate, b.lat_gate);
}

/// A random but internally consistent TxStats block (every field
/// exercised, histograms populated through record()).
TxStats random_stats(Rng& rng) {
  TxStats s;
  s.commits = rng.below(100);
  s.aborts = rng.below(100);
  s.exceptions = rng.below(5);
  s.starts = s.commits + s.aborts + s.exceptions;
  s.fallbacks = rng.below(3);
  s.max_consec_aborts = rng.below(20);
  s.reads = rng.below(1000);
  s.writes = rng.below(1000);
  s.compares = rng.below(100);
  s.compares2 = rng.below(100);
  s.increments = rng.below(100);
  s.promotions = rng.below(10);
  s.validations = rng.below(200);
  s.readset_adds = rng.below(500);
  s.readset_dups = rng.below(500);
  s.validate_entries = rng.below(2000);
  std::uint64_t left = s.aborts;
  for (std::size_t c = 1; c < obs::kAbortCauseCount && left > 0; ++c) {
    const std::uint64_t n = rng.below(left + 1);
    s.abort_causes[c] += n;
    left -= n;
  }
  s.abort_causes[0] += left;
  for (std::uint64_t i = rng.below(50); i > 0; --i) {
    s.lat_commit.record(rng.below(1u << 20));
  }
  for (std::uint64_t i = rng.below(50); i > 0; --i) {
    s.lat_validate.record(rng.below(1u << 12));
  }
  for (std::uint64_t i = rng.below(20); i > 0; --i) {
    s.lat_backoff.record(rng.below(1u << 8));
  }
  for (std::uint64_t i = rng.below(5); i > 0; --i) {
    s.lat_gate.record(rng.below(1u << 16));
  }
  return s;
}

TEST(TxStatsAlgebra, PlusIsCommutative) {
  Rng rng(0xA11CE);
  for (int trial = 0; trial < 50; ++trial) {
    const TxStats a = random_stats(rng);
    const TxStats b = random_stats(rng);
    TxStats ab = a;
    ab += b;
    TxStats ba = b;
    ba += a;
    ASSERT_TRUE(stats_eq(ab, ba)) << "trial " << trial;
  }
}

TEST(TxStatsAlgebra, PlusIsAssociative) {
  Rng rng(0xB0B);
  for (int trial = 0; trial < 50; ++trial) {
    const TxStats a = random_stats(rng);
    const TxStats b = random_stats(rng);
    const TxStats c = random_stats(rng);
    TxStats left = a;  // (a + b) + c
    left += b;
    left += c;
    TxStats bc = b;  // a + (b + c)
    bc += c;
    TxStats right = a;
    right += bc;
    ASSERT_TRUE(stats_eq(left, right)) << "trial " << trial;
  }
}

TEST(TxStatsAlgebra, PlusIdentityAndAbortContract) {
  Rng rng(0x1D);
  const TxStats a = random_stats(rng);
  TxStats z;  // zero block
  z += a;
  EXPECT_TRUE(stats_eq(z, a)) << "zero must be the += identity";
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
    sum += a.abort_causes[c];
  }
  EXPECT_EQ(a.aborts, sum) << "random_stats must respect the contract";
}

// ---------------------------------------------------------------------------
// Windowed deltas: simulate a single-writer history, cut it into windows
// with WindowSeries, and check the deltas re-sum to the final totals
// EXACTLY (every field, histograms included). This is the invariant that
// makes per-window numbers trustworthy: nothing is lost or double-counted
// at window boundaries.
// ---------------------------------------------------------------------------

/// Mutate `s` as one attempt's worth of activity would.
void advance_stats(TxStats& s, Rng& rng) {
  ++s.starts;
  s.reads += rng.below(20);
  s.writes += rng.below(10);
  s.readset_adds += rng.below(8);
  s.validate_entries += rng.below(30);
  if (rng.percent(70)) {
    ++s.commits;
    s.lat_commit.record(rng.below(1u << 14));
    if (s.max_consec_aborts < 3 && rng.percent(10)) ++s.max_consec_aborts;
  } else {
    ++s.aborts;
    s.note_abort_cause(static_cast<AbortCause>(1 + rng.below(3)));
    s.lat_validate.record(rng.below(1u << 10));
    if (rng.percent(20) && s.max_consec_aborts < 40) ++s.max_consec_aborts;
  }
}

TEST(WindowSeries, DeltasSumBackToRunTotals) {
  Rng rng(0xD317A5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t width = 64 + rng.below(512);
    obs::WindowSeries series(width);
    TxStats cur;
    std::uint64_t now = rng.below(1000);
    const int attempts = 50 + static_cast<int>(rng.below(400));
    for (int i = 0; i < attempts; ++i) {
      advance_stats(cur, rng);
      now += 1 + rng.below(200);  // attempts end at increasing times
      series.sample(now, cur);
    }
    series.flush(cur);

    TxStats resummed;
    std::uint64_t last_window = 0;
    bool first = true;
    for (const obs::WindowSample& w : series.samples()) {
      if (!first) {
        EXPECT_GT(w.window, last_window) << "windows must be ordered";
      }
      last_window = w.window;
      first = false;
      resummed += w.delta;
    }
    ASSERT_TRUE(stats_eq(resummed, cur))
        << "trial " << trial << ": windows must partition the run exactly";
  }
}

TEST(WindowSeries, FlushIsIdempotentAndEmptyWindowsAreSkipped) {
  obs::WindowSeries series(100);
  TxStats cur;
  ++cur.starts;
  ++cur.commits;
  series.sample(50, cur);   // opens window 0
  series.sample(250, cur);  // crosses into window 2: closes window 0
  series.flush(cur);        // nothing new since: no extra sample
  series.flush(cur);
  ASSERT_EQ(series.samples().size(), 1u);
  EXPECT_EQ(series.samples()[0].window, 0u);
  EXPECT_EQ(series.samples()[0].delta.commits, 1u);
}

TEST(MetricsCollector, MergesThreadSeriesByAbsoluteWindow) {
  obs::MetricsCollector col(100);
  col.prepare(2);
  TxStats t0;
  ++t0.starts;
  ++t0.commits;
  col.series(0).sample(10, t0);
  ++t0.starts;
  ++t0.aborts;
  t0.note_abort_cause(AbortCause::kReadValidation);
  col.series(0).sample(350, t0);  // closes window 0 with both attempts
  col.series(0).flush(t0);

  TxStats t1;
  ++t1.starts;
  ++t1.commits;
  col.series(1).sample(320, t1);  // opens window 3
  col.series(1).flush(t1);

  // flush() on thread 0 closed window 3 (the open one) with an empty
  // delta — skipped; thread 1's flush pushed its window-3 delta.
  const std::vector<obs::WindowRow> rows = col.merged();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].window, 0u);
  EXPECT_EQ(rows[0].t0, 0u);
  EXPECT_EQ(rows[0].t1, 100u);
  EXPECT_EQ(rows[0].stats.commits, 1u);
  EXPECT_EQ(rows[0].stats.aborts, 1u);
  EXPECT_EQ(rows[1].window, 3u);
  EXPECT_EQ(rows[1].stats.commits, 1u);
}

// ---------------------------------------------------------------------------
// ConflictMap.
// ---------------------------------------------------------------------------

TEST(ConflictMapTest, RegionKeyGroupsByWordAndCountsByCause) {
  ConflictMap map(4);
  long a = 0, b = 0;
  map.record(AbortCause::kReadValidation, &a, obs::kNoOrec, nullptr);
  map.record(AbortCause::kReadValidation, &a, obs::kNoOrec, nullptr);
  map.record(AbortCause::kCmpRevalidation, &a, obs::kNoOrec, nullptr);
  map.record(AbortCause::kReadValidation, &b, obs::kNoOrec, nullptr);
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.overflow(), 0u);

  const auto top = obs::top_sites(map, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].addr, &a);
  EXPECT_EQ(top[0].total(), 3u);
  EXPECT_EQ(top[0].counts[static_cast<std::size_t>(
                AbortCause::kReadValidation)],
            2u);
  EXPECT_EQ(top[0].top_cause(), AbortCause::kReadValidation);
  EXPECT_EQ(top[1].addr, &b);
  EXPECT_EQ(top[1].total(), 1u);
}

TEST(ConflictMapTest, OrecKeyIsDistinctFromRegionKeyAndTracksEdges) {
  ConflictMap map(4);
  long x = 0;
  int owner_a = 0, owner_b = 0;
  // Same address, once orec-keyed and once region-keyed: two sites (an
  // orec index must never alias an address region).
  map.record(AbortCause::kWriteLockConflict, &x, 7, &owner_a);
  map.record(AbortCause::kReadValidation, &x, obs::kNoOrec, nullptr);
  map.record(AbortCause::kWriteLockConflict, &x, 7, &owner_b);
  ASSERT_EQ(map.size(), 2u);

  const auto top = obs::top_sites(map, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].orec, 7u);
  EXPECT_EQ(top[0].total(), 2u);
  EXPECT_EQ(top[0].edges, 2u) << "both records carried an owner";
  EXPECT_EQ(top[0].last_owner, &owner_b);
  EXPECT_EQ(top[1].orec, obs::kNoOrec);
  EXPECT_EQ(top[1].edges, 0u);
}

TEST(ConflictMapTest, MergeAccumulatesAcrossMaps) {
  ConflictMap a(4), b(4), merged(6);
  long x = 0, y = 0;
  a.record(AbortCause::kReadValidation, &x, obs::kNoOrec, nullptr);
  a.record(AbortCause::kWriteLockConflict, &y, 3, &a);
  b.record(AbortCause::kReadValidation, &x, obs::kNoOrec, nullptr);
  b.record(AbortCause::kWriteLockConflict, &y, 3, &b);
  merged.merge(a);
  merged.merge(b);
  ASSERT_EQ(merged.size(), 2u);
  const auto top = obs::top_sites(merged, 10);
  EXPECT_EQ(top[0].total(), 2u);
  EXPECT_EQ(top[1].total(), 2u);
  std::uint64_t edges = 0, total = 0;
  merged.for_each([&](const ConflictMap::Site& s) {
    edges += s.edges;
    total += s.total();
  });
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(edges, 2u);
}

TEST(ConflictMapTest, FullTableCountsOverflowInsteadOfEvicting) {
  ConflictMap map(1);  // 2 slots
  std::vector<long> words(8);
  for (long& w : words) {
    map.record(AbortCause::kReadValidation, &w, obs::kNoOrec, nullptr);
  }
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.overflow(), 6u) << "drops must be counted, not silent";
  // Resident sites keep counting.
  std::uint64_t total = 0;
  map.for_each([&](const ConflictMap::Site& s) { total += s.total(); });
  EXPECT_EQ(total, 2u);
}

TEST(ConflictMapTest, ClearResetsEverything) {
  ConflictMap map(2);
  long x = 0;
  map.record(AbortCause::kReadValidation, &x, obs::kNoOrec, nullptr);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.overflow(), 0u);
  EXPECT_TRUE(obs::top_sites(map, 5).empty());
}

// ---------------------------------------------------------------------------
// Abort attribution end-to-end through abort_tx: AbortInfo carries the
// orec index and owner hint (build-independent; the ConflictMap recording
// is gate-checked in the gated suite below).
// ---------------------------------------------------------------------------

TEST(AbortAttribution, Tl2LockConflictCarriesOrecIndexAndOwner) {
  Tl2Algorithm algo;
  Tl2Core tx1(algo), tx2(algo);
  TVar<long> x(1);

  Orec& o = algo.orecs().of(x.word());
  ASSERT_TRUE(o.try_lock(&tx2));  // stage a concurrent lock holder

  tx1.begin();
  [&] { EXPECT_THROW(tx1.read(x.word()), TxAbort); }();
  const obs::AbortInfo info = tx1.last_abort();
  tx1.rollback();

  EXPECT_EQ(info.cause, AbortCause::kWriteLockConflict);
  EXPECT_EQ(info.addr, x.word());
  EXPECT_EQ(info.orec, static_cast<std::uint32_t>(algo.orecs().index(&o)))
      << "the conflicting orec's table index must be reported";
  EXPECT_EQ(info.owner, &tx2)
      << "the owner hint must name the lock holder";
  o.unlock(&tx2);
}

TEST(AbortAttribution, Tl2ReadValidationCarriesOrecWithoutOwner) {
  Tl2Algorithm algo;
  Tl2Core tx1(algo), tx2(algo);
  TVar<long> x(1);

  tx1.begin();  // snapshot at version 0
  tx2.begin();
  tx2.write(x.word(), 42);
  tx2.commit();  // bumps x's orec past tx1's snapshot and unlocks

  [&] { EXPECT_THROW(tx1.read(x.word()), TxAbort); }();
  const obs::AbortInfo info = tx1.last_abort();
  tx1.rollback();

  EXPECT_EQ(info.cause, AbortCause::kReadValidation);
  const Orec& o = algo.orecs().of(x.word());
  EXPECT_EQ(info.orec, static_cast<std::uint32_t>(algo.orecs().index(&o)));
  EXPECT_EQ(info.owner, nullptr) << "the committed writer released its lock";
}

// ---------------------------------------------------------------------------
// End-to-end: hot-site attribution and windowed metrics through the driver,
// against a bank run with known hot accounts. Hot sites are recorded only
// for observed runs, so every caller that expects them binds a collector.
// ---------------------------------------------------------------------------

struct HotBankRun {
  std::unique_ptr<BankWorkload> w;
  RunResult r;
};

HotBankRun hot_bank_run(const char* algo, obs::MetricsCollector* metrics,
                        obs::TraceCollector* trace = nullptr,
                        bool semantic = false) {
  BankWorkload::Params p;
  p.accounts = 1024;
  p.hot_accounts = 2;
  p.hot_pct = 90;  // Zipfian-style: 90% of picks hit 2 of 1024 accounts
  HotBankRun run{std::make_unique<BankWorkload>(p, semantic), {}};
  RunConfig cfg;
  cfg.algo = algo;
  cfg.threads = 8;
  cfg.ops_per_thread = 400;
  cfg.sim_quantum = 16;  // interleave mid-transaction to force conflicts
  cfg.trace = trace;
  cfg.metrics = metrics;
  run.r = run_workload(cfg, *run.w);
  run.w->verify();
  return run;
}

TEST(CartographyEndToEnd, HotSkewedBankTopSiteIsAHotAccount) {
  obs::MetricsCollector metrics;
  const HotBankRun run = hot_bank_run("norec", &metrics);
  const RunResult& r = run.r;
  const BankWorkload* w = run.w.get();

  ASSERT_GT(r.stats.aborts, 0u) << "rig failed to generate contention";
  ASSERT_FALSE(r.hot_sites.empty());
  EXPECT_EQ(r.conflict_overflow, 0u);
  // NOrec attribution is address-granular: the #1 site must be one of the
  // two known hot words (word-granularity regions make this exact).
  const void* top = r.hot_sites[0].addr;
  EXPECT_TRUE(top == w->account_word(0) || top == w->account_word(1))
      << "#1 hot site " << top << " is not a hot account";
  EXPECT_EQ(r.hot_sites[0].orec, obs::kNoOrec)
      << "NOrec sites must be region-keyed";

  // Accounting contract: per-site counts never exceed per-cause totals.
  std::uint64_t site_counts[obs::kAbortCauseCount] = {};
  for (const auto& s : r.hot_sites) {
    for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
      site_counts[c] += s.counts[c];
    }
  }
  for (std::size_t c = 0; c < obs::kAbortCauseCount; ++c) {
    EXPECT_LE(site_counts[c], r.stats.abort_causes[c])
        << "cause " << obs::abort_cause_name(static_cast<AbortCause>(c));
  }
}

TEST(CartographyEndToEnd, Tl2SitesAreOrecKeyedWithEdges) {
  obs::MetricsCollector metrics;
  const RunResult r = hot_bank_run("tl2", &metrics).r;

  ASSERT_GT(r.stats.aborts, 0u);
  ASSERT_FALSE(r.hot_sites.empty());
  EXPECT_NE(r.hot_sites[0].orec, obs::kNoOrec)
      << "TL2 conflict sites must be keyed by orec index";
  // Lock conflicts know their owner: the run must observe at least one
  // aborter->owner edge somewhere in the ranking.
  std::uint64_t edges = 0;
  for (const auto& s : r.hot_sites) edges += s.edges;
  EXPECT_GT(edges, 0u);
}

TEST(CartographyEndToEnd, WindowsPartitionTheRunExactly) {
  obs::MetricsCollector metrics(1u << 12);
  const RunResult r = hot_bank_run("snorec", &metrics).r;

  ASSERT_FALSE(r.windows.empty());
  TxStats resummed;
  std::uint64_t last = 0;
  bool first = true;
  for (const obs::WindowRow& row : r.windows) {
    if (!first) {
      EXPECT_GT(row.window, last);
    }
    last = row.window;
    first = false;
    EXPECT_EQ(row.t1 - row.t0, std::uint64_t{1} << 12);
    resummed += row.stats;
  }
  ASSERT_TRUE(stats_eq(resummed, r.stats))
      << "merged windows must reproduce the run totals field-for-field";
}

bool hists_empty(const TxStats& s) {
  return s.lat_commit.empty() && s.lat_validate.empty() &&
         s.lat_backoff.empty() && s.lat_gate.empty();
}

TEST(CartographyEndToEnd, ObservingARunLeavesTheSimulationUnchanged) {
  // NOrec-family sim output does not depend on heap addresses, so the two
  // runs must match bit for bit; TL2-family output depends on which words
  // share an orec, which the two runs' separate allocations may change.
  for (const bool semantic : {false, true}) {
    const char* algo = semantic ? "snorec" : "norec";
    SCOPED_TRACE(algo);
    const RunResult plain = hot_bank_run(algo, nullptr, nullptr, semantic).r;
    obs::TraceCollector trace;
    obs::MetricsCollector metrics;
    const RunResult seen = hot_bank_run(algo, &metrics, &trace, semantic).r;

    ASSERT_GT(plain.stats.aborts, 0u) << "rig failed to generate contention";
    EXPECT_EQ(seen.makespan, plain.makespan);
    EXPECT_TRUE(counters_eq(seen.stats, plain.stats))
        << "binding sinks changed the simulated run";

    EXPECT_TRUE(hists_empty(plain.stats)) << "no sink: no latencies";
    EXPECT_TRUE(plain.windows.empty()) << "no sink: no metrics windows";
    EXPECT_TRUE(plain.hot_sites.empty()) << "no sink: no conflict sites";
    EXPECT_EQ(plain.conflict_overflow, 0u);

    EXPECT_EQ(seen.stats.lat_commit.count, seen.stats.commits);
    EXPECT_FALSE(seen.windows.empty());
    EXPECT_FALSE(seen.hot_sites.empty());
  }
}

// ---------------------------------------------------------------------------
// Reporting: writer -> file -> tm_top renderer round trip (synthetic data,
// build-independent).
// ---------------------------------------------------------------------------

TEST(Sparkline, ScalesToMaxAndHandlesEdgeCases) {
  EXPECT_EQ(obs::sparkline({}), "");
  EXPECT_EQ(obs::sparkline({0.0, 0.0}), "  ");
  const std::string line = obs::sparkline({0.0, 50.0, 100.0});
  ASSERT_EQ(line.size(), 3u);
  EXPECT_EQ(line[0], ' ');
  EXPECT_EQ(line[2], '#') << "the max value must map to the top ramp level";
  EXPECT_NE(line[1], ' ');
  EXPECT_NE(line[1], '#');
}

TEST(Report, RenderHotSitesEmptyAndRanked) {
  EXPECT_NE(obs::render_hot_sites({}).find("none recorded"),
            std::string::npos);
  ConflictMap map(4);
  long x = 0;
  map.record(AbortCause::kWriteLockConflict, &x, 11, &map);
  const std::string table = obs::render_hot_sites(obs::top_sites(map, 5));
  EXPECT_NE(table.find("11"), std::string::npos);
  EXPECT_NE(table.find("write_lock_conflict"), std::string::npos);
}

TEST(Report, WriterRoundTripsThroughRenderer) {
  const std::string path = testing::TempDir() + "semstm_metrics_unit.jsonl";
  {
    obs::MetricsWriter writer(path);
    ASSERT_TRUE(writer.ok());
    std::vector<obs::WindowRow> rows(2);
    rows[0].window = 0;
    rows[0].t0 = 0;
    rows[0].t1 = 1000;
    rows[0].stats.starts = 10;
    rows[0].stats.commits = 8;
    rows[0].stats.aborts = 2;
    rows[0].stats.note_abort_cause(AbortCause::kReadValidation);
    rows[0].stats.note_abort_cause(AbortCause::kReadValidation);
    rows[1].window = 3;
    rows[1].t0 = 3000;
    rows[1].t1 = 4000;
    rows[1].stats.starts = 5;
    rows[1].stats.commits = 5;
    std::vector<ConflictMap::Site> sites(1);
    long hot = 0;
    sites[0].addr = &hot;
    sites[0].orec = 42;
    sites[0].counts[static_cast<std::size_t>(
        AbortCause::kWriteLockConflict)] = 7;
    sites[0].edges = 3;
    writer.add_run("NOrec/4t", "ticks", 1000, 4, rows, sites, 0);
    ASSERT_TRUE(writer.close());
  }

  std::string report;
  ASSERT_EQ(obs::render_metrics_report(path, 10, report), obs::kReportOk)
      << report;
  EXPECT_NE(report.find("NOrec/4t"), std::string::npos);
  EXPECT_NE(report.find("windows: 2"), std::string::npos);
  EXPECT_NE(report.find("write_lock_conflict"), std::string::npos);
  EXPECT_NE(report.find("throughput |"), std::string::npos);
}

TEST(Report, ExitStatusContract) {
  std::string out;
  EXPECT_EQ(obs::render_metrics_report(testing::TempDir() + "nope.jsonl", 5,
                                       out),
            obs::kReportIoError);

  // Schema-invalid: a window line with no preceding run line.
  const std::string bad = testing::TempDir() + "semstm_metrics_bad.jsonl";
  {
    std::ofstream f(bad);
    f << "{\"type\":\"window\",\"window\":0}\n";
  }
  out.clear();
  EXPECT_EQ(obs::render_metrics_report(bad, 5, out), obs::kReportInvalid);

  // Truncation detection: run declares more windows than it carries.
  const std::string trunc = testing::TempDir() + "semstm_metrics_trunc.jsonl";
  {
    std::ofstream f(trunc);
    f << "{\"type\":\"run\",\"label\":\"x\",\"units\":\"ticks\","
         "\"window_ticks\":10,\"threads\":1,\"windows\":2,\"hot_sites\":0,"
         "\"conflict_overflow\":0}\n";
  }
  out.clear();
  EXPECT_EQ(obs::render_metrics_report(trunc, 5, out), obs::kReportInvalid);
}

TEST(Report, AcceptsDriverUnitsField) {
  // The driver's units tag must be one the renderer accepts for both
  // modes (sim ticks and real-thread ns).
  BankWorkload::Params p;
  std::unique_ptr<BankWorkload> w =
      std::make_unique<BankWorkload>(p, false);
  RunConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 10;
  const RunResult r = run_workload(cfg, *w);
  EXPECT_STREQ(r.units, "ticks");
  RunConfig real_cfg;
  real_cfg.threads = 2;
  real_cfg.ops_per_thread = 10;
  real_cfg.mode = ExecMode::kReal;
  std::unique_ptr<BankWorkload> w2 =
      std::make_unique<BankWorkload>(p, false);
  const RunResult rr = run_workload(real_cfg, *w2);
  EXPECT_STREQ(rr.units, "ns");
}

}  // namespace
}  // namespace semstm
