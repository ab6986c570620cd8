// Contention-management tests: policy units, the serial-irrevocable gate,
// retry-loop accounting (exceptions vs aborts), and the livelock stress —
// a deliberately starving transaction that resolves only because the
// default policy escalates it to the serial-irrevocable token.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/contention.hpp"
#include "runtime/serial_gate.hpp"
#include "sched/thread_runner.hpp"
#include "sched/virtual_scheduler.hpp"
#include "semstm.hpp"
#include "workloads/mono.hpp"

namespace semstm {
namespace {

// ---------------------------------------------------------------------------
// Policy units.
// ---------------------------------------------------------------------------

TEST(Backoff, DistinctSeedsDrawDistinctPauseSequences) {
  // The historical lockstep bug: identical seeds → identical sequences.
  Backoff a(1), b(2), a2(1);
  std::vector<std::uint64_t> sa, sb, sa2;
  for (int i = 0; i < 12; ++i) {
    sa.push_back(a.pause());
    sb.push_back(b.pause());
    sa2.push_back(a2.pause());
  }
  EXPECT_NE(sa, sb) << "different seeds must decorrelate backoff";
  EXPECT_EQ(sa, sa2) << "same seed must stay deterministic";
}

TEST(Context, DefaultCtxSeedsAreUniquePerContext) {
  const std::uint64_t s1 = default_ctx_seed();
  const std::uint64_t s2 = default_ctx_seed();
  const std::uint64_t s3 = default_ctx_seed();
  EXPECT_NE(s1, s2);
  EXPECT_NE(s2, s3);
  EXPECT_NE(s1, s3);
}

TEST(ContentionManager, BoundedRetryEscalatesExactlyAtLimit) {
  BackoffCm cm(7);
  for (std::uint64_t k = 1; k < kRetryLimit; ++k) {
    EXPECT_FALSE(cm.on_abort(k)) << "premature escalation at " << k;
  }
  EXPECT_TRUE(cm.on_abort(kRetryLimit));
  EXPECT_TRUE(cm.on_abort(kRetryLimit + 1));  // stays willing past the limit
}

TEST(SerialGate, TokenStateMachine) {
  SerialGate g;
  int a = 0, b = 0;
  EXPECT_FALSE(g.held());
  g.enter(&b);
  g.exit(&b);
  g.acquire(&a);
  EXPECT_TRUE(g.held());
  EXPECT_TRUE(g.held_by(&a));
  EXPECT_FALSE(g.held_by(&b));
  g.release();
  EXPECT_FALSE(g.held());
  g.enter(&b);  // reusable after release
  g.exit(&b);
}

// ---------------------------------------------------------------------------
// Retry-loop accounting: user exceptions roll back but are counted as
// `exceptions`, not aborts, and leave the descriptor reusable (locks and
// gate registration released) — see the contract in core/stats.hpp.
// ---------------------------------------------------------------------------

TEST(ExceptionAccounting, UserExceptionIsNotAnAbort) {
  for (const std::string& name : algorithm_names()) {
    SCOPED_TRACE(name);
    auto algo = make_algorithm(name);
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    TVar<long> x(1);

    EXPECT_THROW(atomically([&](auto& tx) {
                   x.set(tx, 99);
                   throw std::runtime_error("user bug");
                 }),
                 std::runtime_error);
    const TxStats& s = ctx.tx->stats;
    EXPECT_EQ(s.starts, 1u);
    EXPECT_EQ(s.commits, 0u);
    EXPECT_EQ(s.aborts, 0u) << "a user exception must not skew abort_pct";
    EXPECT_EQ(s.exceptions, 1u);
    EXPECT_EQ(s.starts, s.commits + s.aborts + s.exceptions);
    EXPECT_EQ(x.unsafe_get(), 1) << "rolled-back write leaked";

    // The descriptor (and for CGL, the global lock) must be fully released.
    atomically([&](auto& tx) { x.set(tx, 3); });
    EXPECT_EQ(x.unsafe_get(), 3);
    EXPECT_EQ(ctx.tx->stats.commits, 1u);
  }
}

/// Every thread increments one shared counter.
class HotCounter final : public MonoWorkload<HotCounter> {
 public:
  template <typename TxT>
  void op_t(unsigned, Rng&) {
    atomically<TxT>([&](TxT& tx) { v.set(tx, v.get(tx) + 1); });
  }
  TVar<long> v{0};
};

TEST(ExceptionAccounting, IdentityHoldsUnderContendedSimRun) {
  HotCounter w;
  RunConfig cfg;
  cfg.algo = "norec";
  cfg.mode = ExecMode::kSim;
  cfg.threads = 8;
  cfg.ops_per_thread = 300;
  const RunResult r = run_workload(cfg, w);
  EXPECT_GT(r.stats.aborts, 0u);
  EXPECT_EQ(r.stats.starts, r.stats.commits + r.stats.aborts);
  EXPECT_GT(r.stats.max_consec_aborts, 0u);
}

// ---------------------------------------------------------------------------
// The livelock rig. One victim transaction reads every variable and writes
// a summary; aggressor threads hammer the same variables with short
// conflicting increments *until the victim resolves*. Under any
// non-escalating policy the victim starves: every attempt spans many
// aggressor commits, each of which invalidates it. The default policy
// escalates the victim to the serial-irrevocable token after kRetryLimit
// aborts, the aggressors quiesce at begin(), and the victim commits alone.
// ---------------------------------------------------------------------------

constexpr int kVars = 24;

/// The negative control's victim policy: BackoffCm's randomized backoff
/// without its escalation, i.e. pure backoff.
class PureBackoffCm final : public ContentionManager {
 public:
  explicit PureBackoffCm(std::uint64_t seed) : backoff_(seed) {}
  const char* name() const noexcept override { return "pure-backoff"; }
  bool on_abort(std::uint64_t) override {
    backoff_.pause();
    return false;
  }
  void on_finish() noexcept override { backoff_.reset(); }

 private:
  Backoff backoff_;
};

enum class VictimPolicy { kDefault, kPureBackoff };

struct LivelockResult {
  bool victim_committed = false;
  TxStats victim;
  TxStats total;
  std::uint64_t aggressor_commits = 0;
  long var_sum = 0;
  long out = 0;
};

struct GiveUp {};

/// The real-thread victim's stand-in for the sim's adversarial schedule:
/// after reading every variable it waits until aggressor commits that
/// began after those reads have landed — more than one per aggressor,
/// since each may have one commit done but not yet counted. Every such
/// commit increments a variable the victim read, so the attempt cannot
/// commit optimistically whatever the core count or host load. Bounded,
/// because nothing commits while the victim holds CGL's lock.
void await_aggressor_commits(const std::atomic<std::uint64_t>& commits,
                             unsigned aggressors) {
  const std::uint64_t target =
      commits.load(std::memory_order_acquire) + aggressors + 1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  while (commits.load(std::memory_order_acquire) < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

LivelockResult run_livelock(const std::string& algo_name,
                            VictimPolicy victim_policy,
                            std::uint64_t victim_guard, unsigned threads,
                            ExecMode mode) {
  auto algo = make_algorithm(algo_name);
  std::vector<std::unique_ptr<TVar<long>>> vars;
  vars.reserve(kVars);
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(std::make_unique<TVar<long>>(0));
  }
  TVar<long> out(0);

  SplitMix64 seeder(0xC04EF5EEDULL);
  std::vector<std::unique_ptr<ThreadCtx>> ctxs;
  ctxs.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    const std::uint64_t s = seeder.next();
    std::unique_ptr<ContentionManager> manager;  // null: the default policy
    if (t == 0 && victim_policy == VictimPolicy::kPureBackoff) {
      manager = std::make_unique<PureBackoffCm>(s);
    }
    ctxs.push_back(
        std::make_unique<ThreadCtx>(algo->make_tx(), s, std::move(manager)));
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> aggressor_commits{0};
  std::atomic<bool> victim_committed{false};

  auto body = [&](unsigned tid) {
    CtxBinder bind(*ctxs[tid]);
    if (tid == 0) {
      // Victim: one long read-everything transaction. The guard bounds the
      // test when the policy provides no escape (the livelock case). Once
      // serial-irrevocable it runs alone, so it stops waiting for
      // aggressors.
      std::uint64_t attempts = 0;
      try {
        atomically([&](auto& tx) {
          if (++attempts > victim_guard) throw GiveUp{};
          long sum = 0;
          for (auto& v : vars) sum += v->get(tx);
          if (mode == ExecMode::kReal &&
              !tx.serial_gate()->held_by(tx.tx_id())) {
            await_aggressor_commits(aggressor_commits, threads - 1);
          }
          out.set(tx, sum + 1);
        });
        victim_committed.store(true, std::memory_order_release);
      } catch (const GiveUp&) {
      }
      done.store(true, std::memory_order_release);
    } else {
      // Aggressors: short conflicting increments until the victim resolves.
      // The iteration cap is a safety net against driver bugs only: real
      // NOrec aggressors pass 5e5 commits each while the victim backs off
      // towards kRetryLimit.
      for (std::uint64_t iter = 0;
           !done.load(std::memory_order_acquire) && iter < (1u << 26);
           ++iter) {
        TVar<long>& v =
            *vars[(static_cast<std::uint64_t>(tid) * 7 + iter) % kVars];
        atomically([&](auto& tx) { v.set(tx, v.get(tx) + 1); });
        aggressor_commits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  if (mode == ExecMode::kSim) {
    sched::VirtualScheduler sim(sched::SimOptions{.seed = 42});
    sim.run(threads, body);
  } else {
    sched::run_threads(threads, body);
  }

  LivelockResult r;
  r.victim_committed = victim_committed.load(std::memory_order_acquire);
  r.victim = ctxs[0]->tx->stats;
  for (const auto& c : ctxs) r.total += c->tx->stats;
  r.aggressor_commits = aggressor_commits.load(std::memory_order_relaxed);
  for (const auto& v : vars) r.var_sum += v->unsafe_get();
  r.out = out.unsafe_get();
  return r;
}

class LivelockFallback : public ::testing::TestWithParam<std::string> {};

/// The victim's side of the acceptance checks shared by the sim and the
/// real-thread rig: it committed exactly once, and — except under CGL,
/// whose global lock never aborts — only through exactly one escalation
/// after kRetryLimit consecutive aborts.
void expect_victim_escalated_once(const std::string& algo,
                                  const LivelockResult& r) {
  EXPECT_TRUE(r.victim_committed);
  EXPECT_EQ(r.victim.commits, 1u);
  EXPECT_EQ(r.victim.exceptions, 0u) << "guard tripped: fallback too late";
  if (algo == "cgl") {
    EXPECT_EQ(r.victim.aborts, 0u);
    EXPECT_EQ(r.victim.fallbacks, 0u);
  } else {
    EXPECT_GE(r.victim.aborts, kRetryLimit) << "rig produced no starvation";
    EXPECT_EQ(r.victim.fallbacks, 1u)
        << "the serial-irrevocable attempt must commit first try";
    EXPECT_GE(r.victim.max_consec_aborts, kRetryLimit);
  }
}

// Acceptance: on the default policy, with no manager passed, the rig
// terminates and every transaction commits, for all five algorithms.
TEST_P(LivelockFallback, BoundedRetryFallbackGuaranteesVictimCommit) {
  const std::string algo = GetParam();
  const LivelockResult r =
      run_livelock(algo, VictimPolicy::kDefault, /*victim_guard=*/100000,
                   /*threads=*/8, ExecMode::kSim);

  expect_victim_escalated_once(algo, r);
  // Each committed aggressor op added exactly 1 to exactly one var; the
  // victim wrote only `out`. Conservation proves no lost updates around
  // the token hand-off.
  EXPECT_EQ(r.var_sum, static_cast<long>(r.aggressor_commits));
  EXPECT_GE(r.out, 1);
  EXPECT_EQ(r.total.starts,
            r.total.commits + r.total.aborts + r.total.exceptions);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, LivelockFallback,
                         ::testing::Values("cgl", "norec", "snorec", "tl2",
                                           "stl2"),
                         [](const auto& info) { return info.param; });

// The control: the identical rig with the victim on pure randomized
// backoff livelocks — the victim starves past the attempt guard without
// ever committing. This is the pathology the fallback exists to break
// (deterministic simulator, so this is a stable fact, not a flake).
TEST(LivelockFallback, PureBackoffStarvesTheVictim) {
  for (const std::string algo : {"norec", "tl2"}) {
    SCOPED_TRACE(algo);
    const LivelockResult r =
        run_livelock(algo, VictimPolicy::kPureBackoff, /*victim_guard=*/60,
                     /*threads=*/8, ExecMode::kSim);

    EXPECT_FALSE(r.victim_committed) << "rig no longer livelocks";
    EXPECT_EQ(r.victim.commits, 0u);
    EXPECT_GE(r.victim.aborts, 59u);
    EXPECT_EQ(r.victim.fallbacks, 0u);
    EXPECT_EQ(r.victim.exceptions, 1u);  // the guard's GiveUp roll-back
    EXPECT_EQ(r.total.starts,
              r.total.commits + r.total.aborts + r.total.exceptions);
    EXPECT_EQ(r.var_sum, static_cast<long>(r.aggressor_commits));
  }
}

// Real-thread variant (the TSan target; see scripts/ci_tsan.sh): the
// victim races OS-thread aggressors, and the default policy must still
// escalate it exactly once and commit it with no lost updates.
TEST(LivelockFallbackReal, BoundedRetryTerminatesOnRealThreads) {
  for (const std::string& algo : algorithm_names()) {
    SCOPED_TRACE(algo);
    const LivelockResult r =
        run_livelock(algo, VictimPolicy::kDefault, /*victim_guard=*/100000,
                     /*threads=*/4, ExecMode::kReal);
    expect_victim_escalated_once(algo, r);
    EXPECT_EQ(r.var_sum, static_cast<long>(r.aggressor_commits));
    EXPECT_EQ(r.total.starts,
              r.total.commits + r.total.aborts + r.total.exceptions);
  }
}

}  // namespace
}  // namespace semstm
