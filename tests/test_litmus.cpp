// Adversarial-schedule litmus tests: DFS-enumerate the interleavings of
// small 2-thread programs against every algorithm core (sched/litmus.hpp)
// and assert that only serializable outcomes appear. Each family targets a
// protocol window opened up by the sched::sched_point markers:
//
//   WriteRead        — minimal exhaustive test per core (the certificate
//                      that the harness enumerates EVERY interleaving).
//   StoreBuffering   — two crossing write/read transactions; the relaxed
//                      (0,0) outcome must never appear across a commit.
//   Publication      — flag/data publication inside one transaction.
//   Privatization    — flag-guarded privatization followed by non-tx
//                      access; documents the TL2-family delayed-write-back
//                      anomaly (allowed by the algorithms as published).
//   SemanticReval    — a cmp whose outcome flips concurrently must abort
//                      (the paper's semantic-revalidation obligation).
//   HashtableProbe   — the stable-compare hashtable probe against an insert
//                      that fills the probed FREE cell, and against one
//                      that recycles its tombstone (DESIGN.md §4.7).
//   SerialGate/Orec  — direct litmus over the runtime primitives, proving
//                      the enter/acquire drain and the single-releaser
//                      unlock at schedule granularity.
//
// Real-thread variants (`_real`-suffixed names) re-run the gate and orec
// protocols on OS threads; the TSan CI stage (scripts/ci_tsan.sh) filters
// to them, since TSan cannot follow ucontext fiber switches.
#include <gtest/gtest.h>

#include <atomic>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "containers/topen_hashtable.hpp"
#include "runtime/orec.hpp"
#include "sched/litmus.hpp"
#include "sched/thread_runner.hpp"
#include "semstm.hpp"

namespace semstm {
namespace {

using sched::explore;
using sched::ExploreOptions;
using sched::ExploreResult;
using sched::replay;

/// Deterministic, maximally polite contention manager for litmus bodies:
/// one spin per abort (the spin parks the retrying fiber under the DFS
/// controller, which is what keeps abort-retry loops finitely explorable)
/// and never any randomized backoff or serial escalation — escalation
/// would drag the whole gate protocol into every TM litmus tree.
class PoliteCm final : public ContentionManager {
 public:
  const char* name() const noexcept override { return "polite"; }
  bool on_abort(std::uint64_t) override {
    sched::spin_pause();
    return false;
  }
};

/// Base for TM litmus tests: rebuilds the ENTIRE TM instance (algorithm,
/// descriptors, contexts) on every reset, because a truncated schedule can
/// unwind mid-commit and leave shared metadata (odd seqlock, locked orecs,
/// held gate) in an arbitrary in-protocol state. TVar storage lives in the
/// subclass at a fixed address across resets, so the word-to-orec map is
/// stable within one exploration (the DFS relies on replay determinism).
class TmLitmus : public sched::LitmusTest {
 public:
  TmLitmus(std::string algo, unsigned nthreads)
      : algo_name_(std::move(algo)), nthreads_(nthreads) {}

  unsigned threads() const override { return nthreads_; }

  void reset() override {
    ctxs_.clear();
    AlgoOptions opts;
    // Small orec table: reset() rebuilds it once per explored schedule, and
    // the default 2^16 slots would zero a megabyte each time. Collisions
    // among the 2-3 litmus addresses only add false conflicts (extra
    // aborts), never new outcomes, so the assertions are collision-safe.
    opts.orec_log2 = 8;
    algo_ = make_algorithm(algo_name_, opts);
    for (unsigned i = 0; i < nthreads_; ++i) {
      ctxs_.push_back(std::make_unique<ThreadCtx>(
          algo_->make_tx(), /*seed=*/100 + i, std::make_unique<PoliteCm>()));
    }
    reset_memory();
  }

  void thread(unsigned tid) override {
    CtxBinder bind(*ctxs_[tid]);
    body(tid);
  }

 protected:
  virtual void reset_memory() = 0;
  virtual void body(unsigned tid) = 0;

  const std::string algo_name_;
  const unsigned nthreads_;
  std::unique_ptr<Algorithm> algo_;
  std::vector<std::unique_ptr<ThreadCtx>> ctxs_;
};

/// Every witness schedule must replay to the outcome it witnessed — this
/// is the regression-schedule workflow a bug fix commits.
void expect_witnesses_replay(sched::LitmusTest& test, const ExploreResult& r) {
  for (const auto& [outcome, witness] : r.outcomes) {
    EXPECT_EQ(replay(test, witness.schedule), outcome)
        << "witness schedule no longer reproduces its outcome";
  }
}

/// The two full serializations, pinned by scripted replays. An all-zeros
/// script runs T0 to completion first, an all-ones script T1 — the two
/// *ends* of the DFS tree, which a budget-bounded exploration of a large
/// tree may never reach (the far end is literally the last schedule).
/// Asserting them by replay keeps the serialization-presence check
/// deterministic regardless of budget.
std::string replay_t_first(sched::LitmusTest& test, unsigned tid) {
  return replay(test, std::vector<unsigned>(64, tid));
}

/// Bounded-budget exploration for the multi-operation families. The TL2
/// family's instrumented commit window (per-lock, per-store, clock and
/// unlock sched_points) makes its schedule trees run into the hundreds of
/// thousands, past the Debug-tier budget — those explorations stay
/// systematic-but-bounded, while small trees still certify exhaustion.
/// Raise SEMSTM_LITMUS_MAX_SCHEDULES for nightly-depth runs.
ExploreResult explore_bounded(sched::LitmusTest& test,
                              std::uint64_t max_schedules = 20000) {
  ExploreOptions opts;
  opts.max_schedules = max_schedules;
  return explore(test, opts);
}

/// One greppable line per exploration — the numbers in EXPERIMENTS.md's
/// litmus table are transcribed from this output.
void log_result(const std::string& name, const std::string& algo,
                const ExploreResult& r) {
  std::cout << "[litmus] " << name << '/' << algo
            << " schedules=" << r.schedules << " truncated=" << r.truncated
            << " exhaustive=" << (r.exhaustive ? 1 : 0) << " outcomes={";
  bool first = true;
  for (const std::string& o : r.outcome_set()) {
    std::cout << (first ? "" : "; ") << o;
    first = false;
  }
  std::cout << "}\n";
}

// ---------------------------------------------------------------------------
// WriteRead: T0 {x = 1}, T1 {r = x}. The minimal 2-thread test that every
// core must sustain EXHAUSTIVE enumeration on: both serializations exist,
// nothing else does.
// ---------------------------------------------------------------------------
class WriteReadLitmus final : public TmLitmus {
 public:
  explicit WriteReadLitmus(std::string algo) : TmLitmus(std::move(algo), 2) {}

  void reset_memory() override {
    x_.unsafe_set(0);
    r_ = -1;
  }
  void body(unsigned tid) override {
    if (tid == 0) {
      atomically([&](auto& tx) { tx.write(x_.word(), 1); });
    } else {
      atomically([&](auto& tx) { r_ = static_cast<long>(tx.read(x_.word())); });
    }
  }
  std::string outcome() override { return "r=" + std::to_string(r_); }

 private:
  TVar<long> x_{0};
  long r_ = -1;
};

class LitmusPerAlgo : public ::testing::TestWithParam<std::string> {};

TEST_P(LitmusPerAlgo, WriteReadExhaustive) {
  WriteReadLitmus test(GetParam());
  const ExploreResult r = explore(test);
  log_result("WriteRead", GetParam(), r);
  EXPECT_TRUE(r.exhaustive) << "schedule budget too small to exhaust";
  EXPECT_EQ(r.truncated, 0u);
  EXPECT_GT(r.schedules, 1u) << "controller explored only one interleaving";
  EXPECT_EQ(r.outcome_set(), (std::vector<std::string>{"r=0", "r=1"}));
  expect_witnesses_replay(test, r);
}

// ---------------------------------------------------------------------------
// StoreBuffering across commit: T0 {x = 1; r0 = y}, T1 {y = 1; r1 = x},
// each one transaction. Serializable outcomes are (0,1) and (1,0); the
// relaxed-memory signature (0,0) must never survive commit validation, and
// (1,1) would need each transaction to observe the other's write — a
// serialization cycle.
// ---------------------------------------------------------------------------
class StoreBufferingLitmus final : public TmLitmus {
 public:
  explicit StoreBufferingLitmus(std::string algo)
      : TmLitmus(std::move(algo), 2) {}

  void reset_memory() override {
    x_.unsafe_set(0);
    y_.unsafe_set(0);
    r0_ = r1_ = -1;
  }
  void body(unsigned tid) override {
    if (tid == 0) {
      atomically([&](auto& tx) {
        tx.write(x_.word(), 1);
        r0_ = static_cast<long>(tx.read(y_.word()));
      });
    } else {
      atomically([&](auto& tx) {
        tx.write(y_.word(), 1);
        r1_ = static_cast<long>(tx.read(x_.word()));
      });
    }
  }
  std::string outcome() override {
    return "r0=" + std::to_string(r0_) + ",r1=" + std::to_string(r1_);
  }

 private:
  TVar<long> x_{0}, y_{0};
  long r0_ = -1, r1_ = -1;
};

TEST_P(LitmusPerAlgo, StoreBufferingOnlySerializableOutcomes) {
  StoreBufferingLitmus test(GetParam());
  const ExploreResult r = explore_bounded(test);
  log_result("StoreBuffering", GetParam(), r);
  EXPECT_GT(r.schedules, 1u);
  for (const std::string& outcome : r.outcome_set()) {
    EXPECT_TRUE(outcome == "r0=0,r1=1" || outcome == "r0=1,r1=0")
        << "non-serializable store-buffering outcome " << outcome
        << " escaped commit";
  }
  if (r.exhaustive) {
    EXPECT_EQ(r.outcome_set(),
              (std::vector<std::string>{"r0=0,r1=1", "r0=1,r1=0"}));
  }
  EXPECT_EQ(replay_t_first(test, 0), "r0=0,r1=1");
  EXPECT_EQ(replay_t_first(test, 1), "r0=1,r1=0");
  expect_witnesses_replay(test, r);
}

// ---------------------------------------------------------------------------
// Publication: T0 {data = 42; flag = 1}, T1 {if (flag) r = data}. Seeing
// the flag set without the data is the classic publication violation.
// ---------------------------------------------------------------------------
class PublicationLitmus final : public TmLitmus {
 public:
  explicit PublicationLitmus(std::string algo)
      : TmLitmus(std::move(algo), 2) {}

  void reset_memory() override {
    data_.unsafe_set(0);
    flag_.unsafe_set(0);
    r_flag_ = r_data_ = -1;
  }
  void body(unsigned tid) override {
    if (tid == 0) {
      atomically([&](auto& tx) {
        tx.write(data_.word(), 42);
        tx.write(flag_.word(), 1);
      });
    } else {
      atomically([&](auto& tx) {
        r_flag_ = static_cast<long>(tx.read(flag_.word()));
        r_data_ =
            r_flag_ != 0 ? static_cast<long>(tx.read(data_.word())) : -1;
      });
    }
  }
  std::string outcome() override {
    return "flag=" + std::to_string(r_flag_) +
           ",data=" + std::to_string(r_data_);
  }

 private:
  TVar<long> data_{0}, flag_{0};
  long r_flag_ = -1, r_data_ = -1;
};

TEST_P(LitmusPerAlgo, PublicationNeverTearsFlagFromData) {
  PublicationLitmus test(GetParam());
  const ExploreResult r = explore_bounded(test);
  log_result("Publication", GetParam(), r);
  EXPECT_GT(r.schedules, 1u);
  for (const std::string& outcome : r.outcome_set()) {
    EXPECT_TRUE(outcome == "flag=0,data=-1" || outcome == "flag=1,data=42")
        << "published flag observed without the published data: " << outcome;
  }
  if (r.exhaustive) {
    EXPECT_EQ(r.outcome_set(),
              (std::vector<std::string>{"flag=0,data=-1", "flag=1,data=42"}));
  }
  EXPECT_EQ(replay_t_first(test, 0), "flag=1,data=42");
  EXPECT_EQ(replay_t_first(test, 1), "flag=0,data=-1");
  expect_witnesses_replay(test, r);
}

// ---------------------------------------------------------------------------
// Privatization: T1 {if (flag == 0) x = 1}, T0 {flag = 1} then a NON-
// transactional x *= 10. Serializable: x ends 0 (T0 first) or 10 (T1
// first). The TL2 family admits x == 1: T1 can pass its serialization
// point (clock advance, orecs locked) and then have its write-back of x
// land AFTER the privatizer's non-transactional read-modify-write — the
// delayed-write-back privatization anomaly documented for TL2-style
// timestamp STMs (see DESIGN.md §4.14). NOrec's single commit lock makes
// write-back atomic w.r.t. the next commit, so the NOrec family and CGL
// are privatization-safe.
// ---------------------------------------------------------------------------
class PrivatizationLitmus final : public TmLitmus {
 public:
  explicit PrivatizationLitmus(std::string algo)
      : TmLitmus(std::move(algo), 2) {}

  void reset_memory() override {
    x_.unsafe_set(0);
    flag_.unsafe_set(0);
  }
  void body(unsigned tid) override {
    if (tid == 0) {
      atomically([&](auto& tx) { tx.write(flag_.word(), 1); });
      // Privatized by the committed flag: non-transactional access.
      x_.unsafe_set(x_.unsafe_get() * 10);
    } else {
      atomically([&](auto& tx) {
        if (tx.read(flag_.word()) == 0) tx.write(x_.word(), 1);
      });
    }
  }
  std::string outcome() override {
    return "x=" + std::to_string(x_.unsafe_get());
  }

 private:
  TVar<long> x_{0}, flag_{0};
};

TEST_P(LitmusPerAlgo, PrivatizationOutcomesMatchFamilyGuarantee) {
  PrivatizationLitmus test(GetParam());
  const ExploreResult r = explore_bounded(test);
  log_result("Privatization", GetParam(), r);
  EXPECT_GT(r.schedules, 1u);
  const bool tl2_family = GetParam() == "tl2" || GetParam() == "stl2";
  for (const std::string& outcome : r.outcome_set()) {
    if (tl2_family) {
      // x=1: the documented delayed-write-back anomaly (lost privatized
      // update), allowed for the TL2 family.
      EXPECT_TRUE(outcome == "x=0" || outcome == "x=10" || outcome == "x=1")
          << "unexpected privatization outcome " << outcome;
    } else {
      EXPECT_TRUE(outcome == "x=0" || outcome == "x=10")
          << GetParam() << " must be privatization-safe, got " << outcome;
    }
  }
  // Both serializable outcomes must be reachable for every core.
  EXPECT_EQ(replay_t_first(test, 0), "x=0");
  EXPECT_EQ(replay_t_first(test, 1), "x=10");
  expect_witnesses_replay(test, r);
}

// ---------------------------------------------------------------------------
// Semantic revalidation: x starts 1. T0 {if (x > 0) y += 1},
// T1 {x -= 1; z = y}. Serializable: T0 first -> (x=0, y=1, z=1); T1 first
// -> the condition fails -> (x=0, y=0, z=0). The outcome (y=1, z=0) would
// mean T0's cmp was not revalidated after its outcome flipped — exactly
// the window the semantic algorithms' compare-set revalidation closes.
// ---------------------------------------------------------------------------
class SemanticRevalLitmus final : public TmLitmus {
 public:
  explicit SemanticRevalLitmus(std::string algo)
      : TmLitmus(std::move(algo), 2) {}

  void reset_memory() override {
    x_.unsafe_set(1);
    y_.unsafe_set(0);
    z_ = -1;
  }
  void body(unsigned tid) override {
    if (tid == 0) {
      atomically([&](auto& tx) {
        if (tx.cmp(x_.word(), Rel::SGT, 0)) tx.inc(y_.word(), 1);
      });
    } else {
      atomically([&](auto& tx) {
        tx.inc(x_.word(), static_cast<word_t>(-1));
        z_ = static_cast<long>(tx.read(y_.word()));
      });
    }
  }
  std::string outcome() override {
    return "x=" + std::to_string(x_.unsafe_get()) +
           ",y=" + std::to_string(y_.unsafe_get()) +
           ",z=" + std::to_string(z_);
  }

 private:
  TVar<long> x_{0}, y_{0};
  long z_ = -1;
};

TEST_P(LitmusPerAlgo, FlippedCmpOutcomeIsAlwaysRevalidated) {
  if (GetParam() == "cgl") {
    GTEST_SKIP() << "CGL serializes whole transactions under one lock";
  }
  SemanticRevalLitmus test(GetParam());
  const ExploreResult r = explore_bounded(test);
  log_result("SemanticReval", GetParam(), r);
  EXPECT_GT(r.schedules, 1u);
  for (const std::string& outcome : r.outcome_set()) {
    EXPECT_TRUE(outcome == "x=0,y=0,z=0" || outcome == "x=0,y=1,z=1")
        << "a flipped cmp outcome survived to commit: " << outcome;
  }
  if (r.exhaustive) {
    EXPECT_EQ(r.outcome_set(),
              (std::vector<std::string>{"x=0,y=0,z=0", "x=0,y=1,z=1"}));
  }
  EXPECT_EQ(replay_t_first(test, 0), "x=0,y=1,z=1");
  EXPECT_EQ(replay_t_first(test, 1), "x=0,y=0,z=0");
  expect_witnesses_replay(test, r);
}

// ---------------------------------------------------------------------------
// Hashtable probe over one cell, with the stable-compare probe
// (ProbeMode::kStable). T0 {found = contains(k); flag_seen = (flag == 1)},
// T1 {insert(k'); flag = 1}. The table has one cell, so every probe and
// every insert touches it.
//
// The container never stores FREE once built, which is the stable
// compare's premise, so reset() rewrites the cell's two words directly,
// at addresses recorded once when the constructor inserts a key through
// WordRecorder. Nothing runs during a reset, and the words keep their
// addresses across resets, as the DFS needs.
// ---------------------------------------------------------------------------

/// A descriptor of plain loads and stores that records every word written.
struct WordRecorder {
  std::vector<tword*> written;
  word_t read(const tword* a) { return a->load(std::memory_order_relaxed); }
  void write(tword* a, word_t v) {
    written.push_back(a);
    a->store(v, std::memory_order_relaxed);
  }
  bool cmp(const tword* a, Rel rel, word_t v) { return eval(rel, read(a), v); }
  bool cmp_or(const CmpTerm* terms, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (terms[i].eval_now()) return true;
    }
    return false;
  }
};

class HashtableProbeLitmus final : public TmLitmus {
 public:
  /// The cell starts as `start` (kFree, or kRemoved holding kOldKey); T0
  /// probes for `probe_key`, T1 inserts `insert_key`.
  HashtableProbeLitmus(std::string algo, TOpenHashTable::State start,
                       std::int64_t probe_key, std::int64_t insert_key)
      : TmLitmus(std::move(algo), 2),
        start_(start),
        probe_key_(probe_key),
        insert_key_(insert_key) {
    WordRecorder rec;
    (void)table_.insert(rec, kOldKey);  // writes the key, then the state
    key_ = rec.written.at(0);
    state_ = rec.written.at(1);
  }

  void reset_memory() override {
    key_->store(static_cast<word_t>(kOldKey), std::memory_order_relaxed);
    state_->store(static_cast<word_t>(start_), std::memory_order_relaxed);
    flag_.unsafe_set(0);
    found_ = flag_seen_ = tomb_ = inserted_ = -1;
  }
  void body(unsigned tid) override {
    if (tid == 0) {
      atomically([&](auto& tx) {
        found_ = table_.contains(tx, probe_key_) ? 1 : 0;
        // Whether the cell still held its tombstone when the probe ended
        // (a plain load: the test's view, not the transaction's).
        tomb_ = state_->load(std::memory_order_relaxed) ==
                        static_cast<word_t>(TOpenHashTable::kRemoved)
                    ? 1
                    : 0;
        flag_seen_ = flag_.eq(tx, 1L) ? 1 : 0;
      });
    } else {
      atomically([&](auto& tx) {
        inserted_ = table_.insert(tx, insert_key_) ? 1 : 0;
        flag_.set(tx, 1);
      });
    }
  }
  std::string outcome() override {
    std::string o = "found=" + std::to_string(found_) +
                    ",flag=" + std::to_string(flag_seen_) +
                    ",inserted=" + std::to_string(inserted_);
    if (start_ == TOpenHashTable::kRemoved) o += ",tomb=" + std::to_string(tomb_);
    return o;
  }

 private:
  static constexpr std::int64_t kOldKey = 3;
  const TOpenHashTable::State start_;
  const std::int64_t probe_key_;
  const std::int64_t insert_key_;
  TOpenHashTable table_{1, TOpenHashTable::ProbeMode::kStable};
  tword* key_ = nullptr;
  tword* state_ = nullptr;
  TVar<long> flag_{0};
  int found_ = -1, flag_seen_ = -1, tomb_ = -1, inserted_ = -1;
};

/// Budget for the two probe litmus tests: it exhausts the CGL and
/// NOrec-family trees of the fill case and the CGL tree of the recycle
/// case; the larger trees stay bounded.
constexpr std::uint64_t kProbeSchedules = 80000;

// T1's insert fills the FREE cell T0 probes for the same key. T0's probe
// records `state != FREE` observed false, which the fill flips: T0 either
// runs entirely before T1 (absent, flag 0) or after it (found, flag 1).
TEST_P(LitmusPerAlgo, ProbeOfFreeCellSerializesWithTheInsertFillingIt) {
  HashtableProbeLitmus test(GetParam(), TOpenHashTable::kFree, 7, 7);
  const ExploreResult r = explore_bounded(test, kProbeSchedules);
  log_result("HashtableFreeFill", GetParam(), r);
  EXPECT_GT(r.schedules, 1u);
  const std::string t0_first = "found=0,flag=0,inserted=1";
  const std::string t1_first = "found=1,flag=1,inserted=1";
  for (const std::string& outcome : r.outcome_set()) {
    EXPECT_TRUE(outcome == t0_first || outcome == t1_first)
        << "non-serializable probe outcome " << outcome;
  }
  if (r.exhaustive) {
    EXPECT_EQ(r.outcome_set(), (std::vector<std::string>{t0_first, t1_first}));
  }
  EXPECT_EQ(replay_t_first(test, 0), t0_first);
  EXPECT_EQ(replay_t_first(test, 1), t1_first);
  expect_witnesses_replay(test, r);
}

// T1's insert of another key recycles the tombstone T0's probe passes
// (REMOVED -> BUSY). The held stable compare left no entry and the clause
// `state == REMOVED || key != k` keeps its outcome, so S-NOrec and S-TL2
// may commit T0 across the recycle (tomb=1 with flag=1); the base cores
// validate the state word itself and must abort there. T0 seeing the
// recycled cell without T1's flag (tomb=0, flag=0) is never serializable.
TEST_P(LitmusPerAlgo, TombstoneRecycledUnderProbeKeepsProbeSerializable) {
  HashtableProbeLitmus test(GetParam(), TOpenHashTable::kRemoved, 5, 9);
  const ExploreResult r = explore_bounded(test, kProbeSchedules);
  log_result("HashtableTombRecycle", GetParam(), r);
  EXPECT_GT(r.schedules, 1u);
  const std::string t0_first = "found=0,flag=0,inserted=1,tomb=1";
  const std::string t1_first = "found=0,flag=1,inserted=1,tomb=0";
  const std::string across = "found=0,flag=1,inserted=1,tomb=1";
  const bool semantic = GetParam() == "snorec" || GetParam() == "stl2";
  for (const std::string& outcome : r.outcome_set()) {
    EXPECT_TRUE(outcome == t0_first || outcome == t1_first ||
                (semantic && outcome == across))
        << GetParam() << ": unexpected probe outcome " << outcome;
  }
  if (semantic) {
    EXPECT_EQ(r.outcomes.count(across), 1u)
        << "the probe never committed across the recycle";
  } else if (r.exhaustive) {
    EXPECT_EQ(r.outcome_set(), (std::vector<std::string>{t0_first, t1_first}));
  }
  EXPECT_EQ(replay_t_first(test, 0), t0_first);
  EXPECT_EQ(replay_t_first(test, 1), t1_first);
  expect_witnesses_replay(test, r);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, LitmusPerAlgo,
                         ::testing::ValuesIn(algorithm_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// SerialGate direct litmus: one normal enterer vs one token acquirer, at
// sched_point granularity. The enter() add/re-check/undo dance must never
// let the enterer's critical region overlap the token holder's serial
// section (the invariant documented in runtime/serial_gate.hpp).
// ---------------------------------------------------------------------------
class GateLitmus final : public sched::LitmusTest {
 public:
  unsigned threads() const override { return 2; }

  void reset() override {
    gate_ = std::make_unique<SerialGate>();
    in_serial_ = false;
    overlap_ = false;
  }

  void thread(unsigned tid) override {
    if (tid == 0) {
      gate_->enter(&in_serial_);  // any stable identity picks the slot
      if (in_serial_) overlap_ = true;
      sched::sched_point();
      if (in_serial_) overlap_ = true;
      gate_->exit(&in_serial_);
    } else {
      gate_->acquire(this);
      in_serial_ = true;
      sched::sched_point();
      in_serial_ = false;
      sched::sched_point();  // pre-release window (release() itself is
                             // yield-free: it runs on noexcept cleanup paths)
      gate_->release();
    }
  }

  std::string outcome() override { return overlap_ ? "overlap" : "excluded"; }

 private:
  std::unique_ptr<SerialGate> gate_;
  // Single carrier thread: plain (non-atomic) flags are exact observers.
  bool in_serial_ = false;
  bool overlap_ = false;
};

TEST(SerialGateLitmus, EntererNeverOverlapsSerialSection) {
  GateLitmus test;
  const sched::ExploreResult r = explore(test);
  log_result("SerialGate", "direct", r);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.truncated, 0u);
  EXPECT_GT(r.schedules, 1u);
  EXPECT_EQ(r.outcome_set(), (std::vector<std::string>{"excluded"}))
      << "SerialGate::enter raced past a token acquisition";
  expect_witnesses_replay(test, r);
}

// ---------------------------------------------------------------------------
// Orec direct litmus: two owners contend for one orec's commit-time lock.
// try_lock must exclude, and unlock's relaxed owner load is only legal
// under the single-releaser invariant (runtime/orec.hpp) — each thread
// unlocks only what it locked, which this litmus exercises at every
// interleaving including unlock racing a foreign try_lock.
// ---------------------------------------------------------------------------
class OrecLitmus final : public sched::LitmusTest {
 public:
  unsigned threads() const override { return 2; }

  void reset() override {
    orec_ = std::make_unique<Orec>();
    holder_ = -1;
    overlap_ = false;
  }

  void thread(unsigned tid) override {
    const void* self = tid == 0 ? static_cast<const void*>(&holder_)
                                : static_cast<const void*>(&overlap_);
    while (!orec_->try_lock(self)) sched::spin_pause();
    if (holder_ != -1) overlap_ = true;
    holder_ = static_cast<int>(tid);
    sched::sched_point();
    if (holder_ != static_cast<int>(tid)) overlap_ = true;
    holder_ = -1;
    orec_->version.store(orec_->version.load(std::memory_order_relaxed) + 1,
                         std::memory_order_release);
    orec_->unlock(self);
  }

  std::string outcome() override {
    const bool unlocked = !orec_->locked();
    const std::uint64_t v = orec_->version.load(std::memory_order_relaxed);
    return (overlap_ ? std::string("overlap") : std::string("excluded")) +
           ",unlocked=" + (unlocked ? "1" : "0") + ",v=" + std::to_string(v);
  }

 private:
  std::unique_ptr<Orec> orec_;
  int holder_ = -1;
  bool overlap_ = false;
};

TEST(OrecLitmus, TryLockExcludesAndSingleReleaserUnlocks) {
  OrecLitmus test;
  const sched::ExploreResult r = explore(test);
  log_result("Orec", "direct", r);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_GT(r.schedules, 1u);
  EXPECT_EQ(r.outcome_set(),
            (std::vector<std::string>{"excluded,unlocked=1,v=2"}))
      << "orec lock protocol violated mutual exclusion or leaked the lock";
  expect_witnesses_replay(test, r);
}

// ---------------------------------------------------------------------------
// Real-thread stress over the same primitives, for the TSan stage
// (scripts/ci_tsan.sh filters to `_real` test names). These run the
// actual C++11 memory-model code — the fiber litmus above only proves
// SC-level interleaving safety; TSan checks the weaker model.
// ---------------------------------------------------------------------------
TEST(LitmusRealThreads, GateStress_real) {
  SerialGate gate;
  std::atomic<int> in_serial{0};
  std::atomic<int> overlaps{0};
  sched::run_threads(4, [&](unsigned tid) {
    // Per-thread stack identity: distinct threads land on (usually)
    // distinct announce slots, exercising the multi-slot drain.
    int self_storage = 0;
    const void* self = &self_storage;
    for (int i = 0; i < 200; ++i) {
      if (tid == 0) {
        gate.acquire(&gate);
        in_serial.store(1, std::memory_order_relaxed);
        in_serial.store(0, std::memory_order_relaxed);
        gate.release();
      } else {
        gate.enter(self);
        if (in_serial.load(std::memory_order_relaxed) != 0) ++overlaps;
        gate.exit(self);
      }
    }
  });
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_FALSE(gate.held());
}

TEST(LitmusRealThreads, OrecStress_real) {
  Orec orec;
  std::atomic<std::uint64_t> acquisitions{0};
  int owners[4] = {0, 1, 2, 3};
  std::atomic<int> in_crit{0};
  std::atomic<int> overlaps{0};
  sched::run_threads(4, [&](unsigned tid) {
    const void* self = &owners[tid];
    for (int i = 0; i < 500; ++i) {
      while (!orec.try_lock(self)) {
      }
      if (in_crit.fetch_add(1, std::memory_order_acq_rel) != 0) ++overlaps;
      orec.version.fetch_add(1, std::memory_order_acq_rel);
      in_crit.fetch_sub(1, std::memory_order_acq_rel);
      acquisitions.fetch_add(1, std::memory_order_relaxed);
      orec.unlock(self);
    }
  });
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(acquisitions.load(), 4u * 500u);
  EXPECT_FALSE(orec.locked());
  EXPECT_EQ(orec.version.load(), 4u * 500u);
}

/// The full TM stack on real threads with litmus-sized transactions —
/// the TM-level surface the TSan stage watches.
TEST(LitmusRealThreads, TmCounterStress_real) {
  for (const std::string& algo_name : algorithm_names()) {
    auto algo = make_algorithm(algo_name);
    TVar<long> counter{0};
    sched::run_threads(4, [&](unsigned tid) {
      ThreadCtx ctx(algo->make_tx(), /*seed=*/1000 + tid);
      CtxBinder bind(ctx);
      for (int i = 0; i < 200; ++i) {
        atomically([&](auto& tx) { counter.add(tx, 1); });
      }
    });
    EXPECT_EQ(counter.unsafe_get(), 4 * 200) << algo_name;
  }
}

}  // namespace
}  // namespace semstm
