// Quickstart: the semstm API in 60 lines.
//
//   $ ./quickstart [--algo snorec]
//
// Creates a TM system, runs a few transactions exercising the classical
// (TM_READ/TM_WRITE) and semantic (TM_GTE/TM_INC/TM_DEC) constructs, and
// prints what happened. Exits 1 if the transfers did not conserve money.
#include <cstdio>

#include "obs/report.hpp"
#include "semstm.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  const std::string algo_name = cli.get("algo", "snorec");
  cli.reject_unread();

  // 1. Instantiate a TM algorithm (one per "TM system").
  auto algo = make_algorithm(algo_name);

  // 2. Bind a per-thread transaction descriptor.
  ThreadCtx ctx(algo->make_tx());
  CtxBinder bind(ctx);

  // 3. Declare transactional variables.
  TVar<long> checking(100);
  TVar<long> savings(0);

  // 4. Classical constructs: read and write.
  atomically([&](auto& tx) {
    const long value = checking.get(tx);  // TM_READ
    checking.set(tx, value + 25);         // TM_WRITE
  });
  std::printf("after deposit:   checking=%ld savings=%ld\n",
              checking.unsafe_get(), savings.unsafe_get());

  // 5. Semantic constructs: the paper's TM-friendly API. The overdraft
  //    check is TM_GTE — the transaction stays valid as long as the
  //    *outcome* of the comparison holds, even if the balance changes.
  for (int i = 0; i < 3; ++i) {
    atomically([&](auto& tx) {
      if (checking.gte(tx, 50)) {  // TM_GTE(checking, 50)
        checking.sub(tx, 50);      // TM_DEC(checking, 50)
        savings.add(tx, 50);       // TM_INC(savings, 50)
      }
    });
  }
  std::printf("after transfers: checking=%ld savings=%ld\n",
              checking.unsafe_get(), savings.unsafe_get());

  // 6. A transaction can return a value.
  const long total = atomically(
      [&](auto& tx) { return checking.get(tx) + savings.get(tx); });
  const bool conserved = total == 100 + 25;  // opening balance + deposit
  std::printf("total=%ld (conserved: %s)\n", total, conserved ? "yes" : "NO");

  const TxStats& s = ctx.tx->stats;
  std::printf(
      "stats [%s]: commits=%llu aborts=%llu reads=%llu writes=%llu "
      "compares=%llu increments=%llu\n",
      algo->name(), static_cast<unsigned long long>(s.commits),
      static_cast<unsigned long long>(s.aborts),
      static_cast<unsigned long long>(s.reads),
      static_cast<unsigned long long>(s.writes),
      static_cast<unsigned long long>(s.compares),
      static_cast<unsigned long long>(s.increments));

  // 7. Contention cartography: which locations this descriptor aborted
  //    over, via the public reporting API (obs/report.hpp). Conflict-free
  //    and unobserved (no sink bound) here, so this prints the truthful
  //    "none recorded" line; run a fig1 bench with --metrics-out and render
  //    it with tm_top for the real thing.
  const auto hot = obs::top_sites(ctx.tx->base.conflict_map(), 5);
  std::fputs(obs::render_hot_sites(hot).c_str(), stdout);
  return conserved ? 0 : 1;
}
