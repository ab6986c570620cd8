// The paper's queue example (Algorithm 3), live: producers and consumers
// hammer one bounded queue. With a semantic TM algorithm the dequeue's
// empty-check is a single address–address TM_EQ and the head advance a
// TM_INC, so enqueues and dequeues commute whenever the queue is
// non-empty — compare the abort counts:
//
//   $ ./concurrent_queue --algo norec     # classical constructs
//   $ ./concurrent_queue --algo snorec    # semantic constructs
//
// Exits 1 if produced - consumed differs from what is left in the queue.
// Enqueues into a full queue fail and are counted apart (`full=`); with
// --threads 3 (two producers, one consumer) the queue fills.
#include <cstdio>

#include "containers/tqueue.hpp"
#include "semstm.hpp"
#include "sched/virtual_scheduler.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  const std::string algo_name = cli.get("algo", "snorec");
  const auto threads = cli.get_uint<unsigned>("threads", 8);
  const auto ops = cli.get_uint<std::uint64_t>("ops", 2000);
  cli.reject_unread();

  auto algo = make_algorithm(algo_name);
  TQueue queue(1024, /*use_semantics=*/algo->semantic());

  // Producers (even ids) and consumers (odd ids) on the virtual N-core
  // scheduler — deterministic and runnable on any machine.
  std::vector<std::unique_ptr<ThreadCtx>> ctxs;
  for (unsigned t = 0; t < threads; ++t) {
    ctxs.push_back(std::make_unique<ThreadCtx>(algo->make_tx()));
  }
  std::uint64_t produced = 0, consumed = 0, full = 0;

  sched::VirtualScheduler sim;
  sim.run(threads, [&](unsigned tid) {
    CtxBinder bind(*ctxs[tid]);
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (tid % 2 == 0) {
        if (atomically([&](auto& tx) {
              return queue.enqueue(tx, static_cast<std::int64_t>(i));
            })) {
          ++produced;  // single carrier thread: plain counters are fine
        } else {
          ++full;
        }
      } else {
        if (atomically([&](auto& tx) { return queue.dequeue(tx); })) {
          ++consumed;
        }
      }
    }
  });

  TxStats total;
  for (const auto& c : ctxs) total += c->tx->stats;
  const bool conserved =
      produced - consumed == static_cast<std::uint64_t>(queue.unsafe_size());
  std::printf("algorithm=%s threads=%u\n", algo->name(), threads);
  std::printf("produced=%llu consumed=%llu left=%lld (conserved: %s)\n",
              static_cast<unsigned long long>(produced),
              static_cast<unsigned long long>(consumed),
              static_cast<long long>(queue.unsafe_size()),
              conserved ? "yes" : "NO");
  std::printf("full=%llu (enqueues refused by the full queue)\n",
              static_cast<unsigned long long>(full));
  std::printf("commits=%llu aborts=%llu abort%%=%.2f\n",
              static_cast<unsigned long long>(total.commits),
              static_cast<unsigned long long>(total.aborts),
              total.abort_pct());
  return conserved ? 0 : 1;
}
