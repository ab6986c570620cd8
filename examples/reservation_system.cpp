// A miniature travel-reservation service (the Vacation motivation,
// Algorithm 4): clients book whichever candidate resource has free slots
// at the best price. The checks are semantic — a reservation "does not use
// the exact value of price or the amount of available resources, it just
// checks if the price is in the right range and resources are still
// available" (paper §3.1) — so concurrent price updates and bookings that
// keep those outcomes true do not abort each other.
//
//   $ ./reservation_system --algo stl2 --threads 8
//
// Exits 1 if booked + remaining slots differs from the initial capacity.
// A reservation that finds no candidate with a free slot is refused and
// counted apart (`refused=`); enough --sessions sell the slots out.
#include <cstdio>

#include "containers/trbtree.hpp"
#include "semstm.hpp"
#include "sched/virtual_scheduler.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

struct Resource {
  semstm::TVar<std::int64_t> free_slots;
  semstm::TVar<std::int64_t> price;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace semstm;
  Cli cli(argc, argv);
  const std::string algo_name = cli.get("algo", "stl2");
  const auto threads = cli.get_uint<unsigned>("threads", 8);
  const auto sessions = cli.get_uint<std::uint64_t>("sessions", 1500);
  cli.reject_unread();
  constexpr std::size_t kResources = 128;
  constexpr std::int64_t kInitialSlots = 200;

  auto algo = make_algorithm(algo_name);
  const bool semantic = algo->semantic();

  // The catalogue: an RB-tree index over a record pool, as in STAMP.
  TRbMap catalogue(2 * kResources + 16);
  auto records = std::make_unique<Resource[]>(kResources);
  {
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    Rng rng(2026);
    for (std::size_t id = 0; id < kResources; ++id) {
      records[id].free_slots.unsafe_set(kInitialSlots);
      records[id].price.unsafe_set(rng.between(80, 400));
      atomically([&](auto& tx) {
        catalogue.insert(tx, static_cast<std::int64_t>(id),
                         static_cast<std::int64_t>(id));
      });
    }
  }

  std::vector<std::unique_ptr<ThreadCtx>> ctxs;
  std::vector<Rng> rngs;
  for (unsigned t = 0; t < threads; ++t) {
    ctxs.push_back(std::make_unique<ThreadCtx>(algo->make_tx()));
    rngs.emplace_back(77 + t);
  }
  std::uint64_t booked = 0, refused = 0;

  sched::VirtualScheduler sim;
  sim.run(threads, [&](unsigned tid) {
    CtxBinder bind(*ctxs[tid]);
    Rng& rng = rngs[tid];
    for (std::uint64_t s = 0; s < sessions; ++s) {
      if (rng.percent(15)) {  // price-update profile
        const auto id = static_cast<std::int64_t>(rng.below(kResources));
        const std::int64_t np = rng.between(80, 400);
        atomically([&](auto& tx) {
          if (auto rec = catalogue.find(tx, id)) {
            records[static_cast<std::size_t>(*rec)].price.set(tx, np);
          }
        });
        continue;
      }
      // Reservation: scan 4 candidates, book the priciest available one.
      std::int64_t ids[4];
      for (auto& id : ids) {
        id = static_cast<std::int64_t>(rng.below(kResources));
      }
      const bool ok = atomically([&](auto& tx) -> bool {
        std::int64_t best = -1;
        long max_price = -1;
        for (const std::int64_t id : ids) {
          const auto rec = catalogue.find(tx, id);
          if (!rec) continue;
          Resource& r = records[static_cast<std::size_t>(*rec)];
          const bool available =
              semantic ? r.free_slots.gt(tx, 0) : r.free_slots.get(tx) > 0;
          if (!available) continue;
          const bool pricier =
              semantic ? r.price.gt(tx, max_price) : r.price.get(tx) > max_price;
          if (pricier) {
            max_price = r.price.get(tx);
            best = *rec;
          }
        }
        if (best < 0) return false;
        Resource& r = records[static_cast<std::size_t>(best)];
        if (semantic) {
          r.free_slots.sub(tx, 1);
        } else {
          r.free_slots.set(tx, r.free_slots.get(tx) - 1);
        }
        return true;
      });
      if (ok) {
        ++booked;
      } else {
        ++refused;
      }
    }
  });

  // Conservation audit.
  std::int64_t remaining = 0;
  for (std::size_t id = 0; id < kResources; ++id) {
    remaining += records[id].free_slots.unsafe_get();
  }
  const std::int64_t capacity =
      static_cast<std::int64_t>(kResources) * kInitialSlots;
  const bool conserved =
      remaining + static_cast<std::int64_t>(booked) == capacity;
  TxStats total;
  for (const auto& c : ctxs) total += c->tx->stats;

  std::printf("algorithm=%s threads=%u sessions=%llu\n", algo->name(), threads,
              static_cast<unsigned long long>(sessions));
  std::printf("booked=%llu remaining_slots=%lld (capacity %lld, conserved: %s)\n",
              static_cast<unsigned long long>(booked),
              static_cast<long long>(remaining),
              static_cast<long long>(capacity), conserved ? "yes" : "NO");
  std::printf("refused=%llu (reservations with no available candidate)\n",
              static_cast<unsigned long long>(refused));
  std::printf("commits=%llu aborts=%llu abort%%=%.2f promotions=%llu\n",
              static_cast<unsigned long long>(total.commits),
              static_cast<unsigned long long>(total.aborts), total.abort_pct(),
              static_cast<unsigned long long>(total.promotions));
  return conserved ? 0 : 1;
}
