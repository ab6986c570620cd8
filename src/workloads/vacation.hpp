// Vacation (STAMP): an in-memory travel-reservation OLTP emulation.
//
// The database is three red-black-tree tables (cars, flights, rooms) of
// resource records plus a customer table, mirroring STAMP's manager. The
// dominant profile is make-reservation (paper Algorithm 4): scan a handful
// of candidate records, check numFree > 0 and track the best price with
// price > max_price — both TM_GT in the semantic build — then grab the
// chosen resource with TM_INC(numFree, -1). A post-booking sanity check
// re-reads numFree, which *promotes* the increment (the effect the paper
// calls out: "almost all the inc operations were promoted ... because of
// an additional sanity check"). Most reads stay plain tree-internal reads
// (Table 3: ~7% of reads become compares).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "containers/trbtree.hpp"
#include "core/atomically.hpp"
#include "workloads/mono.hpp"

namespace semstm {

class VacationWorkload final : public MonoWorkload<VacationWorkload> {
 public:
  struct Params {
    std::size_t relations = 256;   // records per resource table
    std::size_t customers = 256;
    unsigned queries_per_tx = 4;   // candidate records scanned (Alg. 4 loop)
    unsigned reserve_pct = 80;     // profiles: reserve / update / delete
    unsigned update_pct = 10;
    long initial_free = 100;
  };

  VacationWorkload(Params p, bool semantic)
      : p_(p),
        semantic_(semantic),
        cars_(2 * p.relations + 16),
        flights_(2 * p.relations + 16),
        rooms_(2 * p.relations + 16),
        customers_(2 * p.customers + 16),
        record_count_(3 * p.relations),
        records_(std::make_unique<Record[]>(3 * p.relations)) {}

  void setup(Rng& rng) override {
    auto algo = make_algorithm("cgl");
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    TRbMap* tables[3] = {&cars_, &flights_, &rooms_};
    std::size_t slot = 0;
    for (int t = 0; t < 3; ++t) {
      for (std::size_t id = 0; id < p_.relations; ++id, ++slot) {
        records_[slot].num_free.unsafe_set(p_.initial_free);
        records_[slot].price.unsafe_set(rng.between(50, 500));
        total_capacity_ += p_.initial_free;
        atomically([&](auto& tx) {
          tables[t]->insert(tx, static_cast<std::int64_t>(id),
                            static_cast<std::int64_t>(slot));
        });
      }
    }
    for (std::size_t c = 0; c < p_.customers; ++c) {
      atomically([&](auto& tx) {
        customers_.insert(tx, static_cast<std::int64_t>(c), 0);
      });
    }
  }

  template <typename TxT>

  void op_t(unsigned, Rng& rng) {
    const auto roll = static_cast<unsigned>(rng.below(100));
    if (roll < p_.reserve_pct) {
      make_reservation<TxT>(rng);
    } else if (roll < p_.reserve_pct + p_.update_pct) {
      update_tables<TxT>(rng);
    } else {
      delete_customer<TxT>(rng);
    }
  }

  void verify() override {
    // Conservation: every successful booking moved exactly one unit from
    // numFree; free units + bookings must equal the initial capacity.
    std::int64_t free_units = 0;
    for (std::size_t i = 0; i < record_count_; ++i) {
      const std::int64_t f = records_[i].num_free.unsafe_get();
      if (f < 0) {
        throw std::logic_error("vacation: negative free count (oversold)");
      }
      free_units += f;
    }
    const auto booked =
        static_cast<std::int64_t>(bookings_.load(std::memory_order_relaxed));
    if (free_units + booked != total_capacity_) {
      throw std::logic_error("vacation: resource units not conserved");
    }
  }

 private:
  struct Record {
    TVar<std::int64_t> num_free;
    TVar<std::int64_t> price;
  };

  TRbMap& table_of(unsigned t) {
    return t == 0 ? cars_ : t == 1 ? flights_ : rooms_;
  }

  /// Paper Algorithm 4.
  template <typename TxT>
  void make_reservation(Rng& rng) {
    const unsigned t = static_cast<unsigned>(rng.below(3));
    std::int64_t ids[8];
    for (unsigned q = 0; q < p_.queries_per_tx; ++q) {
      ids[q] = static_cast<std::int64_t>(rng.below(p_.relations));
    }
    const auto customer = static_cast<std::int64_t>(rng.below(p_.customers));
    TRbMap& table = table_of(t);

    const bool booked = atomically<TxT>([&](TxT& tx) -> bool {
      long max_price = -1;
      std::int64_t max_id = -1;
      for (unsigned q = 0; q < p_.queries_per_tx; ++q) {
        const auto res = table.find(tx, ids[q]);
        if (!res) continue;
        Record& rec = records_[static_cast<std::size_t>(*res)];
        if (semantic_) {
          if (rec.num_free.gt(tx, 0)) {          // TM_GT(numFree, 0)
            if (rec.price.gt(tx, max_price)) {   // TM_GT(price, max_price)
              max_price = rec.price.get(tx);
              max_id = ids[q];
            }
          }
        } else {
          if (rec.num_free.get(tx) > 0) {
            const long price = rec.price.get(tx);
            if (price > max_price) {
              max_price = price;
              max_id = ids[q];
            }
          }
        }
      }
      if (max_id < 0) return false;
      const auto chosen = table.find(tx, max_id);
      if (!chosen) return false;
      Record& rec = records_[static_cast<std::size_t>(*chosen)];
      if (semantic_) {
        rec.num_free.sub(tx, 1);  // TM_INC(numFree, -1)
      } else {
        rec.num_free.set(tx, rec.num_free.get(tx) - 1);
      }
      // Sanity check (STAMP's reservation_info invariants): re-reading the
      // counter promotes the pending increment.
      if (rec.num_free.get(tx) < 0) {
        rec.num_free.set(tx, 0);  // never happens; mirrors STAMP's guard
        return false;
      }
      // Bill the customer.
      if (auto bill = customers_.find_slot(tx, customer)) {
        if (semantic_) {
          bill->add(tx, max_price);
        } else {
          bill->set(tx, bill->get(tx) + max_price);
        }
      }
      return true;
    });
    if (booked) bookings_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The "update offers" profile: change prices / add capacity.
  template <typename TxT>
  void update_tables(Rng& rng) {
    const unsigned t = static_cast<unsigned>(rng.below(3));
    const auto id = static_cast<std::int64_t>(rng.below(p_.relations));
    const long new_price = rng.between(50, 500);
    TRbMap& table = table_of(t);
    atomically<TxT>([&](TxT& tx) {
      const auto res = table.find(tx, id);
      if (!res) return;
      Record& rec = records_[static_cast<std::size_t>(*res)];
      rec.price.set(tx, new_price);
    });
  }

  template <typename TxT>
  void delete_customer(Rng& rng) {
    const auto customer = static_cast<std::int64_t>(rng.below(p_.customers));
    atomically<TxT>([&](TxT& tx) {
      if (customers_.erase(tx, customer)) {
        customers_.insert(tx, customer, 0);  // re-open the account
      }
    });
  }

  Params p_;
  bool semantic_;
  TRbMap cars_, flights_, rooms_, customers_;
  std::size_t record_count_;
  std::unique_ptr<Record[]> records_;
  std::int64_t total_capacity_ = 0;
  std::atomic<std::uint64_t> bookings_{0};
};

}  // namespace semstm
