// Hashtable micro-benchmark (paper §7.1): "a collection of set and get
// operations, where each transaction performed 10 set/get operations" over
// the open-addressing table of Algorithm 2.
#pragma once

#include <cstdint>

#include "containers/topen_hashtable.hpp"
#include "core/atomically.hpp"
#include "workloads/mono.hpp"

namespace semstm {

class HashtableWorkload final : public MonoWorkload<HashtableWorkload> {
 public:
  // Defaults target the paper's regime: a heavily loaded table where
  // probes traverse long chains of cells (Table 3 counts thousands of
  // probe reads per transaction), so concurrent insert/remove churn keeps
  // touching probed cells *without* changing the probe conditions'
  // outcomes — the semantic savings the benchmark demonstrates.
  struct Params {
    std::size_t capacity = 4096;  // power of two
    std::size_t key_space = 3584;
    unsigned ops_per_tx = 10;
    unsigned insert_pct = 20;
    unsigned remove_pct = 20;  // remainder: lookups
    double prefill = 0.85;
  };

  HashtableWorkload(Params p, bool semantic)
      : p_(p), table_(p.capacity, semantic) {}

  /// Explicit probe-mode variant (Fig. 1a's Algorithm 2 probe, ablation A).
  HashtableWorkload(Params p, TOpenHashTable::ProbeMode mode)
      : p_(p), table_(p.capacity, mode) {}

  void setup(Rng& rng) override {
    // Non-transactional prefill through a CGL context would be overkill;
    // fill via a scratch transaction-free path: keys are inserted with the
    // public API before any concurrency starts, so a temporary context of
    // the *cgl* algorithm keeps this simple and safe.
    auto algo = make_algorithm("cgl");
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    const auto target =
        static_cast<std::size_t>(p_.prefill * static_cast<double>(p_.key_space));
    std::size_t inserted = 0;
    while (inserted < target) {
      const auto key = static_cast<std::int64_t>(rng.below(p_.key_space));
      inserted += atomically([&](auto& tx) { return table_.insert(tx, key); });
    }
  }

  template <typename TxT>

  void op_t(unsigned, Rng& rng) {
    struct Op {
      std::int64_t key;
      unsigned kind;  // 0 insert, 1 remove, 2 lookup
    };
    Op plan[32];
    for (unsigned i = 0; i < p_.ops_per_tx; ++i) {
      plan[i].key = static_cast<std::int64_t>(rng.below(p_.key_space));
      const auto roll = static_cast<unsigned>(rng.below(100));
      plan[i].kind = roll < p_.insert_pct                  ? 0u
                     : roll < p_.insert_pct + p_.remove_pct ? 1u
                                                            : 2u;
    }
    atomically<TxT>([&](TxT& tx) {
      for (unsigned i = 0; i < p_.ops_per_tx; ++i) {
        switch (plan[i].kind) {
          case 0: (void)table_.insert(tx, plan[i].key); break;
          case 1: (void)table_.remove(tx, plan[i].key); break;
          default: (void)table_.contains(tx, plan[i].key); break;
        }
      }
    });
  }

  const TOpenHashTable& table() const noexcept { return table_; }

 private:
  Params p_;
  TOpenHashTable table_;
};

}  // namespace semstm
