// Figure 2: the GCC-integration experiments (§7.2).
//
// The benchmark bodies are tmir kernels executed by the transactional
// interpreter with full instrumentation (GCC speculates every read/write
// in a _transaction_atomic block, including locals), in three
// configurations mirroring the paper:
//   NOrec (GCC)        — unmarked IR (plain TM loads/stores) on NOrec
//   NOrec Modified-GCC — tm_mark+tm_optimize IR on NOrec: the semantic
//                        ABI calls exist but delegate to plain reads and
//                        writes inside the algorithm
//   S-NOrec (GCC)      — tm_mark+tm_optimize IR on S-NOrec
//
// Panels: 2a/2b Hashtable (throughput + aborts), 2c/2d Vacation
// (completion time + aborts).
#include <array>

#include "bench/figure_common.hpp"
#include "containers/tarray.hpp"
#include "core/atomically.hpp"
#include "containers/trbtree.hpp"
#include "tmir/interp.hpp"
#include "tmir/kernels.hpp"
#include "tmir/passes.hpp"
#include "workloads/mono.hpp"

namespace semstm::bench {
namespace {

constexpr std::size_t kMaxLocals = 4;

/// Full-instrumentation execution (the GCC configuration): locals routed
/// through TM barriers via a shadow that outlives the transaction.
tmir::InterpOptions gcc_mode(tword* shadow) {
  return tmir::InterpOptions{.instrument_locals = true,
                             .local_shadow = shadow,
                             .max_steps = 1u << 22};
}

/// Open-addressing hashtable driven entirely through interpreted IR.
class IrHashWorkload final : public MonoWorkload<IrHashWorkload> {
 public:
  static constexpr std::size_t kCap = 4096;
  static constexpr std::size_t kKeySpace = 3584;

  explicit IrHashWorkload(bool marked)
      : probe_(tmir::build_probe_kernel()),
        insert_(tmir::build_insert_kernel()),
        remove_(tmir::build_remove_kernel()),
        states_(kCap, 0),
        keys_(kCap, 0) {
    if (marked) {
      for (tmir::Function* f : {&probe_, &insert_, &remove_}) {
        tmir::pass_tm_mark(*f);
        tmir::pass_tm_optimize(*f);
      }
    }
  }

  void setup(Rng& rng) override {
    // Non-transactional prefill to ~85% load.
    std::size_t placed = 0;
    while (placed < kCap * 85 / 100) {
      const auto key = static_cast<std::int64_t>(1 + rng.below(kKeySpace));
      std::size_t i = hash(key);
      for (std::size_t step = 0; step < kCap; ++step) {
        const std::int64_t s = states_[i].unsafe_get();
        if (s == 0) {  // FREE
          states_[i].unsafe_set(1);
          keys_[i].unsafe_set(key);
          ++placed;
          break;
        }
        if (keys_[i].unsafe_get() == key && s == 1) break;  // duplicate
        i = (i + 1) & (kCap - 1);
      }
    }
  }

  template <typename TxT>
  void op_t(unsigned, Rng& rng) {
    struct Planned {
      word_t key;
      unsigned kind;
    };
    std::array<Planned, 10> plan;
    for (auto& p : plan) {
      p.key = 1 + rng.below(kKeySpace);
      const auto roll = rng.below(100);
      p.kind = roll < 20 ? 0u : roll < 40 ? 1u : 2u;  // insert/remove/probe
    }
    tword shadow[kMaxLocals];
    atomically<TxT>([&](TxT& tx) {
      for (const Planned& p : plan) {
        const std::array<word_t, 6> args{
            to_word(states_[0].word()), to_word(keys_[0].word()),
            kCap - 1,                   hash(static_cast<std::int64_t>(p.key)),
            p.key,                      kCap};
        const tmir::Function& f =
            p.kind == 0 ? insert_ : p.kind == 1 ? remove_ : probe_;
        (void)tmir::execute(tx, f, args.data(), args.size(),
                            gcc_mode(shadow));
      }
    });
  }

 private:
  static std::size_t hash(std::int64_t key) noexcept {
    auto h = static_cast<std::uint64_t>(key);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h) & (kCap - 1);
  }

  tmir::Function probe_, insert_, remove_;
  TArray<std::int64_t> states_;
  TArray<std::int64_t> keys_;
};

/// Vacation's reservation profile: RB-tree lookups through the library
/// path (GCC instruments them as plain reads — exactly what its pass does
/// with STAMP's comparator-driven tree code) + the record-check/reserve
/// region as interpreted IR.
class IrVacationWorkload final : public MonoWorkload<IrVacationWorkload> {
 public:
  static constexpr std::size_t kRelations = 256;

  explicit IrVacationWorkload(bool marked)
      : reserve_(tmir::build_reserve_kernel(4)),
        table_(2 * kRelations + 16),
        num_free_(kRelations, 100),
        price_(kRelations, 0) {
    if (marked) {
      tmir::pass_tm_mark(reserve_);
      tmir::pass_tm_optimize(reserve_);
    }
  }

  void setup(Rng& rng) override {
    for (std::size_t i = 0; i < kRelations; ++i) {
      price_[i].unsafe_set(rng.between(50, 500));
    }
    auto algo = make_algorithm("cgl");
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    for (std::size_t id = 0; id < kRelations; ++id) {
      atomically([&](auto& tx) {
        table_.insert(tx, static_cast<std::int64_t>(id),
                      static_cast<std::int64_t>(id));
      });
    }
  }

  template <typename TxT>
  void op_t(unsigned, Rng& rng) {
    std::array<std::int64_t, 4> ids;
    for (auto& id : ids) {
      id = static_cast<std::int64_t>(rng.below(kRelations));
    }
    const bool update_profile = rng.percent(15);
    const std::int64_t new_price = rng.between(50, 500);
    tword shadow[kMaxLocals];
    atomically<TxT>([&](TxT& tx) {
      std::array<word_t, 6> args{to_word(num_free_[0].word()),
                                 to_word(price_[0].word())};
      for (int q = 0; q < 4; ++q) {
        // Table lookup through the tree (plain instrumented reads).
        const auto rec = table_.find(tx, ids[static_cast<std::size_t>(q)]);
        args[2 + static_cast<std::size_t>(q)] =
            rec ? static_cast<word_t>(*rec) : 0;
      }
      if (update_profile) {
        price_[static_cast<std::size_t>(ids[0])].set(tx, new_price);
      } else {
        (void)tmir::execute(tx, reserve_, args.data(), args.size(),
                            gcc_mode(shadow));
      }
    });
  }

 private:
  tmir::Function reserve_;
  TRbMap table_;
  TArray<std::int64_t> num_free_;
  TArray<std::int64_t> price_;
};

}  // namespace
}  // namespace semstm::bench

int main(int argc, char** argv) {
  using namespace semstm;
  using namespace semstm::bench;
  Cli cli(argc, argv);

  const std::vector<AlgoConfig> gcc_series = {
      {"norec", false, "NOrec-GCC"},
      {"norec", true, "NOrec-Modified-GCC"},
      {"snorec", true, "S-NOrec-GCC"},
  };

  FigureSpec hash;
  hash.name = "Figure 2a/2b: Hashtable (GCC path)";
  hash.metric = "throughput";
  hash.threads = {1, 2, 4, 8, 12, 16, 20, 24};
  hash.ops_per_thread = 200;
  hash.series = gcc_series;
  apply_cli(hash, cli);

  FigureSpec vacation;
  vacation.name = "Figure 2c/2d: Vacation (GCC path)";
  vacation.metric = "time";
  vacation.threads = {1, 2, 4, 8, 12, 16, 20, 24};
  vacation.ops_per_thread = 4000;
  vacation.fixed_total_work = true;
  vacation.series = gcc_series;
  apply_cli(vacation, cli);
  cli.reject_unread();

  run_figure(hash, [](bool marked) {
    return std::make_unique<IrHashWorkload>(marked);
  });
  run_figure(vacation, [](bool marked) {
    return std::make_unique<IrVacationWorkload>(marked);
  });
  return 0;
}
