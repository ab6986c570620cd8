// Intruder (STAMP): network intrusion detection. The transactional kernel
// dequeues a packet fragment and threads it into its flow's reassembly
// state; a flow whose last fragment arrived is retired to the "done" side.
//
// Like Genome, Intruder exposes almost no TM-friendly patterns (Table 3:
// no compares/increments detected), so both builds run the plain
// read/write form; it participates in Table 3 only.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "containers/tarray.hpp"
#include "containers/tqueue.hpp"
#include "core/atomically.hpp"
#include "workloads/mono.hpp"

namespace semstm {

class IntruderWorkload final : public MonoWorkload<IntruderWorkload> {
 public:
  struct Params {
    std::size_t flows = 256;
    unsigned fragments_per_flow = 8;
    std::size_t queue_capacity = 1 << 14;
  };

  IntruderWorkload(Params p, bool /*semantic: intentionally unused*/)
      : p_(p),
        packets_(p.queue_capacity, /*use_semantics=*/false),
        received_(p.flows, 0),
        done_(p.flows, 0) {}

  void setup(Rng& rng) override {
    auto algo = make_algorithm("cgl");
    ThreadCtx ctx(algo->make_tx());
    CtxBinder bind(ctx);
    // Pre-capture the packet stream: every flow's fragments, shuffled.
    std::vector<std::int64_t> stream;
    stream.reserve(p_.flows * p_.fragments_per_flow);
    for (std::size_t f = 0; f < p_.flows; ++f) {
      for (unsigned k = 0; k < p_.fragments_per_flow; ++k) {
        stream.push_back(static_cast<std::int64_t>(f));
      }
    }
    for (std::size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.below(i)]);
    }
    for (const std::int64_t pkt : stream) {
      atomically([&](auto& tx) { (void)packets_.enqueue(tx, pkt); });
    }
  }

  template <typename TxT>

  void op_t(unsigned, Rng&) {
    atomically<TxT>([&](TxT& tx) {
      const auto pkt = packets_.dequeue(tx);
      if (!pkt) return;  // stream drained
      const auto flow = static_cast<std::size_t>(*pkt);
      const std::int64_t have = received_[flow].get(tx);
      received_[flow].set(tx, have + 1);
      if (have + 1 == static_cast<std::int64_t>(p_.fragments_per_flow)) {
        done_[flow].set(tx, 1);
      }
    });
  }

  void verify() override {
    // Fragment conservation: processed + still queued == injected.
    std::int64_t processed = 0;
    for (std::size_t f = 0; f < p_.flows; ++f) {
      const std::int64_t got = received_[f].unsafe_get();
      if (got > static_cast<std::int64_t>(p_.fragments_per_flow)) {
        throw std::logic_error("intruder: flow over-received fragments");
      }
      if (done_[f].unsafe_get() &&
          got != static_cast<std::int64_t>(p_.fragments_per_flow)) {
        throw std::logic_error("intruder: flow retired early");
      }
      processed += got;
    }
    const auto injected =
        static_cast<std::int64_t>(p_.flows * p_.fragments_per_flow);
    if (processed + packets_.unsafe_size() != injected) {
      throw std::logic_error("intruder: fragments lost or duplicated");
    }
  }

 private:
  Params p_;
  TQueue packets_;
  TArray<std::int64_t> received_;
  TArray<std::int64_t> done_;
};

}  // namespace semstm
