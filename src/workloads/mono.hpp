// MonoWorkload: the adapter between the Workload interface and the
// concrete descriptor cores (DESIGN.md §4.12).
//
// A workload derives from MonoWorkload<Self> and implements ONE body,
//
//   template <typename TxT> void op_t(unsigned tid, Rng& rng);
//
// written against the deduced descriptor type (its atomically<TxT> lambdas
// take TxT&, and every TVar/container call forwards TxT). run_ops()
// switches once per thread loop on the bound context's algorithm
// (dispatch_algorithm) and instantiates op_t<Core> for its concrete core:
// no virtual call inside the loop.
#pragma once

#include <cstdint>

#include "core/context.hpp"
#include "core/dispatch.hpp"
#include "workloads/driver.hpp"

namespace semstm {

template <typename Derived>
class MonoWorkload : public Workload {
 public:
  void run_ops(unsigned tid, Rng& rng, std::uint64_t ops) final {
    ThreadCtx* ctx = tls_ctx();
    if (ctx == nullptr || ctx->tx == nullptr) die_no_ctx("run_ops()");
    dispatch_algorithm(ctx->algo, [&](auto tag) {
      using TxT = typename decltype(tag)::tx_type;
      Derived& self = static_cast<Derived&>(*this);
      for (std::uint64_t i = 0; i < ops; ++i) {
        self.template op_t<TxT>(tid, rng);
      }
    });
  }
};

}  // namespace semstm
