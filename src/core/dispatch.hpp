// The single point of type erasure (DESIGN.md §4.12).
//
// dispatch_algorithm(id, visitor) switches once over the closed AlgoId set
// and invokes a generic visitor with a tag carrying the concrete types —
// the algorithm class and the sealed descriptor core. Inside the visitor
// every read/write/cmp/inc is a non-virtual call the compiler can inline
// into the surrounding code (the write-set Bloom filter, read-set dedup
// and orec cache fold into workload loops). The untemplated atomically(),
// MonoWorkload::run_ops() and Algorithm::make_tx() all go through here.
//
//   dispatch_algorithm(algo_id(name), [&](auto tag) {
//     using TxT = typename decltype(tag)::tx_type;
//     return atomically<TxT>([&](TxT& tx) { return x.get(tx); });
//   });
#pragma once

#include <string_view>
#include <utility>

#include "algos/cgl.hpp"
#include "algos/norec.hpp"
#include "algos/snorec.hpp"
#include "algos/stl2.hpp"
#include "algos/tl2.hpp"
#include "core/algorithm.hpp"

namespace semstm {

/// Compile-time handle for one algorithm: its Algorithm subclass and its
/// monomorphic descriptor core.
template <typename AlgoT, typename CoreT>
struct AlgoTag {
  using algorithm_type = AlgoT;
  using tx_type = CoreT;
  static constexpr AlgoId id = CoreT::kId;
};

/// Monomorphize over the algorithm named by `id`: invokes `visitor` with
/// the AlgoTag of the concrete algorithm/core pair and returns its result.
template <typename V>
decltype(auto) dispatch_algorithm(AlgoId id, V&& visitor) {
  switch (id) {
    case AlgoId::kCgl:
      return std::forward<V>(visitor)(AlgoTag<CglAlgorithm, CglCore>{});
    case AlgoId::kNorec:
      return std::forward<V>(visitor)(AlgoTag<NorecAlgorithm, NorecCore>{});
    case AlgoId::kSnorec:
      return std::forward<V>(visitor)(AlgoTag<SnorecAlgorithm, SnorecCore>{});
    case AlgoId::kTl2:
      return std::forward<V>(visitor)(AlgoTag<Tl2Algorithm, Tl2Core>{});
    case AlgoId::kStl2:
    default:
      return std::forward<V>(visitor)(AlgoTag<Stl2Algorithm, Stl2Core>{});
  }
}

/// Name-keyed convenience overload (throws std::invalid_argument through
/// algo_id for unknown names).
template <typename V>
decltype(auto) dispatch_algorithm(std::string_view name, V&& visitor) {
  return dispatch_algorithm(algo_id(name), std::forward<V>(visitor));
}

}  // namespace semstm
