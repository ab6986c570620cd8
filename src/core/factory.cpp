#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "core/algorithm.hpp"
#include "core/dispatch.hpp"

namespace semstm {

namespace {

/// The Tx handle for a `Core`. The core lives in its own allocation so it
/// is fully constructed before the handle binds its pointer and references.
template <typename Core>
class CoreTx final : public Tx {
 public:
  explicit CoreTx(std::unique_ptr<Core> core)
      : Tx(Core::kId, core.get(), *core), core_(std::move(core)) {}

 private:
  std::unique_ptr<Core> core_;
};

}  // namespace

AlgoId algo_id(std::string_view name) {
  if (name == "cgl") return AlgoId::kCgl;
  if (name == "norec") return AlgoId::kNorec;
  if (name == "snorec") return AlgoId::kSnorec;
  if (name == "tl2") return AlgoId::kTl2;
  if (name == "stl2") return AlgoId::kStl2;
  throw std::invalid_argument("unknown TM algorithm: " + std::string(name));
}

std::unique_ptr<Algorithm> make_algorithm(std::string_view name,
                                          const AlgoOptions& opts) {
  // Plumbing check: OrecTable shifts 1 << orec_log2 without further
  // validation, so a typo'd value would either degenerate the table or
  // silently allocate gigabytes. Reject out-of-range values loudly here,
  // for every algorithm — the option travels in AlgoOptions regardless of
  // which algorithm consumes it.
  if (opts.orec_log2 < AlgoOptions::kOrecLog2Min ||
      opts.orec_log2 > AlgoOptions::kOrecLog2Max) {
    throw std::invalid_argument(
        "AlgoOptions.orec_log2 = " + std::to_string(opts.orec_log2) +
        " is out of range [" + std::to_string(AlgoOptions::kOrecLog2Min) +
        ", " + std::to_string(AlgoOptions::kOrecLog2Max) + "]");
  }
  return dispatch_algorithm(
      algo_id(name), [&](auto tag) -> std::unique_ptr<Algorithm> {
        using AlgoT = typename decltype(tag)::algorithm_type;
        if constexpr (std::is_constructible_v<AlgoT, const AlgoOptions&>) {
          return std::make_unique<AlgoT>(opts);
        } else {
          return std::make_unique<AlgoT>();
        }
      });
}

std::unique_ptr<Tx> Algorithm::make_tx() {
  return dispatch_algorithm(
      algo_id(name()), [&](auto tag) -> std::unique_ptr<Tx> {
        using AlgoT = typename decltype(tag)::algorithm_type;
        using Core = typename decltype(tag)::tx_type;
        return std::make_unique<CoreTx<Core>>(
            std::make_unique<Core>(static_cast<AlgoT&>(*this)));
      });
}

const std::vector<std::string>& algorithm_names() {
  static const std::vector<std::string> names = {"cgl", "norec", "snorec",
                                                 "tl2", "stl2"};
  return names;
}

}  // namespace semstm
