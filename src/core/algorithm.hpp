// Algorithm: the factory for transaction descriptors plus the shared state
// they coordinate through (global clocks, orec tables, locks).
//
// One Algorithm instance corresponds to one "TM system" — an experiment
// instantiates it once and calls make_tx() per worker thread.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/tx.hpp"
#include "runtime/serial_gate.hpp"

namespace semstm {

struct AlgoOptions {
  /// Orec table size (log2) for TL2-family algorithms. make_algorithm
  /// validates the range [kOrecLog2Min, kOrecLog2Max]: 0 would degenerate
  /// to a single global lock-word, and anything past 28 silently allocates
  /// multi-gigabyte tables (or overflows the shift on exotic targets).
  unsigned orec_log2 = 16;

  static constexpr unsigned kOrecLog2Min = 1;
  static constexpr unsigned kOrecLog2Max = 28;
};

/// Resolve an algorithm name ("cgl", "norec", "snorec", "tl2", "stl2") to
/// its AlgoId. Throws std::invalid_argument for unknown names.
AlgoId algo_id(std::string_view name);

class Algorithm {
 public:
  virtual ~Algorithm() = default;
  virtual const char* name() const noexcept = 0;
  /// True for algorithms that handle cmp/inc semantically (S-NOrec, S-TL2).
  virtual bool semantic() const noexcept = 0;
  /// A fresh descriptor of this algorithm's core type (the one
  /// dispatch_algorithm() names for algo_id(name())).
  std::unique_ptr<Tx> make_tx();

  /// The serial-irrevocable gate every descriptor of this TM instance
  /// honours at begin()/commit() (see runtime/serial_gate.hpp).
  SerialGate& serial_gate() noexcept { return gate_; }

 private:
  SerialGate gate_;
};

/// Create an algorithm by name: "cgl", "norec", "snorec", "tl2", "stl2".
/// Throws std::invalid_argument for unknown names.
std::unique_ptr<Algorithm> make_algorithm(std::string_view name,
                                          const AlgoOptions& opts = {});

/// All registered algorithm names, in canonical benchmark order.
const std::vector<std::string>& algorithm_names();

}  // namespace semstm
