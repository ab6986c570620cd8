// Abort-cause taxonomy: *why* a transaction attempt rolled back.
//
// The paper's evaluation argument is that S-NOrec / S-TL2 abort less than
// their base algorithms because semantic validation tolerates value churn
// that value/version validation does not. Aggregate abort counts cannot
// show that — a per-cause histogram can: a semantic algorithm should shift
// aborts *out of* kReadValidation (a value/version mismatch) and keep only
// the kCmpRevalidation events where the relation's outcome genuinely
// flipped. Every abort site in the five algorithms tags its throw with one
// of these causes (plus the conflicting address or orec), atomically()
// folds the tag into TxStats::abort_causes, and the tracing layer attaches
// it to the abort event.
#pragma once

#include <cstddef>
#include <cstdint>

namespace semstm::obs {

enum class AbortCause : std::uint8_t {
  kUnknown = 0,         ///< untagged (a TxAbort thrown outside abort_tx())
  kReadValidation,      ///< value/version read-set validation failed
  kWriteLockConflict,   ///< a needed orec/lock was held by another tx
  kCmpRevalidation,     ///< a semantic compare-set entry's outcome flipped
  kClockOverflow,       ///< global version/timestamp wrapped (epoch end)
  kSerialGatePreempt,   ///< conflict observed while a serial-irrevocable
                        ///< transaction was pending or running (the abort
                        ///< clears the way for the token holder)
  kUserAbort,           ///< explicit TxCoreBase::user_abort()
  kCount_,              ///< sentinel, not a cause
};

inline constexpr std::size_t kAbortCauseCount =
    static_cast<std::size_t>(AbortCause::kCount_);

/// Stable snake_case identifiers, used verbatim as JSON keys by the bench
/// harness and the trace exporter.
inline const char* abort_cause_name(AbortCause c) noexcept {
  switch (c) {
    case AbortCause::kUnknown:          return "unknown";
    case AbortCause::kReadValidation:   return "read_validation";
    case AbortCause::kWriteLockConflict: return "write_lock_conflict";
    case AbortCause::kCmpRevalidation:  return "cmp_revalidation";
    case AbortCause::kClockOverflow:    return "clock_overflow";
    case AbortCause::kSerialGatePreempt: return "serial_gate_preempt";
    case AbortCause::kUserAbort:        return "user_abort";
    case AbortCause::kCount_:           break;
  }
  return "invalid";
}

/// "No orec": the abort was not resolved at orec granularity (NOrec-family
/// value/cmp validation, or algorithms without ownership records).
inline constexpr std::uint32_t kNoOrec = 0xFFFFFFFFu;

/// The tag an abort site attaches to its throw: the cause plus the
/// conflicting location — a transactional word where the site knows it, an
/// orec for lock/validation conflicts resolved at orec granularity, null
/// where no single location exists (e.g. clock overflow). Orec-based
/// algorithms additionally report the conflicting orec's table index and,
/// when the site could read one, the owning transaction at conflict time —
/// the aborter->owner edge the conflict map (obs/conflict_map.hpp)
/// accumulates. `owner` is a best-effort hint (the owner may release
/// between the conflict and the read), never a synchronization artifact.
struct AbortInfo {
  AbortCause cause = AbortCause::kUnknown;
  const void* addr = nullptr;
  std::uint32_t orec = kNoOrec;
  const void* owner = nullptr;
};

}  // namespace semstm::obs
