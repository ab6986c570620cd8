// prefetch_for_write: request a cache line in exclusive state ahead of the
// stores a commit is about to make (DESIGN.md §4.16, commit-path prefetch).
//
// A prefetch has no architectural effect: it changes no value, orders no
// access and cannot fault, so it is invisible to every memory-model
// argument and to the fiber simulator (which charges no tick for it).
//
// On x86-64 the helper issues PREFETCHW, the read-for-ownership hint.
// GCC's __builtin_prefetch(p, 1) emits PREFETCHW only when the target has
// -mprfchw; under the default x86-64 target it emits PREFETCHT0, a read
// hint that fetches the line in shared state and leaves the ownership
// request to the store itself. PREFETCHW is not baseline x86-64 (CPUID
// 8000_0001h ECX bit 8), so the bit is read once at start-up and the
// helper does nothing on a CPU without it. Other targets use the builtin
// write hint, which maps to their own prefetch-for-store.
#pragma once

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace semstm {

#if defined(__x86_64__)
namespace detail {
inline const bool kHasPrefetchW = [] {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(0x80000001u, &eax, &ebx, &ecx, &edx) != 0 &&
         (ecx & bit_PRFCHW) != 0;
}();
}  // namespace detail
#endif

inline void prefetch_for_write(const void* p) noexcept {
#if defined(__x86_64__)
  if (detail::kHasPrefetchW) {
    asm volatile("prefetchw %0" : : "m"(*static_cast<const char*>(p)));
  }
#else
  __builtin_prefetch(p, 1, 3);
#endif
}

}  // namespace semstm
