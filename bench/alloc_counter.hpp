// Process-wide heap allocation counter for benches.
//
// alloc_counter.cpp replaces the global operator new and operator delete
// (every form) with malloc/free wrappers that count calls and requested
// bytes. Link it into one bench binary only; the counts cover every
// thread of that process.
#pragma once

#include <cstdint>

namespace dovado::bench {

struct AllocCount {
  std::uint64_t allocs = 0;  ///< operator new calls
  std::uint64_t bytes = 0;   ///< bytes requested by those calls
};

/// Totals since program start.
[[nodiscard]] AllocCount alloc_count();

}  // namespace dovado::bench
