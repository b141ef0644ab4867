// Counting global operator new/delete for the benchmark binary.
//
// Every allocation made through operator new (the library's containers,
// arenas and pools included) adds its usable size to a live-byte total
// and bumps an allocation count; every delete subtracts. The peak is a
// high-water mark of the live total since the last reset_peak(). Peaks
// and counts are exact for a given input and call sequence, so heap
// metrics need no repetition to be steady.
#pragma once

#include <cstdint>

namespace perfbench {

struct HeapCounters {
  std::int64_t live_bytes = 0;
  std::int64_t peak_bytes = 0;
  std::uint64_t allocations = 0;
};

[[nodiscard]] HeapCounters heap_counters();

/// Restart the high-water mark at the current live total.
void reset_heap_peak();

}  // namespace perfbench
