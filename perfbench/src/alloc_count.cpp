#include "alloc_count.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
std::atomic<std::uint64_t> g_allocations{0};

void note_alloc(void* block) {
  const auto size = static_cast<std::int64_t>(malloc_usable_size(block));
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* block) {
  if (block == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(block)),
                   std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  void* block = std::malloc(size == 0 ? 1 : size);
  if (block == nullptr) throw std::bad_alloc();
  note_alloc(block);
  return block;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  void* block = std::aligned_alloc(alignment, rounded);
  if (block == nullptr) throw std::bad_alloc();
  note_alloc(block);
  return block;
}

void counted_free(void* block) noexcept {
  note_free(block);
  std::free(block);
}

}  // namespace

namespace perfbench {

HeapCounters heap_counters() {
  HeapCounters out;
  out.live_bytes = g_live.load(std::memory_order_relaxed);
  out.peak_bytes = g_peak.load(std::memory_order_relaxed);
  out.allocations = g_allocations.load(std::memory_order_relaxed);
  return out;
}

void reset_heap_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* block) noexcept { counted_free(block); }
void operator delete[](void* block) noexcept { counted_free(block); }
void operator delete(void* block, std::size_t) noexcept { counted_free(block); }
void operator delete[](void* block, std::size_t) noexcept { counted_free(block); }
void operator delete(void* block, std::align_val_t) noexcept {
  counted_free(block);
}
void operator delete[](void* block, std::align_val_t) noexcept {
  counted_free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  counted_free(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  counted_free(block);
}
void operator delete(void* block, const std::nothrow_t&) noexcept {
  counted_free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  counted_free(block);
}
