// Allocation counting for the benches that gate on heap allocations
// (fig16, fig18, fig21): every unaligned global new in the binary bumps
// rfs::bench::g_allocations. A gate reads the counter before and after
// the code under test; the difference is its allocation count.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "../bench_common.hpp"

std::atomic<std::uint64_t> rfs::bench::g_allocations{0};

void* operator new(std::size_t size) {
  rfs::bench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  rfs::bench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
