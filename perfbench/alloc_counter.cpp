// Replacement global allocation functions for the benchmark binary only: each
// operator new bumps a thread-local counter and forwards to malloc (or
// aligned_alloc). The counter is thread-local rather than atomic so counting
// adds no locked instruction to the ~10^6 allocations of one fine-grain op.
// The array and nothrow forms are not replaced: the standard library's
// versions forward to the two replaced here.

#include "alloc_counter.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

std::uint64_t allocations() noexcept { return t_allocations; }

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
