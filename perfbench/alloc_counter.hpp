#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made by the calling thread since it started, counted by
/// this binary's replacement of the global operator new (alloc_counter.cpp).
/// Every workload drives the library from one host thread, so the calling
/// thread's count is the whole count. Reading it costs one thread-local load.
std::uint64_t allocations() noexcept;

}  // namespace perfbench
