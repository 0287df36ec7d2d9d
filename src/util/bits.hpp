#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace hpmm {

/// True iff x is a power of two (0 is not). Inline: topology and collective
/// hot paths call it per message. Not std::has_single_bit, which libstdc++
/// builds on popcount: a libgcc call on baseline x86-64.
constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// True iff x is a power of eight, i.e. x = 2^{3q} (the processor counts
/// accepted by the GK, Berntsen and DNS formulations).
bool is_pow8(std::uint64_t x) noexcept;

/// True iff x is a perfect square (the processor counts accepted by the
/// mesh-based formulations: Simple, Cannon, Fox).
bool is_perfect_square(std::uint64_t x) noexcept;

/// Floor of log2(x). Precondition: x > 0.
unsigned ilog2(std::uint64_t x);

/// Exact log2(x). Precondition: x is a power of two.
unsigned exact_log2(std::uint64_t x);

/// Integer square root: floor(sqrt(x)).
std::uint64_t isqrt(std::uint64_t x) noexcept;

/// Integer cube root: floor(cbrt(x)).
std::uint64_t icbrt(std::uint64_t x) noexcept;

/// Exact integer square root. Precondition: x is a perfect square.
std::uint64_t exact_sqrt(std::uint64_t x);

/// Exact integer cube root. Precondition: x is a perfect cube.
std::uint64_t exact_cbrt(std::uint64_t x);

/// Binary-reflected Gray code of i.
std::uint64_t gray_code(std::uint64_t i) noexcept;

/// Inverse of gray_code: g == gray_code(inverse_gray_code(g)).
std::uint64_t inverse_gray_code(std::uint64_t g) noexcept;

/// Number of set bits. Inline: Hypercube::hops calls it per message.
constexpr unsigned popcount64(std::uint64_t x) noexcept {
  return static_cast<unsigned>(std::popcount(x));
}

/// All powers of two in [lo, hi], ascending.
std::vector<std::uint64_t> pow2_range(std::uint64_t lo, std::uint64_t hi);

/// All powers of eight (2^{3q}) in [lo, hi], ascending.
std::vector<std::uint64_t> pow8_range(std::uint64_t lo, std::uint64_t hi);

}  // namespace hpmm
