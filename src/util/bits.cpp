#include "util/bits.hpp"

#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace hpmm {

bool is_pow8(std::uint64_t x) noexcept {
  return is_pow2(x) && std::countr_zero(x) % 3 == 0;
}

bool is_perfect_square(std::uint64_t x) noexcept {
  const std::uint64_t r = isqrt(x);
  return r * r == x;
}

unsigned ilog2(std::uint64_t x) {
  require(x > 0, "ilog2: argument must be positive");
  return 63u - static_cast<unsigned>(std::countl_zero(x));
}

unsigned exact_log2(std::uint64_t x) {
  require(is_pow2(x), "exact_log2: argument must be a power of two");
  return static_cast<unsigned>(std::countr_zero(x));
}

std::uint64_t isqrt(std::uint64_t x) noexcept {
  if (x == 0) return 0;
  // Largest root whose square fits in 64 bits: floor(sqrt(2^64 - 1)).
  constexpr std::uint64_t kMaxRoot = 0xffffffffull;
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(x)));
  if (r > kMaxRoot) r = kMaxRoot;
  // std::sqrt can be off by one ulp for large inputs; fix up exactly. Both
  // the clamp above and the r < kMaxRoot guard keep the products from
  // wrapping for x near 2^64, where the unguarded fix-up loop would compare
  // against a wrapped square and walk r upward ~2^31 times.
  while (r > 0 && r * r > x) --r;
  while (r < kMaxRoot && (r + 1) * (r + 1) <= x) ++r;
  return r;
}

std::uint64_t icbrt(std::uint64_t x) noexcept {
  if (x == 0) return 0;
  // Largest root whose cube fits in 64 bits: floor(cbrt(2^64 - 1)).
  constexpr std::uint64_t kMaxRoot = 2642245ull;
  auto r = static_cast<std::uint64_t>(std::cbrt(static_cast<double>(x)));
  if (r > kMaxRoot) r = kMaxRoot;
  while (r > 0 && r * r * r > x) --r;
  while (r < kMaxRoot && (r + 1) * (r + 1) * (r + 1) <= x) ++r;
  return r;
}

std::uint64_t exact_sqrt(std::uint64_t x) {
  const std::uint64_t r = isqrt(x);
  require(r * r == x, "exact_sqrt: argument must be a perfect square");
  return r;
}

std::uint64_t exact_cbrt(std::uint64_t x) {
  const std::uint64_t r = icbrt(x);
  require(r * r * r == x, "exact_cbrt: argument must be a perfect cube");
  return r;
}

std::uint64_t gray_code(std::uint64_t i) noexcept { return i ^ (i >> 1); }

std::uint64_t inverse_gray_code(std::uint64_t g) noexcept {
  std::uint64_t i = g;
  for (unsigned shift = 1; shift < 64; shift <<= 1) i ^= i >> shift;
  return i;
}

std::vector<std::uint64_t> pow2_range(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t v = 1; v <= hi && v != 0; v <<= 1) {
    if (v >= lo) out.push_back(v);
  }
  return out;
}

std::vector<std::uint64_t> pow8_range(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t v = 1; v <= hi && v != 0; v <<= 3) {
    if (v >= lo) out.push_back(v);
  }
  return out;
}

}  // namespace hpmm
