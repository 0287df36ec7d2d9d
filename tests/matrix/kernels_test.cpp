#include "matrix/kernels.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "matrix/generate.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace hpmm {
namespace {

TEST(Kernels, SmallHandComputedProduct) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const Matrix c = multiply(a, b, Kernel::kNaiveIjk);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Kernels, IdentityIsNeutral) {
  Rng rng(1);
  const Matrix a = random_matrix(16, 16, rng);
  const Matrix i = identity_matrix(16);
  EXPECT_TRUE(approx_equal(multiply(a, i), a, 1e-14));
  EXPECT_TRUE(approx_equal(multiply(i, a), a, 1e-14));
}

TEST(Kernels, MultiplyAddAccumulates) {
  Matrix a(2, 2, 1.0), b(2, 2, 1.0);
  Matrix c(2, 2, 10.0);
  multiply_add(a, b, c);
  EXPECT_EQ(c(0, 0), 12.0);  // 10 + 2
}

TEST(Kernels, ShapeValidation) {
  Matrix a(2, 3), b(2, 3), c(2, 3);
  EXPECT_THROW(multiply_add(a, b, c), PreconditionError);  // inner mismatch
  Matrix b2(3, 4), c_bad(2, 3);
  EXPECT_THROW(multiply_add(a, b2, c_bad), PreconditionError);  // C shape
}

TEST(Kernels, RectangularShapes) {
  Rng rng(2);
  const Matrix a = random_matrix(3, 5, rng);
  const Matrix b = random_matrix(5, 2, rng);
  const Matrix c = multiply(a, b);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 2u);
  // Check one entry against the direct dot product.
  double expect = 0.0;
  for (std::size_t k = 0; k < 5; ++k) expect += a(1, k) * b(k, 1);
  EXPECT_NEAR(c(1, 1), expect, 1e-14);
}

TEST(Kernels, FlopCount) {
  EXPECT_EQ(matmul_flops(2, 3, 4), 24u);
  EXPECT_EQ(matmul_flops(64, 64, 64), 262144u);
}

TEST(Kernels, ToStringNames) {
  EXPECT_EQ(to_string(Kernel::kNaiveIjk), "naive-ijk");
  EXPECT_EQ(to_string(Kernel::kCacheIkj), "cache-ikj");
  EXPECT_EQ(to_string(Kernel::kBlocked), "blocked");
  EXPECT_EQ(to_string(Kernel::kTransposedB), "transposed-b");
  EXPECT_EQ(to_string(Kernel::kPacked), "packed");
}

TEST(Kernels, FromStringRoundTrips) {
  for (Kernel k : {Kernel::kNaiveIjk, Kernel::kCacheIkj, Kernel::kBlocked,
                   Kernel::kTransposedB, Kernel::kPacked}) {
    EXPECT_EQ(kernel_from_string(to_string(k)), k);
  }
  EXPECT_THROW(kernel_from_string("bogus"), PreconditionError);
  EXPECT_THROW(kernel_from_string(""), PreconditionError);
}

/// All kernels must agree with the naive reference on random inputs,
/// including sizes that straddle the blocked kernel's tile boundary.
class KernelAgreement
    : public ::testing::TestWithParam<std::tuple<Kernel, std::size_t>> {};

TEST_P(KernelAgreement, MatchesNaive) {
  const auto [kernel, n] = GetParam();
  Rng rng(17 + n);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  const Matrix expect = multiply(a, b, Kernel::kNaiveIjk);
  const Matrix got = multiply(a, b, kernel);
  EXPECT_TRUE(approx_equal(expect, got, 1e-11 * static_cast<double>(n)))
      << to_string(kernel) << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAndSizes, KernelAgreement,
    ::testing::Combine(::testing::Values(Kernel::kCacheIkj, Kernel::kBlocked,
                                         Kernel::kTransposedB,
                                         Kernel::kPacked),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{31}, std::size_t{32},
                                         std::size_t{33}, std::size_t{64},
                                         std::size_t{100})));

// The packed kernel accumulates every C element in plain increasing-k order
// regardless of tile sizes or threading, so results are bit-identical — not
// merely close — across tunings and thread counts.
TEST(PackedKernel, BitIdenticalAcrossTunings) {
  const PackedTuning saved = packed_tuning();
  Rng rng(23);
  const Matrix a = random_matrix(97, 83, rng);
  const Matrix b = random_matrix(83, 61, rng);
  set_packed_tuning({64, 32});
  const Matrix small_tiles = multiply(a, b, Kernel::kPacked);
  set_packed_tuning({256, 128});
  const Matrix large_tiles = multiply(a, b, Kernel::kPacked);
  set_packed_tuning(saved);
  ASSERT_EQ(small_tiles.rows(), large_tiles.rows());
  for (std::size_t i = 0; i < small_tiles.rows(); ++i) {
    for (std::size_t j = 0; j < small_tiles.cols(); ++j) {
      ASSERT_EQ(small_tiles(i, j), large_tiles(i, j)) << i << "," << j;
    }
  }
}

TEST(PackedKernel, BitIdenticalSerialVsThreaded) {
  const PackedTuning saved = packed_tuning();
  set_packed_tuning({32, 8});  // many row strips even at this size
  Rng rng(29);
  const Matrix a = random_matrix(120, 70, rng);
  const Matrix b = random_matrix(70, 90, rng);
  const Matrix serial = multiply(a, b, Kernel::kPacked);
  ThreadPool pool(4);
  const Matrix threaded = multiply(a, b, Kernel::kPacked, &pool);
  set_packed_tuning(saved);
  for (std::size_t i = 0; i < serial.rows(); ++i) {
    for (std::size_t j = 0; j < serial.cols(); ++j) {
      ASSERT_EQ(serial(i, j), threaded(i, j)) << i << "," << j;
    }
  }
}

TEST(PackedKernel, RectangularAndOddShapes) {
  Rng rng(31);
  const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
      {1, 1, 1}, {3, 9, 5}, {4, 8, 8}, {5, 4, 9}, {33, 17, 41}};
  for (const auto& [m, k, n] : shapes) {
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    const Matrix expect = multiply(a, b, Kernel::kNaiveIjk);
    const Matrix got = multiply(a, b, Kernel::kPacked);
    EXPECT_TRUE(approx_equal(expect, got, 1e-12 * static_cast<double>(k + 1)))
        << m << "x" << k << "x" << n;
  }
}

/// Every packed path this CPU can run: the scalar one always, plus each
/// SIMD one it supports.
std::vector<detail::PackedPath> runnable_paths() {
  std::vector<detail::PackedPath> paths;
  for (const detail::PackedPath path :
       {detail::PackedPath::kScalar, detail::PackedPath::kAvx2,
        detail::PackedPath::kAvx512}) {
    if (detail::packed_path_supported(path)) paths.push_back(path);
  }
  return paths;
}

/// C0 + A*B from one packed path against the same product from cache-ikj,
/// compared with ==: both must round c + a*b twice per k, in increasing k.
::testing::AssertionResult packed_matches_cache_ikj(
    const Matrix& a, const Matrix& b, const Matrix& c0,
    detail::PackedPath path, ThreadPool* pool) {
  Matrix want = c0;
  multiply_add(a, b, want, Kernel::kCacheIkj);
  Matrix got = c0;
  detail::multiply_add_packed(a, b, got, path, pool);
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      if (!(got(i, j) == want(i, j))) {
        return ::testing::AssertionFailure()
               << detail::to_string(path) << (pool ? " pooled " : " serial ")
               << a.rows() << "x" << a.cols() << " * " << b.rows() << "x"
               << b.cols() << ": C(" << i << "," << j << ") = " << got(i, j)
               << ", cache-ikj " << want(i, j);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(PackedKernel, EveryPathBitIdenticalToCacheIkj) {
  // Small kc and mc so k = 65 and 100 span several panels (serial products
  // no deeper than 64 are one panel under any tuning) and the pool splits
  // even 9-row products.
  const PackedTuning saved = packed_tuning();
  set_packed_tuning({32, 8});
  const std::size_t sizes[] = {1, 3, 4, 5, 7, 8, 9, 17, 33, 63, 64, 65, 100};
  ThreadPool pool(4);
  Rng rng(41);
  for (const detail::PackedPath path : runnable_paths()) {
    for (const std::size_t m : sizes) {
      for (const std::size_t k : sizes) {
        for (const std::size_t n : sizes) {
          const Matrix a = random_matrix(m, k, rng);
          const Matrix b = random_matrix(k, n, rng);
          const Matrix c0 = random_matrix(m, n, rng, -4.0, 4.0);
          ASSERT_TRUE(packed_matches_cache_ikj(a, b, c0, path, nullptr));
          ASSERT_TRUE(packed_matches_cache_ikj(a, b, c0, path, &pool));
        }
      }
    }
  }
  set_packed_tuning(saved);
}

TEST(PackedKernel, EveryPathBitIdenticalBeyondDefaultPanelDepth) {
  // k past the largest autotuned kc (256), under the process tuning.
  ThreadPool pool(4);
  Rng rng(43);
  for (const detail::PackedPath path : runnable_paths()) {
    for (const auto& [m, k, n] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{9, 300, 17},
          {64, 513, 40}}) {
      const Matrix a = random_matrix(m, k, rng);
      const Matrix b = random_matrix(k, n, rng);
      const Matrix c0 = random_matrix(m, n, rng, -4.0, 4.0);
      ASSERT_TRUE(packed_matches_cache_ikj(a, b, c0, path, nullptr));
      ASSERT_TRUE(packed_matches_cache_ikj(a, b, c0, path, &pool));
    }
  }
}

TEST(PackedKernel, ProcessPathIsRunnableAndNamed) {
  const detail::PackedPath path = detail::packed_path();
  EXPECT_TRUE(detail::packed_path_supported(path));
  EXPECT_TRUE(detail::packed_path_supported(detail::PackedPath::kScalar));
  const std::string name = detail::to_string(path);
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512") << name;
  for (const detail::PackedPath p : {detail::PackedPath::kAvx2,
                                     detail::PackedPath::kAvx512}) {
    if (detail::packed_path_supported(p)) continue;
    Matrix c(8, 8);
    EXPECT_THROW(detail::multiply_add_packed(Matrix(8, 8), Matrix(8, 8), c, p),
                 PreconditionError);
  }
}

TEST(Kernels, DefaultKernelIsPacked) {
  EXPECT_EQ(ExecPolicy{}.kernel, Kernel::kPacked);
}

TEST(PackedKernel, AutotuneReturnsCandidateTiles) {
  const PackedTuning t = autotune_packed(64);
  EXPECT_GE(t.kc, 1u);
  EXPECT_GE(t.mc, 1u);
}

TEST(PackedKernel, SetTuningValidates) {
  EXPECT_THROW(set_packed_tuning({0, 64}), PreconditionError);
  EXPECT_THROW(set_packed_tuning({64, 0}), PreconditionError);
}

TEST(PackedKernel, WallProfileCountsOnlyWhenEnabled) {
  Rng rng(31);
  const Matrix a = random_matrix(32, 32, rng);
  const Matrix b = random_matrix(32, 32, rng);
  reset_kernel_wall_profile();
  multiply(a, b, Kernel::kPacked);  // profiling off: nothing recorded
  EXPECT_EQ(kernel_wall_profile().calls, 0u);
  enable_kernel_wall_profile(true);
  multiply(a, b, Kernel::kPacked);
  multiply(a, b, Kernel::kPacked);
  enable_kernel_wall_profile(false);
  const KernelWallProfile w = kernel_wall_profile();
  EXPECT_EQ(w.calls, 2u);
  EXPECT_GE(w.seconds, 0.0);
  multiply(a, b, Kernel::kPacked);  // off again: count frozen
  EXPECT_EQ(kernel_wall_profile().calls, 2u);
  reset_kernel_wall_profile();
  EXPECT_EQ(kernel_wall_profile().calls, 0u);
}

}  // namespace
}  // namespace hpmm
