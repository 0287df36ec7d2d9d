#include "matrix/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace hpmm {
namespace {

void mul_naive_ijk(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t l = 0; l < k; ++l) acc += a(i, l) * b(l, j);
      c(i, j) += acc;
    }
  }
}

void mul_cache_ikj(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c.row_ptr(i);
    for (std::size_t l = 0; l < k; ++l) {
      const double aval = a(i, l);
      const double* brow = b.row_ptr(l);
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void mul_blocked(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  constexpr std::size_t t = kBlockedTile;
  for (std::size_t i0 = 0; i0 < m; i0 += t) {
    const std::size_t i1 = std::min(i0 + t, m);
    for (std::size_t l0 = 0; l0 < k; l0 += t) {
      const std::size_t l1 = std::min(l0 + t, k);
      for (std::size_t j0 = 0; j0 < n; j0 += t) {
        const std::size_t j1 = std::min(j0 + t, n);
        for (std::size_t i = i0; i < i1; ++i) {
          double* crow = c.row_ptr(i);
          for (std::size_t l = l0; l < l1; ++l) {
            const double aval = a(i, l);
            const double* brow = b.row_ptr(l);
            for (std::size_t j = j0; j < j1; ++j) crow[j] += aval * brow[j];
          }
        }
      }
    }
  }
}

void mul_transposed_b(const Matrix& a, const Matrix& b, Matrix& c) {
  const Matrix bt = b.transposed();
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) {
      const double* btrow = bt.row_ptr(j);
      double acc = 0.0;
      for (std::size_t l = 0; l < k; ++l) acc += arow[l] * btrow[l];
      c(i, j) += acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel::kPacked — GotoBLAS-style packed micro-kernel.
//
// Structure: the K dimension is cut into panels of depth kc. For each panel,
// B(k0:k1, :) is packed into column tiles of width NR (zero-padded at the
// right edge) so the micro-kernel streams it with unit stride; then every
// MR-row strip of A sweeps the panel, keeping an MR x NR block of C in
// registers. Each C element is loaded once per panel, accumulated over the
// panel's k range in increasing order, and stored — so the floating-point
// order per element is plain sequential k, independent of kc, mc and of how
// row strips are distributed over threads.
//
// Micro-kernels: every path updates each C element as c = c + a*b, with one
// rounding for the product and one for the sum, exactly as mul_cache_ikj
// does; that is what makes every path bit-identical to cache-ikj. No path
// may use FMA, which rounds a*b + c once. GCC contracts
// _mm*_add_pd(_mm*_mul_pd(..)) into an FMA as soon as a target enables it
// (avx512f does), so this file is built with -ffp-contract=off
// (CMakeLists.txt). NR is 8 doubles on every path, so all paths share one B
// packing; MR is 4 for the scalar and AVX2 paths (two ymm accumulators per
// row on AVX2) and 8 for AVX-512F (one zmm per row).

constexpr std::size_t kNR = 8;
constexpr std::size_t kMaxMR = 8;
/// Shapes with fewer rows or columns than this smallest tile take the ikj
/// loop: packing and a padded tile cost more than such a product itself.
constexpr std::size_t kMinTileRows = 4;

/// Size in doubles of each thread's static packing buffer: a 64 x 64 panel,
/// the coarse-grain block.
constexpr std::size_t kThreadPanel = 64 * 64;

/// Candidate panel depths of the autotuner, shallowest first.
constexpr std::size_t kTuneKcs[] = {64, 128, 256};

/// C tile (MR x NR doubles at `c`, row stride ldc) += the MR rows ap[] of A
/// (each `depth` long) times the packed B tile `bp` (depth rows of NR).
using MicroKernelFn = void (*)(const double* const* ap, const double* bp,
                               std::size_t depth, double* c, std::size_t ldc);

struct MicroKernel {
  MicroKernelFn fn;
  std::size_t mr;
};

/// Scalar path; the compiler vectorises it for the build's baseline ISA.
void micro_scalar(const double* const* ap, const double* bp, std::size_t depth,
                  double* c, std::size_t ldc) {
  constexpr std::size_t kMR = 4;
  double acc[kMR][kNR];
  for (std::size_t ir = 0; ir < kMR; ++ir) {
    for (std::size_t jr = 0; jr < kNR; ++jr) acc[ir][jr] = c[ir * ldc + jr];
  }
  for (std::size_t kk = 0; kk < depth; ++kk, bp += kNR) {
    for (std::size_t ir = 0; ir < kMR; ++ir) {
      const double aval = ap[ir][kk];
      for (std::size_t jr = 0; jr < kNR; ++jr) acc[ir][jr] += aval * bp[jr];
    }
  }
  for (std::size_t ir = 0; ir < kMR; ++ir) {
    for (std::size_t jr = 0; jr < kNR; ++jr) c[ir * ldc + jr] = acc[ir][jr];
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void micro_avx2(const double* const* ap,
                                                const double* bp,
                                                std::size_t depth, double* c,
                                                std::size_t ldc) {
  constexpr std::size_t kMR = 4;
  __m256d acc[kMR][2];
  for (std::size_t ir = 0; ir < kMR; ++ir) {
    acc[ir][0] = _mm256_loadu_pd(c + ir * ldc);
    acc[ir][1] = _mm256_loadu_pd(c + ir * ldc + 4);
  }
  for (std::size_t kk = 0; kk < depth; ++kk, bp += kNR) {
    const __m256d b0 = _mm256_loadu_pd(bp);
    const __m256d b1 = _mm256_loadu_pd(bp + 4);
    for (std::size_t ir = 0; ir < kMR; ++ir) {
      const __m256d aval = _mm256_broadcast_sd(ap[ir] + kk);
      acc[ir][0] = _mm256_add_pd(acc[ir][0], _mm256_mul_pd(aval, b0));
      acc[ir][1] = _mm256_add_pd(acc[ir][1], _mm256_mul_pd(aval, b1));
    }
  }
  for (std::size_t ir = 0; ir < kMR; ++ir) {
    _mm256_storeu_pd(c + ir * ldc, acc[ir][0]);
    _mm256_storeu_pd(c + ir * ldc + 4, acc[ir][1]);
  }
}

__attribute__((target("avx512f"))) void micro_avx512(const double* const* ap,
                                                     const double* bp,
                                                     std::size_t depth,
                                                     double* c,
                                                     std::size_t ldc) {
  constexpr std::size_t kMR = 8;
  __m512d acc[kMR];
  for (std::size_t ir = 0; ir < kMR; ++ir) {
    acc[ir] = _mm512_loadu_pd(c + ir * ldc);
  }
  for (std::size_t kk = 0; kk < depth; ++kk, bp += kNR) {
    const __m512d brow = _mm512_loadu_pd(bp);
    for (std::size_t ir = 0; ir < kMR; ++ir) {
      acc[ir] = _mm512_add_pd(acc[ir],
                              _mm512_mul_pd(_mm512_set1_pd(ap[ir][kk]), brow));
    }
  }
  for (std::size_t ir = 0; ir < kMR; ++ir) {
    _mm512_storeu_pd(c + ir * ldc, acc[ir]);
  }
}
#endif

MicroKernel micro_kernel(detail::PackedPath path) noexcept {
#if defined(__x86_64__)
  if (path == detail::PackedPath::kAvx512) return {micro_avx512, 8};
  if (path == detail::PackedPath::kAvx2) return {micro_avx2, 4};
#endif
  (void)path;
  return {micro_scalar, 4};
}

/// Pack B(k0:k1, :) tile-major: tile jt holds columns [jt*NR, (jt+1)*NR),
/// rows k0..k1 contiguously, short tiles padded with zeros. The padding
/// multiplies into accumulator columns that are never stored.
void pack_b_panel(const Matrix& b, std::size_t k0, std::size_t k1,
                  double* buf) {
  const std::size_t n = b.cols();
  const std::size_t depth = k1 - k0;
  const std::size_t tiles = (n + kNR - 1) / kNR;
  for (std::size_t jt = 0; jt < tiles; ++jt) {
    const std::size_t j0 = jt * kNR;
    const std::size_t w = std::min(kNR, n - j0);
    double* dst = buf + jt * depth * kNR;
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const double* brow = b.row_ptr(kk) + j0;
      for (std::size_t jr = 0; jr < w; ++jr) dst[jr] = brow[jr];
      for (std::size_t jr = w; jr < kNR; ++jr) dst[jr] = 0.0;
      dst += kNR;
    }
  }
}

/// C[i0:i0+h, j0:j0+w] += A[i0:i0+h, k0:k0+depth) * (packed tile `bp`),
/// h <= mk.mr, w <= NR. A full tile updates C in place; an edge tile runs on
/// a zero-padded copy, its rows beyond h replaying row i0 into dead rows
/// that are never copied back, so the micro-kernel always runs full size.
void run_tile(const MicroKernel& mk, const Matrix& a, const double* bp,
              std::size_t k0, std::size_t depth, std::size_t i0, std::size_t h,
              Matrix& c, std::size_t j0, std::size_t w) {
  const double* ap[kMaxMR];
  for (std::size_t ir = 0; ir < mk.mr; ++ir) {
    ap[ir] = a.row_ptr(ir < h ? i0 + ir : i0) + k0;
  }
  if (h == mk.mr && w == kNR) {
    mk.fn(ap, bp, depth, c.row_ptr(i0) + j0, c.cols());
    return;
  }
  double tile[kMaxMR * kNR] = {};
  for (std::size_t ir = 0; ir < h; ++ir) {
    std::copy_n(c.row_ptr(i0 + ir) + j0, w, tile + ir * kNR);
  }
  mk.fn(ap, bp, depth, tile, kNR);
  for (std::size_t ir = 0; ir < h; ++ir) {
    std::copy_n(tile + ir * kNR, w, c.row_ptr(i0 + ir) + j0);
  }
}

void mul_packed(const MicroKernel& mk, const Matrix& a, const Matrix& b,
                Matrix& c, const PackedTuning& tuning, ThreadPool* pool) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  const std::size_t kc = std::max<std::size_t>(1, tuning.kc);
  const std::size_t mc = std::max<std::size_t>(1, tuning.mc);
  const std::size_t tiles = (n + kNR - 1) / kNR;
  const std::size_t strips = (m + mc - 1) / mc;
  // A panel of up to kThreadPanel doubles (every block product of the
  // fine- and coarse-grain formulations) packs into a static per-thread
  // buffer, so it touches no heap; a larger one into a vector of its own.
  // Pool workers only read the calling thread's panel. The alignment puts
  // each 8-double panel row in one cache line.
  alignas(64) thread_local double thread_panel[kThreadPanel];
  std::vector<double> big_panel;
  const std::size_t panel_size = tiles * std::min(kc, k) * kNR;
  if (panel_size > kThreadPanel) big_panel.resize(panel_size);
  double* const panel =
      panel_size > kThreadPanel ? big_panel.data() : thread_panel;
  for (std::size_t k0 = 0; k0 < k; k0 += kc) {
    const std::size_t k1 = std::min(k0 + kc, k);
    const std::size_t depth = k1 - k0;
    pack_b_panel(b, k0, k1, panel);
    const auto strip = [&](std::size_t s) {
      const std::size_t i_end = std::min((s + 1) * mc, m);
      for (std::size_t i0 = s * mc; i0 < i_end; i0 += mk.mr) {
        const std::size_t h = std::min(mk.mr, i_end - i0);
        for (std::size_t jt = 0; jt < tiles; ++jt) {
          const std::size_t j0 = jt * kNR;
          run_tile(mk, a, panel + jt * depth * kNR, k0, depth, i0, h, c, j0,
                   std::min(kNR, n - j0));
        }
      }
    };
    if (pool != nullptr && strips > 1) {
      pool->parallel_for(strips, strip);
    } else {
      for (std::size_t s = 0; s < strips; ++s) strip(s);
    }
  }
}

detail::PackedPath detect_packed_path() noexcept {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return detail::PackedPath::kAvx512;
  if (__builtin_cpu_supports("avx2")) return detail::PackedPath::kAvx2;
#endif
  return detail::PackedPath::kScalar;
}

}  // namespace

std::string to_string(Kernel k) {
  switch (k) {
    case Kernel::kNaiveIjk: return "naive-ijk";
    case Kernel::kCacheIkj: return "cache-ikj";
    case Kernel::kBlocked: return "blocked";
    case Kernel::kTransposedB: return "transposed-b";
    case Kernel::kPacked: return "packed";
  }
  return "unknown";
}

Kernel kernel_from_string(const std::string& name) {
  for (Kernel k : {Kernel::kNaiveIjk, Kernel::kCacheIkj, Kernel::kBlocked,
                   Kernel::kTransposedB, Kernel::kPacked}) {
    if (to_string(k) == name) return k;
  }
  throw PreconditionError(
      "unknown kernel '" + name +
      "' (try naive-ijk, cache-ikj, blocked, transposed-b, packed)");
}

namespace {

// Packed-kernel wall profiling (kernels.hpp). Atomics: multiply_add runs on
// pool worker threads during batched compute phases.
std::atomic<bool> g_kernel_profile_on{false};
std::atomic<std::uint64_t> g_kernel_profile_calls{0};
std::atomic<std::uint64_t> g_kernel_profile_nanos{0};

/// Kernel::kPacked once the shapes are checked.
void packed_entry(const Matrix& a, const Matrix& b, Matrix& c,
                  detail::PackedPath path, ThreadPool* pool) {
  // Below one tile the ikj loop gives the same bits and touches no lock,
  // atomic or heap.
  if (a.rows() < kMinTileRows || b.cols() < kNR) {
    mul_cache_ikj(a, b, c);
    return;
  }
  const MicroKernel mk = micro_kernel(path);
  // A serial product no deeper than the shallowest candidate panel is one
  // panel under every tuning, so it neither consults nor autotunes it.
  const PackedTuning tuning = pool != nullptr || a.cols() > kTuneKcs[0]
                                  ? packed_tuning()
                                  : PackedTuning{};
  if (!g_kernel_profile_on.load(std::memory_order_relaxed)) {
    mul_packed(mk, a, b, c, tuning, pool);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  mul_packed(mk, a, b, c, tuning, pool);
  const auto dt = std::chrono::steady_clock::now() - t0;
  g_kernel_profile_calls.fetch_add(1, std::memory_order_relaxed);
  g_kernel_profile_nanos.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()),
      std::memory_order_relaxed);
}

void require_shapes(const Matrix& a, const Matrix& b, const Matrix& c) {
  require(a.cols() == b.rows(), "multiply_add: inner dimensions differ");
  require(c.rows() == a.rows() && c.cols() == b.cols(),
          "multiply_add: C has wrong shape");
}

}  // namespace

void multiply_add(const Matrix& a, const Matrix& b, Matrix& c, Kernel kernel,
                  ThreadPool* pool) {
  require_shapes(a, b, c);
  switch (kernel) {
    case Kernel::kNaiveIjk: mul_naive_ijk(a, b, c); return;
    case Kernel::kCacheIkj: mul_cache_ikj(a, b, c); return;
    case Kernel::kBlocked: mul_blocked(a, b, c); return;
    case Kernel::kTransposedB: mul_transposed_b(a, b, c); return;
    case Kernel::kPacked:
      packed_entry(a, b, c, detail::packed_path(), pool);
      return;
  }
  throw PreconditionError("multiply_add: unknown kernel");
}

namespace detail {

PackedPath packed_path() noexcept {
  static const PackedPath path = detect_packed_path();
  return path;
}

bool packed_path_supported(PackedPath path) noexcept {
  return path <= packed_path();
}

const char* to_string(PackedPath path) noexcept {
  switch (path) {
    case PackedPath::kScalar: return "scalar";
    case PackedPath::kAvx2: return "avx2";
    case PackedPath::kAvx512: return "avx512";
  }
  return "unknown";
}

void multiply_add_packed(const Matrix& a, const Matrix& b, Matrix& c,
                         PackedPath path, ThreadPool* pool) {
  require_shapes(a, b, c);
  require(packed_path_supported(path),
          "multiply_add_packed: this CPU cannot run that path");
  packed_entry(a, b, c, path, pool);
}

}  // namespace detail

void enable_kernel_wall_profile(bool on) noexcept {
  g_kernel_profile_on.store(on, std::memory_order_relaxed);
}

KernelWallProfile kernel_wall_profile() noexcept {
  KernelWallProfile p;
  p.calls = g_kernel_profile_calls.load(std::memory_order_relaxed);
  p.seconds =
      static_cast<double>(g_kernel_profile_nanos.load(
          std::memory_order_relaxed)) *
      1e-9;
  return p;
}

void reset_kernel_wall_profile() noexcept {
  g_kernel_profile_calls.store(0, std::memory_order_relaxed);
  g_kernel_profile_nanos.store(0, std::memory_order_relaxed);
}

Matrix multiply(const Matrix& a, const Matrix& b, Kernel kernel,
                ThreadPool* pool) {
  Matrix c(a.rows(), b.cols());
  multiply_add(a, b, c, kernel, pool);
  return c;
}

std::uint64_t matmul_flops(std::size_t m, std::size_t k, std::size_t n) noexcept {
  return static_cast<std::uint64_t>(m) * k * n;
}

namespace {

std::mutex g_tuning_mutex;
PackedTuning g_tuning;     // guarded by g_tuning_mutex
bool g_tuned = false;      // guarded by g_tuning_mutex

}  // namespace

PackedTuning packed_tuning() {
  const std::lock_guard<std::mutex> lock(g_tuning_mutex);
  if (!g_tuned) {
    g_tuning = autotune_packed();
    g_tuned = true;
  }
  return g_tuning;
}

void set_packed_tuning(const PackedTuning& tuning) {
  require(tuning.kc >= 1 && tuning.mc >= 1,
          "set_packed_tuning: tile sizes must be >= 1");
  const std::lock_guard<std::mutex> lock(g_tuning_mutex);
  g_tuning = tuning;
  g_tuned = true;
}

PackedTuning autotune_packed(std::size_t probe_n) {
  probe_n = std::max<std::size_t>(kMinTileRows * kNR, probe_n);
  Matrix a(probe_n, probe_n), b(probe_n, probe_n), c(probe_n, probe_n);
  for (std::size_t i = 0; i < probe_n; ++i) {
    for (std::size_t j = 0; j < probe_n; ++j) {
      a(i, j) = static_cast<double>((i * 31 + j * 7) % 13) * 0.125;
      b(i, j) = static_cast<double>((i * 17 + j * 3) % 11) * 0.25;
    }
  }
  const MicroKernel mk = micro_kernel(detail::packed_path());
  constexpr std::size_t mcs[] = {64, 128};
  PackedTuning best;
  double best_time = std::numeric_limits<double>::infinity();
  for (const std::size_t kc : kTuneKcs) {
    for (const std::size_t mc : mcs) {
      const PackedTuning candidate{kc, mc};
      mul_packed(mk, a, b, c, candidate, nullptr);  // warm caches and pages
      const auto start = std::chrono::steady_clock::now();
      mul_packed(mk, a, b, c, candidate, nullptr);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed < best_time) {
        best_time = elapsed;
        best = candidate;
      }
    }
  }
  return best;
}

}  // namespace hpmm
