// Allocation gate for the simulator's hot path (DESIGN.md §12, "Allocation-
// free hot path"). This file replaces the global operator new with a
// counting one, which is why it is built as its own test binary
// (test_alloc in tests/CMakeLists.txt): the counts it asserts are exact and
// machine-independent, so a change that brings back a heap allocation per
// check, message, compute task or round fails here on any host.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "matrix/generate.hpp"
#include "matrix/kernels.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

// Thread-local so gtest's own bookkeeping on other threads (there is none
// today) could never leak into a measured window.
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

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

namespace hpmm {
namespace {

/// Heap allocations made by the calling thread while `fn` runs.
template <class F>
std::uint64_t allocations_during(F&& fn) {
  const std::uint64_t before = t_allocations;
  fn();
  return t_allocations - before;
}

TEST(AllocationGate, CounterSeesHeapAllocations) {
  // Guards every zero below against a counter that is not linked in.
  const std::uint64_t n = allocations_during([] {
    auto p = std::make_unique<double[]>(16);
    std::vector<int> v(100);
    EXPECT_NE(p.get(), nullptr);
    EXPECT_EQ(v.size(), 100u);
  });
  EXPECT_EQ(n, 2u);
}

TEST(AllocationGate, PassingChecksAllocateNothing) {
  const std::uint64_t n = allocations_during([] {
    for (int i = 0; i < 1000; ++i) {
      require(i >= 0, "a precondition message well past the 15-char buffer");
      ensure(i < 1000, "an internal invariant message well past the buffer");
      require(i >= 0, [&] { return "built on failure only: " + std::to_string(i); });
      ensure(i >= 0, [&] { return "built on failure only: " + std::to_string(i); });
    }
  });
  EXPECT_EQ(n, 0u);
  // The failure paths still throw the full text.
  EXPECT_THROW(require(false, "a precondition message well past the buffer"),
               PreconditionError);
  EXPECT_THROW(ensure(false, [] { return std::string("lazy ") + "text"; }),
               InternalError);
}

TEST(AllocationGate, TinyBlocksAndSingleBlockMessagesStayOffTheHeap) {
  const std::uint64_t n = allocations_during([] {
    Matrix one(1, 1, 2.0);
    Matrix two(2, 2, 3.0);
    Matrix copy = two;
    Matrix moved = std::move(copy);
    Message m(0, 1, 7, std::move(moved));
    Message dup = m;
    EXPECT_EQ(dup.words(), 4u);
    EXPECT_EQ(one(0, 0), 2.0);
  });
  EXPECT_EQ(n, 0u);
  // Past Matrix::kInline elements a matrix owns exactly one heap array.
  EXPECT_EQ(allocations_during([] { Matrix big(3, 3, 1.0); }), 1u);
}

TEST(AllocationGate, DefaultKernelProductsAllocateNothingAfterWarmUp) {
  // Fine-grain runs and serve requests make millions of 1x1 to 8x8 block
  // products with the default kernel: below one tile it takes the ikj loop,
  // above it reuses the thread's packing buffer.
  struct Shape {
    std::size_t m, k, n;
  };
  Rng rng(3);
  for (const Shape s : {Shape{1, 1, 1}, Shape{2, 2, 2}, Shape{3, 5, 5},
                        Shape{8, 8, 8}, Shape{64, 64, 64}}) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    Matrix c(s.m, s.n);
    multiply_add(a, b, c);  // warm-up: sizes the packing buffer
    EXPECT_EQ(allocations_during([&] { multiply_add(a, b, c); }), 0u)
        << s.m << "x" << s.k << " * " << s.k << "x" << s.n;
  }
}

/// The fine-grain capture configuration: per-phase totals only, no p x p
/// traffic matrix (what sweeps and the serve path run).
MachineParams lean_params() {
  MachineParams mp = machines::ncube2();
  mp.metrics_mode = MetricsMode::kAggregate;
  mp.traffic_capture = TrafficCapture::kOff;
  return mp;
}

/// One round of p/2 single-word messages across hypercube dimension `d`,
/// built in the machine's recycled message buffer, then received.
void neighbour_round(SimMachine& machine, unsigned d, int tag) {
  const std::size_t p = machine.procs();
  const std::size_t bit = std::size_t{1} << d;
  std::vector<Message> msgs = machine.message_buffer();
  msgs.reserve(p / 2);
  for (std::size_t src = 0; src < p; ++src) {
    if ((src & bit) != 0) continue;
    msgs.emplace_back(static_cast<ProcId>(src), static_cast<ProcId>(src | bit),
                      tag, Matrix(1, 1, 1.0));
  }
  machine.exchange(std::move(msgs));
  for (std::size_t src = 0; src < p; ++src) {
    if ((src & bit) != 0) continue;
    const Message m = machine.receive(static_cast<ProcId>(src | bit), tag);
    EXPECT_EQ(m.payload(0, 0), 1.0);
  }
}

TEST(AllocationGate, SteadyStateExchangeRoundAllocatesNothing) {
  // Building, exchanging and receiving a whole round: the payloads are
  // inline, the vector is the recycled buffer, and the engine's scratch and
  // inbox arena are sized by the warm-up round. (Full capture still grows
  // per-processor chains and cells as new processors join; that is the
  // capture layers' cost, not the timing core's.)
  constexpr unsigned kDim = 10;  // p = 2^10
  SimMachine machine(std::make_shared<Hypercube>(kDim), lean_params());
  neighbour_round(machine, 0, 1);  // warm-up
  for (unsigned d = 1; d < kDim; ++d) {
    const std::uint64_t n = allocations_during(
        [&] { neighbour_round(machine, d, static_cast<int>(d) + 1); });
    EXPECT_EQ(n, 0u) << "dimension " << d;
  }
  EXPECT_EQ(machine.pending_messages(), 0u);
}

struct FineGrainShape {
  const char* algo;
  /// Allocations per simulated event measured for one whole
  /// ParallelMatmul::run at n = 32, p = 2^12 (8.44 for DNS and 11.56 for GK
  /// before the hot path stopped allocating); the gate fails on any
  /// regression past these.
  double max_allocs_per_event;
};

TEST(AllocationGate, FineGrainRunsStayUnderRecordedAllocationsPerEvent) {
  const MachineParams mp = lean_params();
  Rng rng(7);
  const Matrix a = random_matrix(32, 32, rng);
  const Matrix b = random_matrix(32, 32, rng);
  for (const FineGrainShape& shape :
       {FineGrainShape{"dns", 0.049}, FineGrainShape{"gk", 0.084}}) {
    const ParallelMatmul& impl = default_registry().implementation(shape.algo);
    (void)impl.run(a, b, 4096, mp);  // warm-up: one-time statics
    MatmulResult r;
    const std::uint64_t n =
        allocations_during([&] { r = impl.run(a, b, 4096, mp); });
    const auto events = static_cast<double>(r.report.engine.events);
    ASSERT_GT(events, 0.0);
    const double per_event = static_cast<double>(n) / events;
    RecordProperty(std::string(shape.algo) + "_allocs", std::to_string(n));
    EXPECT_LE(per_event, shape.max_allocs_per_event)
        << shape.algo << ": " << n << " allocations for " << events
        << " events";
  }
}

}  // namespace
}  // namespace hpmm
