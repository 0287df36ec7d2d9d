// ExecPolicy is a host-side wall-clock policy: which kernel computes the
// local products and how many host threads run them. None of it is part of
// the cost model, so every setting must leave simulated clocks, counters and
// numerical results bit-identical. These tests pin that contract.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/registry.hpp"
#include "matrix/generate.hpp"
#include "matrix/kernels.hpp"
#include "sim/fault.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

MachineParams test_params() {
  MachineParams m;
  m.t_s = 10.0;
  m.t_w = 2.0;
  return m;
}

void expect_bit_identical(const Matrix& x, const Matrix& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      ASSERT_EQ(x(i, j), y(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(ExecPolicy, BatchMatchesSerialCallSequence) {
  auto topo = std::make_shared<Hypercube>(3u);
  Rng rng(51);
  const std::size_t p = 8, n = 12;
  std::vector<Matrix> a, b, c_batch, c_serial;
  for (std::size_t i = 0; i < p; ++i) {
    a.push_back(random_matrix(n, n, rng));
    b.push_back(random_matrix(n, n, rng));
    c_batch.emplace_back(n, n);
    c_serial.emplace_back(n, n);
  }

  SimMachine batched(topo, test_params());
  std::vector<SimMachine::ComputeProduct> tasks;
  for (std::size_t i = 0; i < p; ++i) {
    tasks.push_back({static_cast<ProcId>(i), &c_batch[i], &a[i], &b[i]});
  }
  batched.compute_multiply_add_batch(tasks);

  SimMachine serial(topo, test_params());
  for (std::size_t i = 0; i < p; ++i) {
    serial.compute_multiply_add(static_cast<ProcId>(i), a[i], b[i],
                                c_serial[i]);
  }

  for (ProcId pid = 0; pid < p; ++pid) {
    EXPECT_EQ(batched.clock(pid), serial.clock(pid)) << "pid " << pid;
  }
  for (std::size_t i = 0; i < p; ++i) {
    expect_bit_identical(c_batch[i], c_serial[i]);
  }
}

TEST(ExecPolicy, BatchValidatesTasks) {
  SimMachine machine(std::make_shared<Hypercube>(2u), test_params());
  Matrix a(2, 2, 1.0), b(2, 2, 1.0), c(2, 2);
  std::vector<SimMachine::ComputeProduct> null_c{{0, nullptr, &a, &b}};
  EXPECT_THROW(machine.compute_multiply_add_batch(null_c), PreconditionError);
  std::vector<SimMachine::ComputeProduct> null_a{{0, &c, nullptr, &b}};
  EXPECT_THROW(machine.compute_multiply_add_batch(null_a), PreconditionError);
  std::vector<SimMachine::ComputeProduct> bad_pid{{99, &c, &a, &b}};
  EXPECT_THROW(machine.compute_multiply_add_batch(bad_pid), PreconditionError);
  // Consecutive products on one output form one task, so they must share
  // its pid.
  std::vector<SimMachine::ComputeProduct> split{{0, &c, &a, &b},
                                                {1, &c, &a, &b}};
  EXPECT_THROW(machine.compute_multiply_add_batch(split), PreconditionError);
}

TEST(ExecPolicy, RejectsZeroThreads) {
  MachineParams mp = test_params();
  mp.exec.threads = 0;
  EXPECT_THROW(SimMachine(std::make_shared<Hypercube>(2u), mp),
               PreconditionError);
}

/// The acceptance scenario: a faulty cannon run (drops + a straggler) with
/// --threads=4 --kernel=packed must be bit-identical — simulated time,
/// message counters, fault counters, and every matrix element — to the
/// single-threaded default-kernel run.
TEST(ExecPolicy, FaultyRunBitIdenticalAcrossThreadsAndKernels) {
  const std::size_t n = 32, p = 16;
  Rng rng(52);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);

  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 3;
  plan->drop_prob = 0.02;
  plan->stragglers.push_back({3, 2.0});

  const auto run_with = [&](Kernel kernel, unsigned threads) {
    MachineParams mp = test_params();
    mp.faults = plan;
    mp.exec.kernel = kernel;
    mp.exec.threads = threads;
    return default_registry().implementation("cannon").run(a, b, p, mp);
  };

  const MatmulResult base = run_with(Kernel::kCacheIkj, 1);
  for (const unsigned threads : {2u, 4u}) {
    const MatmulResult r = run_with(Kernel::kPacked, threads);
    EXPECT_EQ(base.report.t_parallel, r.report.t_parallel)
        << "threads=" << threads;
    EXPECT_EQ(base.report.total_messages, r.report.total_messages);
    EXPECT_EQ(base.report.total_words, r.report.total_words);
    EXPECT_EQ(base.report.faults.retransmissions, r.report.faults.retransmissions);
    expect_bit_identical(base.c, r.c);
  }
}

TEST(ExecPolicy, ProcessorFailureRaisesIdenticallyWhenThreaded) {
  const std::size_t n = 32, p = 16;
  Rng rng(53);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);

  auto plan = std::make_shared<FaultPlan>();
  plan->failstops.push_back({5, 100.0});

  for (const unsigned threads : {1u, 4u}) {
    MachineParams mp = test_params();
    mp.faults = plan;
    mp.exec.threads = threads;
    try {
      (void)default_registry().implementation("cannon").run(a, b, p, mp);
      FAIL() << "expected ProcessorFailure at threads=" << threads;
    } catch (const ProcessorFailure& failure) {
      EXPECT_EQ(failure.pid(), 5u) << "threads=" << threads;
      EXPECT_DOUBLE_EQ(failure.at_time(), 100.0) << "threads=" << threads;
    }
  }
}

/// Every formulation's compute phase goes through the batch API; the
/// threaded machine must reproduce the serial product bit-for-bit on all of
/// them, not just cannon.
TEST(ExecPolicy, AllFormulationsBitIdenticalWhenThreaded) {
  struct Case {
    const char* name;
    std::size_t n, p;
  };
  const Case cases[] = {
      {"simple", 16, 16}, {"cannon", 16, 16}, {"fox", 16, 16},
      {"berntsen", 16, 8}, {"dns", 8, 128},   {"gk", 16, 8},
  };
  Rng rng(54);
  for (const auto& c : cases) {
    const Matrix a = random_matrix(c.n, c.n, rng);
    const Matrix b = random_matrix(c.n, c.n, rng);
    MachineParams serial_mp = test_params();
    MachineParams threaded_mp = test_params();
    threaded_mp.exec.threads = 4;
    threaded_mp.exec.kernel = Kernel::kPacked;
    const MatmulResult serial =
        default_registry().implementation(c.name).run(a, b, c.p, serial_mp);
    const MatmulResult threaded =
        default_registry().implementation(c.name).run(a, b, c.p, threaded_mp);
    EXPECT_EQ(serial.report.t_parallel, threaded.report.t_parallel) << c.name;
    expect_bit_identical(serial.c, threaded.c);
  }
}

}  // namespace
}  // namespace hpmm
