// google-benchmark microbenchmarks: serial kernels (the t_c = 1 substrate of
// the cost model), the simulator's per-message bookkeeping overhead, and the
// emergent collectives.

#include <benchmark/benchmark.h>

#include <memory>

#include "matrix/generate.hpp"
#include "matrix/kernels.hpp"
#include "matrix/strassen.hpp"
#include "sim/collectives.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hpmm;

void BM_SerialKernel(benchmark::State& state, Kernel kernel) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    c.fill(0.0);
    multiply_add(a, b, c, kernel);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(matmul_flops(n, n, n)));
}

void BM_NaiveIjk(benchmark::State& s) { BM_SerialKernel(s, Kernel::kNaiveIjk); }
void BM_CacheIkj(benchmark::State& s) { BM_SerialKernel(s, Kernel::kCacheIkj); }
void BM_Blocked(benchmark::State& s) { BM_SerialKernel(s, Kernel::kBlocked); }
void BM_TransposedB(benchmark::State& s) {
  BM_SerialKernel(s, Kernel::kTransposedB);
}
void BM_Packed(benchmark::State& s) { BM_SerialKernel(s, Kernel::kPacked); }

// The default ExecPolicy kernel at a serve-sized block (8) and at the
// coarse-grain block (64). The label names the micro-kernel path this CPU
// took (avx512, avx2 or scalar), so a result file shows which one ran.
void BM_Default(benchmark::State& s) {
  s.SetLabel(detail::to_string(detail::packed_path()));
  BM_SerialKernel(s, ExecPolicy{}.kernel);
}
BENCHMARK(BM_Default)->Arg(8)->Arg(64);

// n=512 on the two ends of the zoo gives the headline packed-vs-naive ratio.
BENCHMARK(BM_NaiveIjk)->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_CacheIkj)->Arg(64)->Arg(128)->Arg(256)->Arg(512);
BENCHMARK(BM_Blocked)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_TransposedB)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_Packed)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Thread-scaling sweep: same packed kernel, row panels split over a pool.
// Arg is the thread count; self-speedup is GFLOP/s(T) / GFLOP/s(1).
void BM_PackedThreads(benchmark::State& state) {
  const std::size_t n = 512;
  const auto threads = static_cast<unsigned>(state.range(0));
  ThreadPool pool(threads);
  Rng rng(1);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    c.fill(0.0);
    multiply_add(a, b, c, Kernel::kPacked, &pool);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(matmul_flops(n, n, n)));
}
// Real time, not main-thread CPU time: the workers' cycles must count.
BENCHMARK(BM_PackedThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Strassen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) {
    Matrix c = multiply_strassen(a, b, 64);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(strassen_multiplications(n, 64)));
}
BENCHMARK(BM_Strassen)->Arg(128)->Arg(256);

void BM_ExchangeRound(benchmark::State& state) {
  const auto dim = static_cast<unsigned>(state.range(0));
  MachineParams mp;
  mp.t_s = 10;
  mp.t_w = 1;
  SimMachine machine(std::make_shared<Hypercube>(dim), mp);
  const std::size_t p = machine.procs();
  for (auto _ : state) {
    std::vector<Message> msgs;
    msgs.reserve(p);
    for (ProcId pid = 0; pid < p; ++pid) {
      msgs.emplace_back(pid, static_cast<ProcId>((pid + 1) % p), 1, Matrix(4, 4));
    }
    machine.exchange(std::move(msgs));
    for (ProcId pid = 0; pid < p; ++pid) benchmark::DoNotOptimize(machine.receive(pid, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_ExchangeRound)->Arg(4)->Arg(6)->Arg(9);

void BM_BroadcastBinomial(benchmark::State& state) {
  const auto dim = static_cast<unsigned>(state.range(0));
  MachineParams mp;
  mp.t_s = 10;
  mp.t_w = 1;
  SimMachine machine(std::make_shared<Hypercube>(dim), mp);
  std::vector<ProcId> group(machine.procs());
  for (ProcId pid = 0; pid < machine.procs(); ++pid) group[pid] = pid;
  for (auto _ : state) {
    auto copies = broadcast_binomial(machine, group, 0, 1, Matrix(8, 8));
    benchmark::DoNotOptimize(copies.data());
    machine.reset();
  }
}
BENCHMARK(BM_BroadcastBinomial)->Arg(3)->Arg(6)->Arg(9);

void BM_ReduceScatter(benchmark::State& state) {
  const auto dim = static_cast<unsigned>(state.range(0));
  MachineParams mp;
  mp.t_s = 10;
  mp.t_w = 1;
  SimMachine machine(std::make_shared<Hypercube>(dim), mp);
  std::vector<ProcId> group(machine.procs());
  for (ProcId pid = 0; pid < machine.procs(); ++pid) group[pid] = pid;
  for (auto _ : state) {
    std::vector<Matrix> contribs(machine.procs(), Matrix(64, 4, 1.0));
    auto slices = reduce_scatter_halving(machine, group, 1, std::move(contribs));
    benchmark::DoNotOptimize(slices.data());
    machine.reset();
  }
}
BENCHMARK(BM_ReduceScatter)->Arg(3)->Arg(5);

}  // namespace

BENCHMARK_MAIN();
