// The three ParallelMatmul workloads and the sim/matrix layer probes.
//
// Each workload alternates two shapes on one host thread. fine_grain and
// full_capture run GK n=32 p=2^15 and DNS n=32 p=2^13, where the timing
// core simulates ~10^5 events per op on 1x1 blocks; they differ only in
// how much the capture layers record. coarse_grain runs Cannon n=256 p=16
// and GK n=256 p=64, where 64 local 64x64 block products dominate and only
// a few hundred events are simulated.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "alloc_counter.hpp"
#include "bench.hpp"
#include "algorithms/parallel_matmul.hpp"
#include "core/registry.hpp"
#include "matrix/kernels.hpp"
#include "sim/sim_machine.hpp"
#include "topology/hypercube.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace hpmm;

struct Shape {
  const char* algo;
  std::size_t n;
  std::size_t p;
  std::size_t block;  ///< edge of the local block products the op runs
};

struct SimSpec {
  Shape shapes[2];
  MachineParams params;
};

/// Timing-core-only capture: per-phase totals, no traffic matrix.
MachineParams aggregate_params() {
  MachineParams mp = machines::ncube2();
  mp.metrics_mode = MetricsMode::kAggregate;
  mp.traffic_capture = TrafficCapture::kOff;
  return mp;
}

/// Everything `hpmm profile --causal=1` pays: default full capture plus the
/// causal span DAG.
MachineParams full_causal_params() {
  MachineParams mp = machines::ncube2();
  mp.causal = true;
  return mp;
}

constexpr Shape kGkFine{"gk", 32, std::size_t{1} << 12, 2};
constexpr Shape kDnsFine{"dns", 32, std::size_t{1} << 12, 1};

std::optional<SimSpec> spec_for(const std::string& workload) {
  if (workload == "fine_grain") {
    return SimSpec{{kGkFine, kDnsFine}, aggregate_params()};
  }
  if (workload == "full_capture") {
    return SimSpec{{kGkFine, kDnsFine}, full_causal_params()};
  }
  if (workload == "coarse_grain") {
    return SimSpec{{{"cannon", 256, 16, 64}, {"gk", 256, 64, 64}},
                   machines::ncube2()};
  }
  return std::nullopt;
}

/// Integer entries in [-4, 4]: every product of order <= 256 is exact in
/// double precision whatever the summation order, so ops are checked by
/// exact equality with the serial reference.
Matrix integer_matrix(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (double& x : m.data()) {
    x = static_cast<double>(rng.next_below(9)) - 4.0;
  }
  return m;
}

/// One shape after set-up: its inputs, the serial reference product and the
/// warm-up run's report, which every timed op must reproduce exactly.
struct Prepared {
  const ParallelMatmul* impl = nullptr;
  Shape shape{};
  Matrix a, b, reference;
  RunReport report;
};

bool same_run(const RunReport& x, const RunReport& y) {
  return x.t_parallel == y.t_parallel &&
         x.total_messages == y.total_messages &&
         x.total_words == y.total_words && x.total_flops == y.total_flops &&
         x.engine.events == y.engine.events;
}

/// Set up one shape; false in `ok` when the warm-up op's product differs
/// from the reference or its simulated T_p from the analytical model's.
Prepared prepare(const Shape& shape, std::uint64_t stream,
                 const MachineParams& params, Spans& spans, bool& ok) {
  Prepared s;
  s.shape = shape;
  s.impl = &default_registry().implementation(shape.algo);
  {
    Spans::Scope span(spans, "setup.inputs");
    Rng rng(stream);
    s.a = integer_matrix(shape.n, rng);
    s.b = integer_matrix(shape.n, rng);
  }
  {
    Spans::Scope span(spans, "matrix.reference");
    s.reference = multiply(s.a, s.b);
  }
  Spans::Scope span(spans, "setup.warmup");
  MatmulResult r = s.impl->run(s.a, s.b, shape.p, params);
  const double model = default_registry()
                           .model(shape.algo, params)
                           ->t_parallel(static_cast<double>(shape.n),
                                        static_cast<double>(shape.p));
  if (!(r.c == s.reference)) {
    std::cerr << "setup: " << shape.algo << " product differs from the "
              << "serial reference\n";
    ok = false;
  }
  if (!(std::abs(r.report.t_parallel / model - 1.0) <= 1e-9)) {
    std::cerr << "setup: " << shape.algo << " simulated T_p "
              << r.report.t_parallel << " != model T_p " << model << "\n";
    ok = false;
  }
  s.report = std::move(r.report);
  return s;
}

std::uint64_t stream_for(std::uint64_t seed, std::size_t shape_index) {
  return seed * 0x9E3779B97F4A7C15ULL + shape_index + 1;
}

/// Median wall time of one exchange() round of p/2 single-word messages
/// between hypercube neighbours (the dimension rotates every round).
double exchange_probe_us(std::size_t p, const MachineParams& params,
                         Spans& spans) {
  Spans::Scope span(spans, "sim.exchange");
  const unsigned dim = exact_log2(p);
  SimMachine machine(std::make_shared<Hypercube>(dim), params);
  constexpr int kRounds = 41;
  std::vector<double> us;
  for (int round = 0; round < kRounds; ++round) {
    const std::size_t bit = std::size_t{1}
                            << (static_cast<unsigned>(round) % dim);
    const int tag = round + 1;
    std::vector<Message> msgs;
    msgs.reserve(p / 2);
    for (std::size_t src = 0; src < p; ++src) {
      if ((src & bit) == 0) {
        msgs.emplace_back(static_cast<ProcId>(src),
                          static_cast<ProcId>(src | bit), tag,
                          Matrix(1, 1, 1.0));
      }
    }
    const auto t0 = Clock::now();
    machine.exchange(std::move(msgs));
    const auto t1 = Clock::now();
    us.push_back(ms_between(t0, t1) * 1000.0);
    for (std::size_t src = 0; src < p; ++src) {
      if ((src & bit) == 0) {
        (void)machine.receive(static_cast<ProcId>(src | bit), tag);
      }
    }
  }
  return median(us);
}

/// Median GFLOP/s (2 flops per multiply-add) of multiply_add with the
/// default ExecPolicy kernel on the op's block shape.
double kernel_probe_gflops(std::size_t block, Spans& spans) {
  Spans::Scope span(spans, "matrix.multiply_add");
  Rng rng(7);
  const Matrix a = integer_matrix(block, rng);
  const Matrix b = integer_matrix(block, rng);
  Matrix c(block, block);
  const Kernel kernel = ExecPolicy{}.kernel;
  const double madds = static_cast<double>(block * block * block);
  const auto calls =
      static_cast<std::size_t>(std::max(1.0, std::ceil(5e5 / madds)));
  std::vector<double> rates;
  for (int sample = 0; sample < 15; ++sample) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) multiply_add(a, b, c, kernel);
    const auto t1 = Clock::now();
    rates.push_back(2.0 * madds * static_cast<double>(calls) /
                    (ms_between(t0, t1) * 1e6));
  }
  return median(rates);
}

/// Median full+causal op time over median aggregate op time on one shape,
/// the two modes alternated in this process.
double capture_overhead_ratio(const Prepared& s, Spans& spans) {
  Spans::Scope span(spans, "sim.capture_overhead");
  const MachineParams modes[2] = {aggregate_params(), full_causal_params()};
  std::vector<double> ms[2];
  const auto start = Clock::now();
  for (int pair = 0; pair < 50; ++pair) {
    if (pair >= 7 && ms_between(start, Clock::now()) > 2000.0) break;
    for (int k = 0; k < 2; ++k) {
      const int mode = (pair + k) % 2;  // alternate which mode runs first
      const auto t0 = Clock::now();
      const MatmulResult r = s.impl->run(s.a, s.b, s.shape.p, modes[mode]);
      ms[mode].push_back(ms_between(t0, Clock::now()));
    }
  }
  return median(ms[1]) / median(ms[0]);
}

/// Median wall time of RunReport::write_json on the shape's report.
double report_json_probe_ms(const RunReport& report, Spans& spans) {
  std::vector<double> ms;
  for (int rep = 0; rep < 21; ++rep) {
    Spans::Scope span(spans, "sim.report_json");
    std::ostringstream os;
    const auto t0 = Clock::now();
    report.write_json(os);
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

std::vector<Metric> layer_probes(const Prepared& s, std::size_t exchange_p,
                                 const MachineParams& params, Spans& spans) {
  return {
      {"sim.exchange_us", exchange_probe_us(exchange_p, params, spans)},
      {"matrix.kernel_gflops", kernel_probe_gflops(s.shape.block, spans)},
      {"sim.capture_overhead_ratio", capture_overhead_ratio(s, spans)},
      {"sim.report_json_ms", report_json_probe_ms(s.report, spans)},
  };
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return spec_for(name).has_value();
}

std::vector<Metric> serve_shape_probes(std::uint64_t seed, Spans& spans) {
  // Cannon n=32 p=16 is one of the serve generator's shapes; serve requests
  // run with the default capture.
  const Shape shape{"cannon", 32, 16, 8};
  const MachineParams params = machines::ncube2();
  bool ok = true;
  const Prepared s = prepare(shape, stream_for(seed, 0), params, spans, ok);
  if (!ok) throw std::runtime_error("serve probe shape failed its set-up check");
  return layer_probes(s, shape.p, params, spans);
}

Outcome run_sim_workload(const Options& options, Spans& spans) {
  const SimSpec spec = *spec_for(options.workload);
  Outcome out;

  std::vector<Prepared> shapes;
  // One complete set-up; every repetition must reproduce the first's runs.
  const auto set_up = [&] {
    Spans::Scope span(spans, "setup");
    const auto t0 = Clock::now();
    std::vector<Prepared> fresh;
    for (std::size_t i = 0; i < 2; ++i) {
      fresh.push_back(prepare(spec.shapes[i], stream_for(options.seed, i),
                              spec.params, spans, out.setup_ok));
    }
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (!same_run(shapes[i].report, fresh[i].report)) {
        std::cerr << "setup: " << spec.shapes[i].algo
                  << " run differs between set-ups\n";
        out.setup_ok = false;
      }
    }
    shapes = std::move(fresh);
  };
  set_up();

  Matrix planted = shapes[0].reference;
  planted(0, 0) += 1.0;

  std::vector<std::uint64_t> allocs[2];
  out.op_ms.resize(2);
  out.ref_ms.resize(2);
  for (std::size_t k = 0; k < 2; ++k) {
    out.op_ms[k].reserve(std::size_t{1} << 15);
    out.ref_ms[k].reserve(std::size_t{1} << 15);
    allocs[k].reserve(std::size_t{1} << 15);
  }
  const double window_ms = options.seconds * 1000.0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed_ms = ms_between(start, Clock::now());
    if (i > 0 && elapsed_ms >= window_ms) break;
    if (setup_due(out.setup_s.size(), elapsed_ms, window_ms)) set_up();
    const Prepared& s = shapes[i % 2];
    {
      Spans::Scope ref_span(spans, "host.reference");
      out.ref_ms[i % 2].push_back(reference_ms());
    }
    Spans::Scope op_span(spans, "op", static_cast<std::int64_t>(i));
    std::optional<MatmulResult> r;
    {
      Spans::Scope run_span(spans, "algorithms.run");
      const std::uint64_t a0 = allocations();
      const auto t0 = Clock::now();
      r.emplace(s.impl->run(s.a, s.b, s.shape.p, spec.params));
      const auto t1 = Clock::now();
      const std::uint64_t a1 = allocations();
      out.op_ms[i % 2].push_back(ms_between(t0, t1));
      allocs[i % 2].push_back(a1 - a0);
    }
    Spans::Scope check_span(spans, "check");
    const Matrix& expected =
        options.plant_wrong_reference && i == 0 ? planted : s.reference;
    ++out.attempted;
    if (!(r->c == expected) || !same_run(r->report, s.report)) ++out.failed;
  }
  while (out.setup_s.size() < kSetupRepeats) set_up();

  if (!options.trace) return out;

  // Per-op values are the mean over the two alternated shapes.
  const auto both = [&](auto field) {
    return (static_cast<double>(field(shapes[0])) +
            static_cast<double>(field(shapes[1]))) /
           2.0;
  };
  const double events =
      both([](const Prepared& s) { return s.report.engine.events; });
  // Like op_ms: the mean of the two shapes' medians, never a pooled median.
  std::vector<double> run_ms[2];
  for (const Spans::Span& span : spans.spans()) {
    if (span.op >= 0 && std::string_view(span.name) == "algorithms.run") {
      run_ms[span.op % 2].push_back(span.end_ms - span.start_ms);
    }
  }
  // Both shapes' reference products belong to one set-up.
  const std::vector<double> refs = spans.durations("matrix.reference");
  std::vector<double> reference_ms;
  for (std::size_t i = 0; i + 1 < refs.size(); i += 2) {
    reference_ms.push_back(refs[i] + refs[i + 1]);
  }
  const double allocs_per_op =
      (median(std::vector<double>(allocs[0].begin(), allocs[0].end())) +
       median(std::vector<double>(allocs[1].begin(), allocs[1].end()))) /
      2.0;
  out.per_layer = {
      {"sim.events_per_op", events},
      {"sim.messages_per_op",
       both([](const Prepared& s) { return s.report.total_messages; })},
      {"sim.words_per_op",
       both([](const Prepared& s) { return s.report.total_words; })},
      {"sim.allocs_per_event", allocs_per_op / events},
      {"sim.arena_bytes_per_proc",
       both([](const Prepared& s) {
         return static_cast<double>(s.report.engine.arena_bytes) /
                static_cast<double>(s.shape.p);
       })},
      {"sim.causal_spans_per_op",
       both([](const Prepared& s) { return s.report.engine.causal_spans; })},
      {"algorithms.run_ms", (median(run_ms[0]) + median(run_ms[1])) / 2.0},
      {"algorithms.allocs_per_op", allocs_per_op},
      {"matrix.flops_per_op",
       both([](const Prepared& s) { return s.report.total_flops; })},
      {"matrix.reference_ms", median(reference_ms)},
  };
  const std::size_t exchange_p = std::max(spec.shapes[0].p, spec.shapes[1].p);
  for (Metric& m : layer_probes(shapes[0], exchange_p, spec.params, spans)) {
    out.per_layer.push_back(std::move(m));
  }
  return out;
}

}  // namespace perfbench
