#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (numpy's default), q in [0, 1]; 0 for an
/// empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Wall ms of one run of the host-speed reference: a naive 64x64 double
/// matrix product repeated six times, compiled into this binary (no hpmm
/// code). Every timed op is preceded by one reference run; an op's cost is
/// its wall time over that reference time. The shared hosts this benchmark
/// runs on change speed by up to ~1.8x for seconds to many minutes, and
/// every workload and this kernel slow down by about the same factor, so
/// the cost cancels the host's speed and a change to hpmm moves it fully.
double reference_ms();

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: the first timed op is checked against a deliberately wrong
  /// expected output, so exactly one op must be reported as failed.
  bool plant_wrong_reference = false;
  std::string spans_out;  ///< where the traced run writes its spans
};

/// Complete set-ups per run; setup_s is their median. The first runs before
/// the timed window and the rest are spread evenly across it, so the median
/// samples the host over the whole run, as the op times do, instead of in
/// the run's first half second.
inline constexpr std::size_t kSetupRepeats = 15;

/// Whether the next set-up repetition is due, `done` having run so far,
/// `elapsed_ms` into a timed window of `window_ms`.
inline bool setup_due(std::size_t done, double elapsed_ms, double window_ms) {
  return done < kSetupRepeats &&
         elapsed_ms >= window_ms * static_cast<double>(done) /
                           static_cast<double>(kSetupRepeats);
}

struct Metric {
  std::string name;
  double value = 0.0;
};

/// What one workload run measured.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool setup_ok = true;         ///< every set-up check passed
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  /// Timed ops grouped by shape, one wall time (ms) each; serve_mix has one
  /// group with one entry per request. A quantile of op_ms is the mean of
  /// the groups' quantiles: pooling two shapes whose times do not overlap
  /// would put the median in the gap between them, where it is set by the
  /// fastest op of one shape and the slowest of the other.
  std::vector<std::vector<double>> op_ms;
  /// reference_ms() run just before each op, grouped like op_ms.
  std::vector<std::vector<double>> ref_ms;
  std::vector<Metric> per_layer;  ///< filled by traced runs only
};

/// The three ParallelMatmul workloads: fine_grain, full_capture,
/// coarse_grain.
Outcome run_sim_workload(const Options& options, Spans& spans);

/// The serve_mix workload.
Outcome run_serve_workload(const Options& options, Spans& spans);

/// The sim and matrix layer probes of the traced run, on Cannon n=32 p=16
/// (a serve_mix shape) with the default capture.
std::vector<Metric> serve_shape_probes(std::uint64_t seed, Spans& spans);

/// True when `name` is a workload run_sim_workload knows.
bool is_sim_workload(const std::string& name);

}  // namespace perfbench
