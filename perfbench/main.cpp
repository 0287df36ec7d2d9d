// hpmm repository benchmark: runs one named workload in-process through the
// library's public entry points for a fixed wall-clock window, checks every
// op's output, and prints one JSON result line as the last line of stdout.
//
//   perfbench --workload <fine_grain|full_capture|coarse_grain|serve_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out FILE] [--plant-wrong-reference 1]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// every call into the library, writes them to --spans-out, and reports the
// per-layer metrics instead. See README.md for what each number means.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Written with the reference product's last entry, so the kernel cannot be
/// optimised away.
volatile double reference_sink = 0.0;

double reference_ms() {
  constexpr std::size_t kN = 64;
  static double a[kN * kN], b[kN * kN], c[kN * kN];
  static const bool filled = [] {
    for (std::size_t i = 0; i < kN * kN; ++i) {
      a[i] = static_cast<double>(i % 7);
      b[i] = static_cast<double>(i % 5);
    }
    return true;
  }();
  (void)filled;
  const auto t0 = Clock::now();
  std::fill(c, c + kN * kN, 0.0);
  for (int rep = 0; rep < 6; ++rep) {
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t k = 0; k < kN; ++k) {
        const double aik = a[i * kN + k];
        for (std::size_t j = 0; j < kN; ++j) {
          c[i * kN + j] += aik * b[k * kN + j];
        }
      }
    }
  }
  reference_sink = c[kN * kN - 1];
  return ms_between(t0, Clock::now());
}

namespace {

struct Unit {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints, in output order. A metric a
/// workload does not exercise (serve.* on the sim workloads, per-op
/// simulator counts on serve_mix) reads 0.
constexpr Unit kPerLayer[] = {
    {"bench.ops_per_run", "count"},
    {"trace.op_cost_p50", "ref"},
    {"trace.op_ms_p50", "ms"},
    {"trace.op_ms_p90", "ms"},
    {"trace.reference_ms", "ms"},
    {"sim.events_per_op", "count"},
    {"sim.messages_per_op", "count"},
    {"sim.words_per_op", "count"},
    {"sim.allocs_per_event", "allocs/event"},
    {"sim.exchange_us", "us"},
    {"sim.arena_bytes_per_proc", "B/proc"},
    {"sim.causal_spans_per_op", "count"},
    {"sim.capture_overhead_ratio", "ratio"},
    {"sim.report_json_ms", "ms"},
    {"algorithms.run_ms", "ms"},
    {"algorithms.allocs_per_op", "count"},
    {"matrix.flops_per_op", "count"},
    {"matrix.kernel_gflops", "GFLOP/s"},
    {"matrix.reference_ms", "ms"},
    {"serve.session_ms", "ms"},
    {"serve.allocs_per_request", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.memoizable_share", "ratio"},
    {"serve.retries_per_session", "count"},
    {"serve.journal_events_per_session", "count"},
    {"serve.report_json_ms", "ms"},
};

struct UsageError {
  std::string message;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError{flag + " needs a value"};
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
        used = value.size();
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &used);
        if (!(o.seconds > 0.0 && o.seconds <= 600.0)) used = 0;
      } else if (flag == "--trace") {
        o.trace = value == "1";
        used = (value == "0" || value == "1") ? 1 : 0;
      } else if (flag == "--plant-wrong-reference") {
        o.plant_wrong_reference = value == "1";
        used = (value == "0" || value == "1") ? 1 : 0;
      } else if (flag == "--spans-out") {
        o.spans_out = value;
        used = value.size();
      } else {
        throw UsageError{"unknown flag " + flag};
      }
      if (used != value.size() || value.empty()) {
        throw UsageError{"bad value for " + flag + ": " + value};
      }
    } catch (const std::logic_error&) {
      throw UsageError{"bad value for " + flag + ": " + value};
    }
  }
  if (!have_workload) throw UsageError{"--workload is required"};
  if (!is_sim_workload(o.workload) && o.workload != "serve_mix") {
    throw UsageError{"unknown workload " + o.workload};
  }
  return o;
}

/// Mean over the shape groups of each group's q-quantile.
double group_quantile(const std::vector<std::vector<double>>& groups,
                      double q) {
  double sum = 0.0;
  for (const auto& group : groups) sum += quantile(group, q);
  return groups.empty() ? 0.0 : sum / static_cast<double>(groups.size());
}

/// Each op's wall time over the reference time measured just before it.
std::vector<std::vector<double>> op_costs(const Outcome& out) {
  std::vector<std::vector<double>> cost(out.op_ms.size());
  for (std::size_t g = 0; g < out.op_ms.size(); ++g) {
    for (std::size_t i = 0; i < out.op_ms[g].size(); ++i) {
      cost[g].push_back(out.op_ms[g][i] / out.ref_ms[g][i]);
    }
  }
  return cost;
}

std::size_t op_count(const Outcome& out) {
  std::size_t n = 0;
  for (const auto& group : out.op_ms) n += group.size();
  return n;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_self_times(const Spans& spans) {
  std::fprintf(stderr, "%-28s %8s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, t] : spans.totals()) {
    std::fprintf(stderr, "%-28s %8zu %12.3f %12.3f\n", name.c_str(), t.count,
                 t.total_ms, t.self_ms);
  }
}

int run(const Options& options) {
  Spans spans(options.trace);
  Outcome out = is_sim_workload(options.workload)
                    ? run_sim_workload(options, spans)
                    : run_serve_workload(options, spans);

  const auto cost = op_costs(out);
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!options.trace) {
    metrics = {
        {"setup_s", {median(out.setup_s), "s"}},
        {"op_cost.p50", {group_quantile(cost, 0.5), "ref"}},
        {"op_cost.p90", {group_quantile(cost, 0.9), "ref"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
    };
  } else {
    out.per_layer.push_back(
        {"bench.ops_per_run", static_cast<double>(op_count(out))});
    out.per_layer.push_back({"trace.op_cost_p50", group_quantile(cost, 0.5)});
    out.per_layer.push_back(
        {"trace.op_ms_p50", group_quantile(out.op_ms, 0.5)});
    out.per_layer.push_back(
        {"trace.op_ms_p90", group_quantile(out.op_ms, 0.9)});
    out.per_layer.push_back(
        {"trace.reference_ms", group_quantile(out.ref_ms, 0.5)});
    for (const Unit& u : kPerLayer) {
      double value = 0.0;
      for (const Metric& m : out.per_layer) {
        if (m.name == u.name) value = m.value;
      }
      metrics.push_back({u.name, {value, u.unit}});
    }
    if (!options.spans_out.empty()) {
      std::ofstream f(options.spans_out);
      spans.write_json(f);
      f.close();
      if (!f) {
        std::cerr << "cannot write spans to " << options.spans_out << "\n";
        return 1;
      }
    }
    print_self_times(spans);
  }

  bool finite = true;
  std::ostringstream json;
  json << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    finite = finite && std::isfinite(vu.first);
    json << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
         << (std::isfinite(vu.first) ? number(vu.first) : "0")
         << ", \"unit\": \"" << vu.second << "\"}";
  }
  json << "}";
  const bool correct = out.setup_ok && finite && out.failed == 0;
  std::cerr << options.workload << ": " << op_count(out) << " ops, "
            << out.failed << " failed; reference p50 "
            << group_quantile(out.ref_ms, 0.5)
            << " ms; op_ms and op_cost p10/p50/p90 by shape:";
  const auto print_quantiles = [](const std::vector<double>& v) {
    std::cerr << " " << quantile(v, 0.1) << "/" << quantile(v, 0.5) << "/"
              << quantile(v, 0.9);
  };
  for (std::size_t g = 0; g < out.op_ms.size(); ++g) {
    print_quantiles(out.op_ms[g]);
    print_quantiles(cost[g]);
  }
  std::cerr << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": " << json.str()
            << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const perfbench::UsageError& e) {
    std::cerr << "usage error: " << e.message << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
