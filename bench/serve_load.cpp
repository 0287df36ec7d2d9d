// Serving-mode load generator: drive the `hpmm serve` engine with a seeded
// multi-tenant workload and the noisy-neighbor chaos scenario, sweeping the
// host thread count. Reports wall-clock throughput (requests/sec), the plan
// cache hit rate, the attempts actually simulated (the rest came from the
// result memo) and per-tenant tail latency, and cross-checks that every
// thread count produced a byte-identical serve report (the envelope's
// determinism contract).
//
//   ./serve_load [--requests=48] [--tenants=4] [--seed=7] [--repeat=2]
//                [--out=BENCH_serve.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/chaos.hpp"
#include "serve/script.hpp"
#include "serve/server.hpp"
#include "serve/timeline.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace hpmm;

namespace {

struct SweepPoint {
  std::string scenario;
  unsigned threads = 1;
  std::size_t requests = 0;
  double wall_ms = 0.0;
  double req_per_sec = 0.0;
  double cache_hit_rate = 0.0;
  std::uint64_t ok = 0, failed = 0, rejected = 0, retries = 0;
  std::uint64_t journal_events = 0;
  /// Attempts simulated rather than answered by the result memo.
  std::uint64_t simulated_attempts = 0;
  /// Report, journal JSONL and timeline all byte-identical to threads=1,
  /// with the same simulated-attempt count.
  bool deterministic = false;
};

std::string json_of(const ServeReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

std::vector<unsigned> thread_sweep() {
  std::vector<unsigned> threads = {1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 4) threads.push_back(hw);
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string out_path = args.get("out", "BENCH_serve.json");
  WorkloadOptions wl;
  wl.requests = static_cast<std::size_t>(args.get_int("requests", 48));
  wl.tenants = static_cast<std::size_t>(args.get_int("tenants", 4));
  wl.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  wl.fault_fraction = 0.15;
  // Each sweep point keeps its best wall-clock over --repeat runs: a
  // single run is at the mercy of whatever else the host is doing, and the
  // perf-trajectory gate compares these numbers against a baseline.
  const int repeat = std::max(1, static_cast<int>(args.get_int("repeat", 2)));

  NoisyNeighborOptions chaos;
  chaos.seed = wl.seed;
  // Scale the chaos streams with --requests too: the default 12+12 finishes
  // in a few milliseconds, far too little work for a stable throughput
  // number (the baseline gate in bench/compare_bench.py needs one).
  chaos.healthy_requests = wl.requests / 2;
  chaos.noisy_requests = wl.requests - chaos.healthy_requests;

  struct Scenario {
    std::string name;
    std::vector<TenantRequest> requests;
  };
  const std::vector<Scenario> scenarios = {
      {"generated", generate_workload(wl)},
      {"noisy-neighbor", noisy_neighbor_scenario(chaos)},
  };

  std::vector<SweepPoint> points;
  // Per-tenant tails from the threads=1 run of each scenario (identical at
  // every thread count by construction — and verified below).
  struct TenantTail {
    std::string scenario, tenant;
    std::uint64_t ok = 0;
    double p50 = 0.0, p99 = 0.0;
  };
  std::vector<TenantTail> tails;

  Table pretty({"scenario", "threads", "req", "wall ms", "req/s",
                "cache hit", "sims", "ok", "fail", "rej", "retry",
                "identical"});
  for (const Scenario& sc : scenarios) {
    std::string reference_json, reference_journal, reference_timeline;
    std::uint64_t reference_sims = 0;
    for (unsigned threads : thread_sweep()) {
      ServeOptions opt;
      opt.threads = threads;
      opt.seed = wl.seed;
      opt.max_retries = 2;
      const Server server(opt);
      double wall_s = 0.0;
      ServeReport report;
      for (int rep = 0; rep < repeat; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        ServeReport attempt = server.run(sc.requests);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        if (rep == 0 || s < wall_s) wall_s = s;
        report = std::move(attempt);
      }

      SweepPoint pt;
      pt.scenario = sc.name;
      pt.threads = threads;
      pt.requests = sc.requests.size();
      pt.wall_ms = wall_s * 1e3;
      pt.req_per_sec =
          wall_s > 0.0 ? static_cast<double>(sc.requests.size()) / wall_s : 0.0;
      pt.cache_hit_rate = report.cache_hit_rate();
      for (const auto& [tenant, ts] : report.tenants) {
        pt.ok += ts.ok;
        pt.failed += ts.failed + ts.deadline_exceeded;
        pt.rejected += ts.rejected();
        pt.retries += ts.retries;
      }
      const std::string json = json_of(report);
      const std::string journal = report.journal.jsonl();
      std::ostringstream timeline_os;
      write_serve_timeline(timeline_os, report.journal, opt.slots);
      const std::string timeline = timeline_os.str();
      pt.journal_events = report.journal.size();
      pt.simulated_attempts = report.simulated_attempts;
      if (threads == 1) {
        reference_json = json;
        reference_journal = journal;
        reference_timeline = timeline;
        reference_sims = pt.simulated_attempts;
        for (const auto& [tenant, ts] : report.tenants) {
          tails.push_back({sc.name, tenant, ts.ok,
                           report.latency_quantile(tenant, 0.50),
                           report.latency_quantile(tenant, 0.99)});
        }
      }
      pt.deterministic = json == reference_json &&
                         journal == reference_journal &&
                         timeline == reference_timeline &&
                         pt.simulated_attempts == reference_sims;
      points.push_back(pt);

      pretty.begin_row()
          .add(pt.scenario)
          .add_int(pt.threads)
          .add_int(static_cast<long long>(pt.requests))
          .add_num(pt.wall_ms, 4)
          .add_num(pt.req_per_sec, 5)
          .add_num(pt.cache_hit_rate, 3)
          .add_int(static_cast<long long>(pt.simulated_attempts))
          .add_int(static_cast<long long>(pt.ok))
          .add_int(static_cast<long long>(pt.failed))
          .add_int(static_cast<long long>(pt.rejected))
          .add_int(static_cast<long long>(pt.retries))
          .add(pt.deterministic ? "yes" : "NO");
    }
  }

  std::cout << "=== serve load sweep (virtual-time server, host threads) "
               "===\n\n";
  pretty.print_aligned(std::cout);
  std::cout << "\n'identical' compares the full JSON serve report, the "
               "event journal JSONL,\nthe timeline export and 'sims' (attempts "
               "simulated, not memo hits) against\nthe threads=1 run; anything "
               "but 'yes' is a determinism regression.\n\nper-tenant tails (threads=1):\n\n";
  Table tail_table({"scenario", "tenant", "ok", "p50", "p99"});
  for (const TenantTail& t : tails) {
    tail_table.begin_row()
        .add(t.scenario)
        .add(t.tenant)
        .add_int(static_cast<long long>(t.ok))
        .add_num(t.p50, 4)
        .add_num(t.p99, 4);
  }
  tail_table.print_aligned(std::cout);

  bool all_identical = true;
  std::ofstream out(out_path);
  out << "{\"sweeps\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& pt = points[i];
    all_identical = all_identical && pt.deterministic;
    if (i) out << ",";
    out << "{\"scenario\":" << json_quote(pt.scenario)
        << ",\"threads\":" << pt.threads << ",\"requests\":" << pt.requests
        << ",\"wall_ms\":" << json_number(pt.wall_ms)
        << ",\"req_per_sec\":" << json_number(pt.req_per_sec)
        << ",\"cache_hit_rate\":" << json_number(pt.cache_hit_rate)
        << ",\"ok\":" << pt.ok << ",\"failed\":" << pt.failed
        << ",\"rejected\":" << pt.rejected << ",\"retries\":" << pt.retries
        << ",\"journal_events\":" << pt.journal_events
        << ",\"simulated_attempts\":" << pt.simulated_attempts
        << ",\"deterministic\":" << (pt.deterministic ? "true" : "false")
        << "}";
  }
  out << "],\"tenants\":[";
  for (std::size_t i = 0; i < tails.size(); ++i) {
    const TenantTail& t = tails[i];
    if (i) out << ",";
    out << "{\"scenario\":" << json_quote(t.scenario)
        << ",\"tenant\":" << json_quote(t.tenant) << ",\"ok\":" << t.ok
        << ",\"p50\":" << json_number(t.p50)
        << ",\"p99\":" << json_number(t.p99) << "}";
  }
  out << "]}\n";
  std::cout << "\nwrote " << out_path << "\n";

  if (!all_identical) {
    std::cerr << "determinism regression: serve report, journal or timeline "
                 "bytes differ across host thread counts\n";
    return 1;
  }
  return 0;
}
