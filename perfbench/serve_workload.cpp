// The serve_mix workload: sessions of 500 generated requests (4 tenants,
// 15% carrying ABFT-corrected corruption), each session on a fresh Server
// with default options and one host thread. Many tiny simulations, so the
// per-run fixed cost and the serve event loop dominate.

#include <cstdint>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench.hpp"
#include "serve/script.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace hpmm;

constexpr std::size_t kRequestsPerSession = 500;

/// FNV-1a over the report's JSON: sessions must reproduce it byte for byte.
std::uint64_t report_digest(const ServeReport& report, Spans& spans) {
  std::ostringstream os;
  {
    Spans::Scope span(spans, "serve.report_json");
    report.write_json(os);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : os.str()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

bool all_ok(const ServeReport& report) {
  if (report.requests.size() != kRequestsPerSession) return false;
  for (const RequestRecord& r : report.requests) {
    if (r.outcome != ServeOutcome::kOk) return false;
  }
  return true;
}

/// Share of requests that are clean (no fault plan) repeats of an earlier
/// clean request with the same (algorithm, n, p, machine): the requests a
/// result memo could answer without simulating.
double memoizable_share(const ServeReport& report) {
  std::set<std::string> seen;
  std::size_t repeats = 0;
  for (const RequestRecord& r : report.requests) {
    if (r.request.faults) continue;
    const std::string key = r.algorithm + "/" + std::to_string(r.request.n) +
                            "/" + std::to_string(r.request.p) + "/" +
                            r.request.machine;
    if (!seen.insert(key).second) ++repeats;
  }
  return static_cast<double>(repeats) /
         static_cast<double>(report.requests.size());
}

std::uint64_t total_retries(const ServeReport& report) {
  std::uint64_t retries = 0;
  for (const auto& [tenant, stats] : report.tenants) retries += stats.retries;
  return retries;
}

}  // namespace

Outcome run_serve_workload(const Options& options, Spans& spans) {
  Outcome out;
  WorkloadOptions wo;
  wo.requests = kRequestsPerSession;
  wo.tenants = 4;
  wo.seed = options.seed;
  wo.fault_fraction = 0.15;
  ServeOptions so;
  so.threads = 1;

  std::vector<TenantRequest> requests;
  std::optional<ServeReport> expected;
  std::uint64_t digest = 0;
  // One complete set-up; every repetition must reproduce the first's report.
  const auto set_up = [&] {
    Spans::Scope span(spans, "setup");
    const auto t0 = Clock::now();
    {
      Spans::Scope inputs(spans, "setup.inputs");
      requests = generate_workload(wo);
    }
    Spans::Scope warmup(spans, "setup.digest");
    ServeReport report = Server(so).run(requests);
    const std::uint64_t d = report_digest(report, spans);
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    if (!all_ok(report)) {
      std::cerr << "setup: not every request of the session ended ok\n";
      out.setup_ok = false;
    }
    if (expected && d != digest) {
      std::cerr << "setup: serve report differs between set-ups\n";
      out.setup_ok = false;
    }
    digest = d;
    expected = std::move(report);
  };
  set_up();

  std::vector<double> session_ms;
  std::vector<double> session_allocs;
  std::vector<double> ref_ms;
  session_ms.reserve(std::size_t{1} << 14);
  ref_ms.reserve(std::size_t{1} << 14);
  session_allocs.reserve(std::size_t{1} << 14);
  const double window_ms = options.seconds * 1000.0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed_ms = ms_between(start, Clock::now());
    if (i > 0 && elapsed_ms >= window_ms) break;
    if (setup_due(out.setup_s.size(), elapsed_ms, window_ms)) set_up();
    std::vector<TenantRequest> session = requests;
    {
      Spans::Scope ref_span(spans, "host.reference");
      ref_ms.push_back(reference_ms());
    }
    Spans::Scope op_span(spans, "op", static_cast<std::int64_t>(i));
    std::optional<ServeReport> report;
    {
      Spans::Scope session_span(spans, "serve.session");
      const std::uint64_t a0 = allocations();
      const auto t0 = Clock::now();
      report.emplace(Server(so).run(std::move(session)));
      const auto t1 = Clock::now();
      const std::uint64_t a1 = allocations();
      session_ms.push_back(ms_between(t0, t1));
      session_allocs.push_back(static_cast<double>(a1 - a0));
    }
    Spans::Scope check_span(spans, "check");
    const std::uint64_t want =
        options.plant_wrong_reference && i == 0 ? digest ^ 1 : digest;
    ++out.attempted;
    if (!all_ok(*report) || report_digest(*report, spans) != want) ++out.failed;
  }
  while (out.setup_s.size() < kSetupRepeats) set_up();
  out.op_ms.emplace_back();
  for (const double ms : session_ms) {
    out.op_ms[0].push_back(ms / static_cast<double>(kRequestsPerSession));
  }
  out.ref_ms.push_back(std::move(ref_ms));

  if (!options.trace) return out;

  const auto per_session = static_cast<double>(kRequestsPerSession);
  out.per_layer = {
      {"serve.session_ms", median(session_ms)},
      {"serve.allocs_per_request", median(session_allocs) / per_session},
      {"serve.cache_hit_rate", expected->cache_hit_rate()},
      {"serve.memoizable_share", memoizable_share(*expected)},
      {"serve.retries_per_session", static_cast<double>(total_retries(*expected))},
      {"serve.journal_events_per_session",
       static_cast<double>(expected->journal.size())},
      {"serve.report_json_ms", median(spans.durations("serve.report_json"))},
  };
  for (Metric& m : serve_shape_probes(options.seed, spans)) {
    out.per_layer.push_back(std::move(m));
  }
  return out;
}

}  // namespace perfbench
