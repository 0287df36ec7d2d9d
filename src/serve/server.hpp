#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "serve/admission.hpp"
#include "serve/journal.hpp"
#include "serve/plan_cache.hpp"
#include "serve/request.hpp"
#include "serve/slo.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"

namespace hpmm {

/// Knobs of the serving envelope (DESIGN.md "Serving mode & robustness
/// envelope"); the `hpmm serve` defaults.
struct ServeOptions {
  std::size_t slots = 4;    ///< requests in service concurrently (virtual)
  unsigned threads = 1;     ///< host threads for speculative simulation
  std::size_t queue_capacity = 16;  ///< admitted-but-unfinished, server-wide
  std::size_t tenant_quota = 8;     ///< admitted-but-unfinished, per tenant
  unsigned breaker_threshold = 3;   ///< consecutive failures that trip
  double breaker_cooldown = 50000.0;  ///< virtual time open before half-open
  unsigned max_retries = 2;  ///< extra attempts after a detected-fault failure
  double backoff_base = 500.0;    ///< first retry delay, virtual time
  double backoff_factor = 2.0;    ///< exponential growth per further retry
  double backoff_jitter = 0.5;    ///< fraction of each delay randomized
  /// Deadline budget = deadline_factor x the plan's model-predicted T_p
  /// (per-request TenantRequest::deadline_factor overrides); 0 = unbounded.
  double deadline_factor = 0.0;
  std::uint64_t seed = 1;  ///< jitter stream seed
  /// LRU plan-cache entries; 0 disables caching (every request re-plans).
  std::size_t plan_cache_capacity = 64;
  bool keep_request_log = true;  ///< keep per-request records in the report
  /// Virtual-time width of the per-tenant observability windows (the
  /// serve.series.* time series and the SLO burn rates).
  double window = 50000.0;
  /// Per-tenant objectives; the "*" entry is the default for tenants
  /// without one. Empty = no SLO accounting.
  SloTargets slos;
  /// Virtual-time period of streamed metrics snapshots (`hpmm serve
  /// --metrics-every`); 0 disables streaming. Snapshots are taken by the
  /// serial event loop, so they are byte-identical for every host thread
  /// count (docs/observability.md).
  double metrics_every = 0.0;
};

/// Per-tenant outcome and robustness counters.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_infeasible = 0;
  std::uint64_t rejected_breaker = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t retries = 0;       ///< retry attempts scheduled
  std::uint64_t breaker_trips = 0;
  std::uint64_t cache_hits = 0;    ///< plans served from the cache
  double ok_latency_sum = 0.0;     ///< summed latency of ok requests

  std::uint64_t rejected() const noexcept {
    return rejected_invalid + rejected_infeasible + rejected_breaker +
           rejected_queue_full + rejected_quota;
  }
};

/// Outcome of one serve run. Deterministic: the same request stream and
/// options produce a byte-identical write_json for every host thread count.
struct ServeReport {
  ServeOptions options;
  /// Per-request records in submission order (empty when
  /// !options.keep_request_log).
  std::vector<RequestRecord> requests;
  std::map<std::string, TenantStats> tenants;
  double makespan = 0.0;  ///< virtual time of the last processed event
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// serve.latency.<tenant> histograms (ok requests only), serve.* counters
  /// mirroring the aggregate tallies, and the windowed per-tenant
  /// serve.series.<tenant>.* time series (arrivals, ok, errors, finals,
  /// retries, queue_depth, in_flight, latency — DESIGN.md §13).
  MetricsRegistry metrics;
  /// Every decision the event loop took, in order (DESIGN.md §13);
  /// byte-identical for every host thread count.
  EventJournal journal;
  /// One registry copy per crossed `metrics_every` boundary (stamped with
  /// the boundary's virtual time) plus a final snapshot at the makespan.
  /// Empty unless options.metrics_every > 0.
  struct MetricsSnapshot {
    double time = 0.0;
    MetricsRegistry metrics;
  };
  std::vector<MetricsSnapshot> metric_snapshots;
  /// One verdict per tenant with an objective (options.slos); empty when no
  /// SLO was configured.
  std::vector<SloVerdict> slo;
  /// Host-side: service attempts the event loop took from a simulation
  /// rather than from the result memo (every faulty attempt plus one per
  /// distinct clean key — DESIGN.md §11 "Result memo"). Identical for every
  /// host thread count and, like EngineTelemetry, never serialized.
  std::uint64_t simulated_attempts = 0;

  /// Bucket-interpolated latency quantile of the tenant's completed
  /// requests; 0 when the tenant completed none.
  double latency_quantile(const std::string& tenant, double q) const;

  double cache_hit_rate() const noexcept;

  /// One row per tenant: outcome counts, retries, trips, p50/p95/p99.
  Table tenant_table() const;

  /// One-line aggregate summary.
  std::string summary() const;

  /// Any configured objective breached (exhausted availability budget or
  /// p99 above target) — the `hpmm serve --slo-strict` exit condition.
  bool slo_breached() const noexcept;

  /// The full report as one JSON object.
  void write_json(std::ostream& os) const;
};

/// Deterministic in-process serving driver. Requests are replayed through a
/// virtual-time event loop: admission control at arrival (circuit breaker,
/// bounded queue, tenant quota — serve/admission.hpp), plan resolution
/// through an LRU cache, fair round-robin dispatch over tenants onto
/// `slots` concurrent service slots, per-request deadline budgets enforced
/// by the simulator, and seeded exponential-backoff retries when ABFT
/// detects uncorrected corruption or a processor fail-stops.
///
/// A clean attempt (no fault plan) is a pure function of its formulation,
/// shape, machine and deadline, so each run keeps a result memo: repeats of
/// a clean key reuse the first attempt's outcome instead of re-simulating.
/// Every attempt's simulation is schedule-independent (it runs on its own
/// SimMachine), so with threads > 1 the server speculatively simulates, in
/// parallel on a host thread pool, the first attempts of faulty requests and
/// one request per clean key; the event loop itself stays serial and alone
/// decides memo hits, making reports bit-identical for every thread count.
class Server {
 public:
  explicit Server(ServeOptions options);

  /// Serve the stream. Request ids are overwritten with stream positions
  /// (they seed operands and retry jitter); arrivals need not be sorted.
  ServeReport run(std::vector<TenantRequest> requests) const;

  const ServeOptions& options() const noexcept { return options_; }

 private:
  ServeOptions options_;
};

}  // namespace hpmm
