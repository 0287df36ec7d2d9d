#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "serve/script.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace hpmm {
namespace {

TenantRequest clean_request(double arrival, const std::string& tenant = "a") {
  TenantRequest req;
  req.tenant = tenant;
  req.arrival = arrival;
  req.algo = "cannon";
  req.n = 16;
  req.p = 16;
  return req;
}

/// Detect-only ABFT over certain corruption: every attempt runs to
/// completion but reports uncorrected corruption, the serve-retryable
/// failure.
std::shared_ptr<FaultPlan> corrupting_plan(std::uint64_t seed,
                                           double prob = 1.0) {
  auto plan = std::make_shared<FaultPlan>();
  plan->corrupt_prob = prob;
  plan->abft = AbftMode::kDetect;
  plan->seed = seed;
  return plan;
}

std::string json_of(const ServeReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

TEST(Server, CleanRequestCompletesOk) {
  const Server server(ServeOptions{});
  const ServeReport report = server.run({clean_request(0.0)});
  ASSERT_EQ(report.requests.size(), 1u);
  const RequestRecord& rec = report.requests[0];
  EXPECT_EQ(rec.outcome, ServeOutcome::kOk);
  EXPECT_EQ(rec.attempts, 1u);
  EXPECT_EQ(rec.algorithm, "cannon");
  EXPECT_GT(rec.service_time, 0.0);
  EXPECT_DOUBLE_EQ(rec.latency, rec.service_time);  // no queueing, no waits
  const TenantStats& ts = report.tenants.at("a");
  EXPECT_EQ(ts.submitted, 1u);
  EXPECT_EQ(ts.ok, 1u);
  EXPECT_GT(report.latency_quantile("a", 0.5), 0.0);
  EXPECT_EQ(report.makespan, rec.finish);
}

TEST(Server, InvalidRequestsAreRejectedWithoutService) {
  TenantRequest zero_n = clean_request(0.0);
  zero_n.n = 0;
  TenantRequest unknown = clean_request(1.0);
  unknown.algo = "strassen-on-a-toaster";
  const ServeReport report = Server(ServeOptions{}).run({zero_n, unknown});
  EXPECT_EQ(report.requests[0].outcome, ServeOutcome::kRejectedInvalid);
  EXPECT_EQ(report.requests[1].outcome, ServeOutcome::kRejectedInvalid);
  EXPECT_EQ(report.requests[0].attempts, 0u);
  EXPECT_EQ(report.tenants.at("a").rejected_invalid, 2u);
  // Rejections never enter the latency histogram.
  EXPECT_DOUBLE_EQ(report.latency_quantile("a", 0.99), 0.0);
}

TEST(Server, InfeasibleShapeIsRejectedBySelector) {
  TenantRequest req = clean_request(0.0);
  req.algo = "";  // selector's choice
  req.n = 10;
  req.p = 7;  // no formulation accepts 7 processors
  const ServeReport report = Server(ServeOptions{}).run({req});
  EXPECT_EQ(report.requests[0].outcome, ServeOutcome::kRejectedInfeasible);
}

TEST(Server, UnknownMachinePresetThrows) {
  TenantRequest req = clean_request(0.0);
  req.machine = "pdp11";
  EXPECT_THROW(Server(ServeOptions{}).run({req}), PreconditionError);
}

TEST(Server, DeadlineAbortsWithoutRetry) {
  ServeOptions opt;
  opt.deadline_factor = 0.1;  // a tenth of the model's T_p: hopeless
  opt.max_retries = 3;
  const ServeReport report = Server(opt).run({clean_request(0.0)});
  const RequestRecord& rec = report.requests[0];
  EXPECT_EQ(rec.outcome, ServeOutcome::kDeadlineExceeded);
  EXPECT_EQ(rec.attempts, 1u);  // deadline failures are final, never retried
  EXPECT_GT(rec.deadline, 0.0);
  EXPECT_DOUBLE_EQ(rec.service_time, rec.deadline);  // held its slot to the budget
  EXPECT_EQ(report.tenants.at("a").deadline_exceeded, 1u);
  EXPECT_EQ(report.tenants.at("a").retries, 0u);
}

TEST(Server, PerRequestDeadlineFactorOverridesTheServerDefault) {
  ServeOptions opt;
  opt.deadline_factor = 100.0;  // server-wide: generous
  TenantRequest req = clean_request(0.0);
  req.deadline_factor = 0.1;  // this request: hopeless
  const ServeReport report = Server(opt).run({req});
  EXPECT_EQ(report.requests[0].outcome, ServeOutcome::kDeadlineExceeded);
}

TEST(Server, RetriesAreBoundedAndChargeBackoff) {
  ServeOptions opt;
  opt.max_retries = 2;
  TenantRequest req = clean_request(0.0);
  req.faults = corrupting_plan(9);
  const ServeReport report = Server(opt).run({req});
  const RequestRecord& rec = report.requests[0];
  EXPECT_EQ(rec.outcome, ServeOutcome::kFailed);
  EXPECT_EQ(rec.attempts, opt.max_retries + 1);
  EXPECT_NE(rec.detail.find("abft detected"), std::string::npos);
  const TenantStats& ts = report.tenants.at("a");
  EXPECT_EQ(ts.retries, opt.max_retries);
  // Latency covers service plus the exponential backoff gaps between
  // attempts, so it must exceed the attempts' service time alone.
  EXPECT_GT(rec.latency, rec.service_time);
}

TEST(Server, ZeroRetriesFailsOnTheFirstDetection) {
  ServeOptions opt;
  opt.max_retries = 0;
  TenantRequest req = clean_request(0.0);
  req.faults = corrupting_plan(9);
  const ServeReport report = Server(opt).run({req});
  EXPECT_EQ(report.requests[0].attempts, 1u);
  EXPECT_EQ(report.tenants.at("a").retries, 0u);
}

TEST(Server, RetryAttemptsDrawFreshFaultSeeds) {
  // The interplay test: the injector replays identical faults for an
  // identical (plan, pattern) pair, so retries only help because the server
  // re-seeds each attempt. A moderate corruption rate must then give the
  // retried request a chance: across attempts the outcomes are not all
  // forced to repeat attempt 0's. Deterministically, the whole run is
  // reproducible bit for bit.
  ServeOptions opt;
  opt.max_retries = 4;
  TenantRequest req = clean_request(0.0);
  req.faults = corrupting_plan(123, 0.01);
  const ServeReport first = Server(opt).run({req});
  const ServeReport second = Server(opt).run({req});
  EXPECT_EQ(json_of(first), json_of(second));
  const RequestRecord& rec = first.requests[0];
  EXPECT_LE(rec.attempts, opt.max_retries + 1);
  EXPECT_TRUE(rec.outcome == ServeOutcome::kOk ||
              rec.outcome == ServeOutcome::kFailed);
}

TEST(Server, ConsecutiveFailuresTripTheBreaker) {
  ServeOptions opt;
  opt.max_retries = 0;
  opt.breaker_threshold = 2;
  opt.breaker_cooldown = 1e12;  // never half-opens within this run
  std::vector<TenantRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    TenantRequest req = clean_request(i * 50000.0);  // strictly sequential
    req.faults = corrupting_plan(static_cast<std::uint64_t>(i) + 1);
    reqs.push_back(std::move(req));
  }
  const ServeReport report = Server(opt).run(reqs);
  EXPECT_EQ(report.requests[0].outcome, ServeOutcome::kFailed);
  EXPECT_EQ(report.requests[1].outcome, ServeOutcome::kFailed);
  EXPECT_EQ(report.requests[2].outcome, ServeOutcome::kRejectedBreaker);
  EXPECT_EQ(report.requests[3].outcome, ServeOutcome::kRejectedBreaker);
  const TenantStats& ts = report.tenants.at("a");
  EXPECT_EQ(ts.breaker_trips, 1u);
  EXPECT_EQ(ts.rejected_breaker, 2u);
}

TEST(Server, QueueBoundRejectsWithBackpressure) {
  ServeOptions opt;
  opt.slots = 1;
  opt.queue_capacity = 1;
  opt.tenant_quota = 8;
  std::vector<TenantRequest> reqs = {clean_request(0.0, "a"),
                                     clean_request(0.0, "b"),
                                     clean_request(0.0, "c")};
  const ServeReport report = Server(opt).run(reqs);
  EXPECT_EQ(report.requests[0].outcome, ServeOutcome::kOk);
  EXPECT_EQ(report.requests[1].outcome, ServeOutcome::kRejectedQueueFull);
  EXPECT_EQ(report.requests[2].outcome, ServeOutcome::kRejectedQueueFull);
}

TEST(Server, TenantQuotaRejectsTheOverflow) {
  ServeOptions opt;
  opt.tenant_quota = 1;
  std::vector<TenantRequest> reqs = {clean_request(0.0), clean_request(0.0),
                                     clean_request(0.0, "b")};
  const ServeReport report = Server(opt).run(reqs);
  EXPECT_EQ(report.requests[0].outcome, ServeOutcome::kOk);
  EXPECT_EQ(report.requests[1].outcome, ServeOutcome::kRejectedQuota);
  EXPECT_EQ(report.requests[2].outcome, ServeOutcome::kOk);  // b unaffected
}

TEST(Server, PlanCacheHitsForRepeatedRequestClasses) {
  const Server server(ServeOptions{});
  std::vector<TenantRequest> reqs = {clean_request(0.0),
                                     clean_request(50000.0),
                                     clean_request(100000.0, "b")};
  const ServeReport report = server.run(reqs);
  EXPECT_EQ(report.cache_misses, 1u);
  EXPECT_EQ(report.cache_hits, 2u);  // same class, tenant-independent
  EXPECT_FALSE(report.requests[0].cache_hit);
  EXPECT_TRUE(report.requests[1].cache_hit);
  EXPECT_TRUE(report.requests[2].cache_hit);
  EXPECT_DOUBLE_EQ(report.cache_hit_rate(), 2.0 / 3.0);
}

TEST(Server, ZeroCapacityPlanCacheServesEveryRequestAsAMiss) {
  ServeOptions opt;
  opt.plan_cache_capacity = 0;
  const Server server(opt);
  std::vector<TenantRequest> reqs = {clean_request(0.0),
                                     clean_request(50000.0),
                                     clean_request(100000.0, "b")};
  const ServeReport report = server.run(reqs);
  // Identical request classes, yet nothing is cached: all misses, all ok.
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.cache_misses, 3u);
  EXPECT_DOUBLE_EQ(report.cache_hit_rate(), 0.0);
  for (const auto& rec : report.requests) {
    EXPECT_EQ(rec.outcome, ServeOutcome::kOk);
    EXPECT_FALSE(rec.cache_hit);
  }
  // The exported JSON stays numerically valid (no NaN hit rate). Match the
  // bare token, not the substring (field names like "tenant" contain "nan").
  const std::string json = json_of(report);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_EQ(json.find(": nan"), std::string::npos) << json;
  EXPECT_EQ(json.find(":nan"), std::string::npos) << json;
}

TEST(Server, ReportIsByteIdenticalAcrossRunsAndThreadCounts) {
  WorkloadOptions wl;
  wl.requests = 24;
  wl.tenants = 3;
  wl.seed = 7;
  wl.fault_fraction = 0.25;
  ServeOptions opt;
  opt.deadline_factor = 8.0;
  opt.seed = 7;

  const ServeReport serial = Server(opt).run(generate_workload(wl));
  const ServeReport serial_again = Server(opt).run(generate_workload(wl));
  EXPECT_EQ(json_of(serial), json_of(serial_again));

  ServeOptions threaded = opt;
  threaded.threads = 4;
  const ServeReport parallel = Server(threaded).run(generate_workload(wl));
  EXPECT_EQ(json_of(serial), json_of(parallel));
}

TEST(Server, ScriptedStreamRoundTripsThroughTheServer) {
  const auto reqs = parse_serve_script(
      "request tenant=alice arrival=0 algo=cannon n=16 p=16\n"
      "request tenant=bob arrival=100 algo=gk n=16 p=8\n"
      "request tenant=alice arrival=200 algo=cannon n=16 p=16 corrupt=1 "
      "abft=detect\n");
  ServeOptions opt;
  opt.max_retries = 1;
  const ServeReport report = Server(opt).run(reqs);
  EXPECT_EQ(report.requests[0].outcome, ServeOutcome::kOk);
  EXPECT_EQ(report.requests[1].outcome, ServeOutcome::kOk);
  EXPECT_EQ(report.requests[1].algorithm, "gk");
  EXPECT_EQ(report.requests[2].outcome, ServeOutcome::kFailed);
  EXPECT_EQ(report.tenants.at("alice").retries, 1u);
}

TEST(Server, RequestLogCanBeDropped) {
  ServeOptions opt;
  opt.keep_request_log = false;
  const ServeReport report = Server(opt).run({clean_request(0.0)});
  EXPECT_TRUE(report.requests.empty());
  EXPECT_EQ(report.tenants.at("a").ok, 1u);  // aggregates survive
}

TEST(Server, MetricsMirrorTheAggregates) {
  const Server server(ServeOptions{});
  const ServeReport report =
      server.run({clean_request(0.0), clean_request(50000.0)});
  std::ostringstream os;
  report.metrics.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"serve.submitted\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.ok\""), std::string::npos);
  EXPECT_NE(json.find("\"serve.latency.a\""), std::string::npos);
  EXPECT_NE(report.summary().find("serve: 2 requests"), std::string::npos);
}

TEST(Server, MetricsSnapshotsStreamOnVirtualTime) {
  ServeOptions opt;
  opt.metrics_every = 1000.0;
  const Server server(opt);
  const ServeReport report =
      server.run({clean_request(0.0, "a"), clean_request(2500.0, "b")});
  ASSERT_GE(report.metric_snapshots.size(), 2u);
  // Snapshot stamps are boundary crossings in strictly increasing order,
  // and the stream always closes with one at the makespan.
  double prev = -1.0;
  for (const auto& snap : report.metric_snapshots) {
    EXPECT_GT(snap.time, prev);
    prev = snap.time;
  }
  EXPECT_DOUBLE_EQ(report.metric_snapshots.back().time, report.makespan);
  // Counters are monotone across snapshots: serve.ok never decreases (it
  // may be absent from early snapshots, before the first completion).
  std::uint64_t prev_ok = 0;
  for (const auto& snap : report.metric_snapshots) {
    const Counter* c = snap.metrics.find_counter("serve.ok");
    const std::uint64_t ok = c != nullptr ? c->value() : 0;
    EXPECT_GE(ok, prev_ok);
    prev_ok = ok;
  }
  EXPECT_EQ(prev_ok, 2u);
  // With the stream disabled (the default), no snapshots are kept.
  const ServeReport quiet = Server(ServeOptions{}).run({clean_request(0.0)});
  EXPECT_TRUE(quiet.metric_snapshots.empty());
}

TEST(Server, MetricsSnapshotsAreByteIdenticalAcrossThreads) {
  auto snapshots_json = [](unsigned threads) {
    ServeOptions opt;
    opt.threads = threads;
    opt.metrics_every = 500.0;
    opt.max_retries = 1;
    TenantRequest failing = clean_request(100.0, "f");
    failing.faults = corrupting_plan(9);
    const ServeReport report = Server(opt).run(
        {clean_request(0.0, "a"), failing, clean_request(3000.0, "b")});
    std::ostringstream os;
    for (const auto& snap : report.metric_snapshots) {
      os << snap.time << "\n";
      snap.metrics.write_json(os);
      os << "\n";
    }
    return os.str();
  };
  const std::string serial = snapshots_json(1);
  EXPECT_EQ(serial, snapshots_json(1));  // same seed, same bytes
  EXPECT_EQ(serial, snapshots_json(4));  // host threads are invisible
  EXPECT_FALSE(serial.empty());
}

TEST(Server, PlanCacheGaugesSurfaceInMetrics) {
  ServeOptions opt;
  opt.plan_cache_capacity = 8;
  const Server server(opt);
  // Same shape twice: one miss, one hit.
  const ServeReport report =
      server.run({clean_request(0.0, "a"), clean_request(50000.0, "a")});
  ASSERT_NE(report.metrics.find_counter("serve.cache.misses"), nullptr);
  EXPECT_EQ(report.metrics.find_counter("serve.cache.misses")->value(), 1u);
  ASSERT_NE(report.metrics.find_counter("serve.cache.hits"), nullptr);
  EXPECT_EQ(report.metrics.find_counter("serve.cache.hits")->value(), 1u);
  ASSERT_NE(report.metrics.find_gauge("serve.plan_cache.size"), nullptr);
  EXPECT_DOUBLE_EQ(report.metrics.find_gauge("serve.plan_cache.size")->value(),
                   1.0);
  EXPECT_DOUBLE_EQ(
      report.metrics.find_gauge("serve.plan_cache.capacity")->value(), 8.0);
  EXPECT_DOUBLE_EQ(
      report.metrics.find_gauge("serve.plan_cache.hit_rate")->value(), 0.5);
}

/// Exact memo gate (DESIGN.md §11 "Result memo"): the serial loop
/// simulates once per distinct clean key among dispatched requests and once
/// per dispatched attempt of a faulty request — nothing else — at every host
/// thread count.
TEST(Server, SimulatedAttemptsCountDistinctCleanKeysPlusFaultyAttempts) {
  WorkloadOptions wl;
  wl.requests = 120;
  wl.tenants = 4;
  wl.seed = 11;
  wl.mean_gap = 4000.0;
  wl.fault_fraction = 0.3;
  std::vector<TenantRequest> reqs = generate_workload(wl);
  // Detect-only faulty requests retry; a 0.9x deadline on some clean ones
  // aborts them and splits their class into a second memo key.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].faults && i % 2 == 0) {
      reqs[i].faults = corrupting_plan(reqs[i].faults->seed, 0.01);
    } else if (!reqs[i].faults && i % 7 == 0) {
      reqs[i].deadline_factor = 0.9;
    }
  }
  ServeOptions opt;
  opt.seed = 11;
  opt.deadline_factor = 3.0;

  const ServeReport serial = Server(opt).run(reqs);
  std::set<std::tuple<std::string, std::size_t, std::size_t, std::string,
                      double>>
      clean_keys;
  std::uint64_t faulty_attempts = 0, retries = 0, aborts = 0;
  for (const RequestRecord& rec : serial.requests) {
    if (rec.attempts == 0) continue;
    if (rec.request.faults) {
      faulty_attempts += rec.attempts;
    } else {
      clean_keys.emplace(rec.algorithm, rec.request.n, rec.request.p,
                         rec.request.machine, rec.deadline);
    }
    if (rec.attempts > 1) ++retries;
    if (rec.outcome == ServeOutcome::kDeadlineExceeded) ++aborts;
  }
  ASSERT_GT(retries, 0u);
  ASSERT_GT(aborts, 0u);
  ASSERT_GT(faulty_attempts, 0u);
  EXPECT_EQ(serial.simulated_attempts, clean_keys.size() + faulty_attempts);
  EXPECT_LT(serial.simulated_attempts, reqs.size());

  ServeOptions threaded = opt;
  threaded.threads = 3;
  const ServeReport parallel = Server(threaded).run(reqs);
  EXPECT_EQ(parallel.simulated_attempts, serial.simulated_attempts);
  EXPECT_EQ(json_of(parallel), json_of(serial));
  EXPECT_EQ(parallel.journal.jsonl(), serial.journal.jsonl());
}

/// Speculation simulates one request per clean key, and the serial loop
/// answers the other 199 identical requests from the memo at any thread
/// count.
TEST(Server, IdenticalCleanStreamSimulatesOnceAtAnyThreadCount) {
  std::vector<TenantRequest> reqs;
  for (int i = 0; i < 200; ++i) {
    reqs.push_back(clean_request(2000.0 * i, i % 2 ? "a" : "b"));
  }
  ServeOptions opt;
  opt.queue_capacity = 256;
  opt.tenant_quota = 256;
  const ServeReport serial = Server(opt).run(reqs);
  ServeOptions threaded = opt;
  threaded.threads = 4;
  const ServeReport parallel = Server(threaded).run(reqs);
  EXPECT_EQ(serial.simulated_attempts, 1u);
  EXPECT_EQ(parallel.simulated_attempts, 1u);
  EXPECT_EQ(json_of(parallel), json_of(serial));
  EXPECT_EQ(parallel.journal.jsonl(), serial.journal.jsonl());
  for (const RequestRecord& rec : serial.requests) {
    EXPECT_EQ(rec.outcome, ServeOutcome::kOk);
    EXPECT_EQ(rec.service_time, serial.requests[0].service_time);
  }
}

/// Any fault plan opts a request out of the memo, even one that injects
/// nothing: its attempts always simulate.
TEST(Server, FaultPlanThatInjectsNothingAlwaysSimulates) {
  std::vector<TenantRequest> reqs;
  for (int i = 0; i < 3; ++i) {
    TenantRequest req = clean_request(50000.0 * i);
    req.faults = std::make_shared<FaultPlan>();
    reqs.push_back(req);
  }
  reqs.push_back(clean_request(150000.0));
  reqs.push_back(clean_request(200000.0));
  const ServeReport report = Server(ServeOptions{}).run(reqs);
  EXPECT_EQ(report.simulated_attempts, 4u);  // 3 faulty + 1 clean key
  for (const RequestRecord& rec : report.requests) {
    EXPECT_EQ(rec.outcome, ServeOutcome::kOk);
    EXPECT_EQ(rec.service_time, report.requests[0].service_time);
  }
}

TEST(Server, InvalidOptionsAreRejected) {
  ServeOptions opt;
  opt.slots = 0;
  EXPECT_THROW(Server{opt}, PreconditionError);
  opt = ServeOptions{};
  opt.backoff_factor = 0.5;
  EXPECT_THROW(Server{opt}, PreconditionError);
  opt = ServeOptions{};
  opt.queue_capacity = 0;
  EXPECT_THROW(Server{opt}, PreconditionError);
  // Plan-cache capacity 0 is valid: it disables caching (pass-through).
  opt = ServeOptions{};
  opt.plan_cache_capacity = 0;
  EXPECT_NO_THROW(Server{opt});
  opt = ServeOptions{};
  opt.breaker_threshold = 0;
  EXPECT_THROW(Server{opt}, PreconditionError);
}

}  // namespace
}  // namespace hpmm
