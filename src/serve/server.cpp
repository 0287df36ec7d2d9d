#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <iterator>
#include <optional>
#include <queue>
#include <string_view>
#include <utility>

#include "core/registry.hpp"
#include "core/selector.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hpmm {
namespace {

/// Outcome of simulating one service attempt (never a rejection).
struct Attempt {
  ServeOutcome outcome = ServeOutcome::kOk;
  double service_time = 0.0;  ///< how long the attempt held its slot
  std::string detail;
};

/// Mutable serving state of one admitted request.
struct Pending {
  ServicePlan plan;
  double deadline = 0.0;
  unsigned attempts = 0;  ///< attempts started so far
  Attempt last;           ///< result of the attempt now in (or just out of) a slot
};

ServicePlan resolve_plan(const TenantRequest& req,
                         const MachineParams& machine) {
  ServicePlan plan;
  const auto nd = static_cast<double>(req.n);
  const auto pd = static_cast<double>(req.p);
  if (!req.algo.empty()) {
    // The caller has already checked the registry contains req.algo.
    if (!default_registry().implementation(req.algo).applicable(req.n,
                                                                req.p)) {
      return plan;
    }
    plan.applicable = true;
    plan.algorithm = req.algo;
    plan.t_model = default_registry().model(req.algo, machine)->t_parallel(nd, pd);
    return plan;
  }
  const Selection sel = select_algorithm(req.n, req.p, machine,
                                         /*require_simulatable=*/true);
  if (sel.best.empty()) return plan;
  plan.applicable = true;
  plan.algorithm = sel.best;
  plan.t_model = sel.t_parallel;
  return plan;
}

double deadline_for(const TenantRequest& req, const ServicePlan& plan,
                    const ServeOptions& options) {
  const double factor = req.deadline_factor > 0.0 ? req.deadline_factor
                                                  : options.deadline_factor;
  return factor > 0.0 ? factor * plan.t_model : 0.0;
}

/// Run one attempt end to end on its own simulated machine. Pure in
/// (request, plan, deadline, attempt): safe to speculate on host threads.
Attempt simulate_attempt(const TenantRequest& req,
                         const MachineParams& machine, const ServicePlan& plan,
                         double deadline, unsigned attempt) {
  MachineParams mp = machine;
  mp.faults = fault_plan_for_attempt(req.faults, attempt);
  mp.deadline = deadline;
  // Host threads are the server's to spend (across requests, not inside
  // one); simulated results are identical either way.
  mp.exec.threads = 1;
  const Matrix a = request_operand(req.n, req.id, 0xA);
  const Matrix b = request_operand(req.n, req.id, 0xB);
  Attempt out;
  try {
    const MatmulResult r =
        default_registry().implementation(plan.algorithm).run(a, b, req.p, mp);
    out.service_time = r.report.t_parallel;
    if (r.report.faults.abft_detected > r.report.faults.abft_corrected) {
      out.outcome = ServeOutcome::kFailed;
      out.detail = "abft detected uncorrected corruption (" +
                   std::to_string(r.report.faults.abft_detected -
                                  r.report.faults.abft_corrected) +
                   " blocks)";
    }
  } catch (const DeadlineExceeded& e) {
    out.outcome = ServeOutcome::kDeadlineExceeded;
    out.service_time = deadline;
    out.detail = e.what();
  } catch (const ProcessorFailure& e) {
    out.outcome = ServeOutcome::kFailed;
    out.service_time = e.at_time();
    out.detail = e.what();
  }
  return out;
}

/// Result-memo key of a clean attempt (DESIGN.md §11 "Result memo"). With
/// no fault plan an attempt's outcome depends only on these: simulated
/// clocks follow (src, dst, words, topology) and never operand values, ABFT
/// is off, nothing can fail-stop, and a deadline abort fires at a virtual
/// time the key fixes. The deadline is compared by bit pattern, so the memo
/// never conflates two budgets that merely print alike.
struct MemoKey {
  std::string algorithm;
  std::size_t n = 0;
  std::size_t p = 0;
  std::string machine;  ///< preset name; it fixes the MachineParams
  std::uint64_t deadline_bits = 0;

  auto operator<=>(const MemoKey&) const = default;
};

MemoKey memo_key(const TenantRequest& req, const ServicePlan& plan,
                 double deadline) {
  return {plan.algorithm, req.n, req.p, req.machine,
          std::bit_cast<std::uint64_t>(deadline)};
}

/// The windowed per-tenant serve.series.<tenant>.<what> families.
enum class Series : std::uint8_t {
  kArrivals, kOk, kErrors, kFinals, kRetries, kQueueDepth, kInFlight, kCount
};
constexpr const char* kSeriesNames[] = {"arrivals", "ok", "errors", "finals",
                                        "retries", "queue_depth", "in_flight"};
static_assert(std::size(kSeriesNames) ==
              static_cast<std::size_t>(Series::kCount));

/// One tenant's metric handles, each resolved the first time the event loop
/// needs it (so the report's metric set is exactly what the loop touched)
/// and reused after: std::map nodes are pointer-stable.
struct TenantState {
  const std::string* name = nullptr;
  std::array<TimeSeries*, static_cast<std::size_t>(Series::kCount)> series{};
  TimeSeries* latency_series = nullptr;
  Histogram* latency_hist = nullptr;
  /// Breaker state last journaled for this tenant.
  CircuitBreaker::State breaker_seen = CircuitBreaker::State::kClosed;
};

/// Deterministic backoff jitter in [0, 1): a private stream per
/// (server seed, request, attempt), independent of event order.
double jitter_unit(std::uint64_t seed, std::uint64_t id, unsigned attempt) {
  Rng rng(seed ^ (id * 0x9E3779B97F4A7C15ULL) ^
          (static_cast<std::uint64_t>(attempt) << 48));
  return rng.next_double();
}

/// Event kinds in processing-priority order at equal time: completions
/// free slots and queue units before retries re-enter, and both before new
/// arrivals face admission.
enum class EventKind : std::uint8_t { kCompletion = 0, kRetry = 1, kArrival = 2 };

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kArrival;
  std::uint64_t seq = 0;  ///< push order, the deterministic tie-breaker
  std::size_t index = 0;  ///< request index
};

struct LaterEvent {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.seq > b.seq;
  }
};

void write_options_json(std::ostream& os, const ServeOptions& o) {
  // `threads` is deliberately omitted: it is host wall-clock policy, and the
  // report must be byte-identical for every thread count.
  os << "{\"slots\":" << o.slots
     << ",\"queue_capacity\":" << o.queue_capacity
     << ",\"tenant_quota\":" << o.tenant_quota
     << ",\"breaker_threshold\":" << o.breaker_threshold
     << ",\"breaker_cooldown\":" << json_number(o.breaker_cooldown)
     << ",\"max_retries\":" << o.max_retries
     << ",\"backoff_base\":" << json_number(o.backoff_base)
     << ",\"backoff_factor\":" << json_number(o.backoff_factor)
     << ",\"backoff_jitter\":" << json_number(o.backoff_jitter)
     << ",\"deadline_factor\":" << json_number(o.deadline_factor)
     << ",\"seed\":" << o.seed
     << ",\"plan_cache_capacity\":" << o.plan_cache_capacity
     << ",\"window\":" << json_number(o.window) << "}";
}

void write_record_json(std::ostream& os, const RequestRecord& r) {
  os << "{\"id\":" << r.request.id << ",\"tenant\":"
     << json_quote(r.request.tenant)
     << ",\"arrival\":" << json_number(r.request.arrival)
     << ",\"algo\":" << json_quote(r.request.algo) << ",\"n\":" << r.request.n
     << ",\"p\":" << r.request.p
     << ",\"machine\":" << json_quote(r.request.machine)
     << ",\"outcome\":" << json_quote(to_string(r.outcome))
     << ",\"attempts\":" << r.attempts << ",\"slot\":" << r.slot
     << ",\"cache_hit\":" << (r.cache_hit ? "true" : "false")
     << ",\"algorithm\":" << json_quote(r.algorithm)
     << ",\"deadline\":" << json_number(r.deadline)
     << ",\"start\":" << json_number(r.start)
     << ",\"finish\":" << json_number(r.finish)
     << ",\"latency\":" << json_number(r.latency)
     << ",\"service_time\":" << json_number(r.service_time)
     << ",\"detail\":" << json_quote(r.detail) << "}";
}

/// The journal event recording an admission-time rejection.
JournalKind reject_kind(ServeOutcome outcome) noexcept {
  switch (outcome) {
    case ServeOutcome::kRejectedInvalid: return JournalKind::kRejectInvalid;
    case ServeOutcome::kRejectedInfeasible:
      return JournalKind::kRejectInfeasible;
    case ServeOutcome::kRejectedBreaker: return JournalKind::kRejectBreaker;
    case ServeOutcome::kRejectedQueueFull:
      return JournalKind::kRejectQueueFull;
    default: return JournalKind::kRejectQuota;
  }
}

}  // namespace

Server::Server(ServeOptions options) : options_(options) {
  require(options.slots >= 1, "serve: slots must be >= 1");
  require(options.threads >= 1, "serve: threads must be >= 1");
  require(options.backoff_base >= 0.0, "serve: backoff_base must be >= 0");
  require(options.backoff_factor >= 1.0, "serve: backoff_factor must be >= 1");
  require(options.backoff_jitter >= 0.0, "serve: backoff_jitter must be >= 0");
  require(options.deadline_factor >= 0.0,
          "serve: deadline_factor must be >= 0");
  require(options.window > 0.0, "serve: window must be > 0");
  for (const auto& [tenant, target] : options.slos) {
    require(!tenant.empty(), "serve: slo tenant must not be empty");
    // evaluate_slo validates the target's ranges; fail now, not at report
    // time.
    (void)evaluate_slo(tenant, target, 0, 0, 0.0, nullptr, nullptr);
  }
  // Queue, quota and breaker limits are validated by the components that
  // own them (AdmissionController, CircuitBreaker). Any plan-cache capacity
  // is valid: 0 disables caching (PlanCache passes every lookup through).
  (void)AdmissionController({options.queue_capacity, options.tenant_quota,
                             options.breaker_threshold,
                             options.breaker_cooldown});
}

ServeReport Server::run(std::vector<TenantRequest> requests) const {
  const ServeOptions& opt = options_;

  ServeReport report;
  report.options = opt;

  std::vector<RequestRecord> records(requests.size());
  std::vector<MachineParams> machine(requests.size());
  // Each request's tenant, mapped once to its TenantState.
  std::map<std::string_view, std::size_t> tenant_index;
  std::vector<TenantState> tenants;
  std::vector<std::size_t> tenant_of(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = i;
    records[i].request = requests[i];
    machine[i] = serve_machine_params(requests[i].machine);
    const auto [it, fresh] =
        tenant_index.emplace(requests[i].tenant, tenants.size());
    if (fresh) tenants.push_back({&requests[i].tenant});
    tenant_of[i] = it->second;
  }

  std::vector<Pending> state(requests.size());
  AdmissionController admission({opt.queue_capacity, opt.tenant_quota,
                                 opt.breaker_threshold, opt.breaker_cooldown});
  PlanCache cache(opt.plan_cache_capacity);

  // Speculative host-parallel simulation (threads > 1) of the first attempt
  // of every faulty request and of the first request, in submission order,
  // of every clean memo key; the memo answers the other clean requests, so
  // simulating them would only burn host time. Each attempt is
  // schedule-independent, so speculation wastes at most the wall-clock of
  // requests admission later rejects. The serial event loop below alone
  // decides memo hits and consumes these results, staying bit-identical to
  // the threads == 1 run.
  std::vector<std::optional<Attempt>> speculated(requests.size());
  std::map<MemoKey, std::size_t> speculated_key;  // clean key -> request
  if (opt.threads > 1 && !requests.empty()) {
    ThreadPool pool(opt.threads);
    std::vector<std::optional<ServicePlan>> plans(requests.size());
    pool.parallel_for(requests.size(), [&](std::size_t i) {
      const TenantRequest& req = requests[i];
      if (req.n == 0 || req.p == 0) return;
      if (!req.algo.empty() && !default_registry().contains(req.algo)) return;
      ServicePlan plan = resolve_plan(req, machine[i]);
      if (plan.applicable) plans[i] = std::move(plan);
    });
    std::vector<std::size_t> work;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!plans[i]) continue;
      const TenantRequest& req = requests[i];
      if (req.faults ||
          speculated_key
              .try_emplace(memo_key(req, *plans[i],
                                    deadline_for(req, *plans[i], opt)),
                           i)
              .second) {
        work.push_back(i);
      }
    }
    pool.parallel_for(work.size(), [&](std::size_t w) {
      const std::size_t i = work[w];
      const TenantRequest& req = requests[i];
      speculated[i] = simulate_attempt(req, machine[i], *plans[i],
                                       deadline_for(req, *plans[i], opt), 0);
    });
  }

  // Result memo (DESIGN.md §11): clean attempts by MemoKey. Faulty requests
  // always simulate, even under a plan that injects nothing.
  std::map<MemoKey, Attempt> memo;
  auto run_attempt = [&](std::size_t i, unsigned attempt) -> Attempt {
    const TenantRequest& req = requests[i];
    const Pending& st = state[i];
    if (req.faults) {
      ++report.simulated_attempts;
      if (attempt == 0 && speculated[i]) return *speculated[i];
      return simulate_attempt(req, machine[i], st.plan, st.deadline, attempt);
    }
    MemoKey key = memo_key(req, st.plan, st.deadline);
    if (const auto hit = memo.find(key); hit != memo.end()) return hit->second;
    ++report.simulated_attempts;
    // Whichever request of this key dispatches first takes the speculated
    // result, even when it is not the one speculation ran for.
    const auto spec = speculated_key.find(key);
    Attempt out = spec != speculated_key.end()
                      ? std::move(*speculated[spec->second])
                      : simulate_attempt(req, machine[i], st.plan, st.deadline,
                                         attempt);
    memo.emplace(std::move(key), out);
    return out;
  };

  // Windowed per-tenant observability (DESIGN.md §13). Everything below —
  // series observations, journal appends, breaker-transition detection —
  // happens only in the serial event loop, so the journal, the series and
  // the report stay byte-identical for every host thread count.
  auto tenant_state = [&](std::size_t i) -> TenantState& {
    return tenants[tenant_of[i]];
  };
  auto series = [&](std::size_t i, Series what) -> TimeSeries& {
    TenantState& t = tenant_state(i);
    TimeSeries*& s = t.series[static_cast<std::size_t>(what)];
    if (s == nullptr) {
      s = &report.metrics.series(
          "serve.series." + *t.name + "." +
              kSeriesNames[static_cast<std::size_t>(what)],
          opt.window);
    }
    return *s;
  };
  auto latency_series = [&](std::size_t i) -> TimeSeries& {
    TenantState& t = tenant_state(i);
    if (t.latency_series == nullptr) {
      t.latency_series =
          &report.metrics.series("serve.series." + *t.name + ".latency",
                                 opt.window, Histogram::pow2_bounds(44));
    }
    return *t.latency_series;
  };
  auto latency_hist = [&](std::size_t i) -> Histogram& {
    TenantState& t = tenant_state(i);
    if (t.latency_hist == nullptr) {
      t.latency_hist = &report.metrics.histogram("serve.latency." + *t.name,
                                                 Histogram::pow2_bounds(44));
    }
    return *t.latency_hist;
  };

  EventJournal& journal = report.journal;
  auto jot = [&](double now, JournalKind kind, std::size_t i) {
    JournalEvent e;
    e.time = now;
    e.kind = kind;
    e.request = static_cast<std::int64_t>(i);
    e.tenant = requests[i].tenant;
    return e;
  };

  // Breaker transitions are journaled by observing each tenant's breaker
  // against the last state we reported for it: after every final outcome
  // (open / close happen there) and at every arrival (the open -> half-open
  // cooldown expiry is lazy — it becomes visible when the next arrival
  // observes the breaker).
  auto journal_breaker = [&](std::size_t i, double now) {
    TenantState& t = tenant_state(i);
    const CircuitBreaker* b = admission.breaker(*t.name);
    if (b == nullptr) return;
    const CircuitBreaker::State st = b->state(now);
    if (st == t.breaker_seen) return;
    t.breaker_seen = st;
    JournalEvent e;
    e.time = now;
    e.tenant = *t.name;
    switch (st) {
      case CircuitBreaker::State::kOpen:
        e.kind = JournalKind::kBreakerOpen;
        e.has_value = true;
        e.value = opt.breaker_cooldown;
        e.cause = "consecutive_failures";
        e.detail = std::to_string(b->consecutive_failures()) +
                   " consecutive final failures (threshold " +
                   std::to_string(opt.breaker_threshold) + ")";
        break;
      case CircuitBreaker::State::kHalfOpen:
        e.kind = JournalKind::kBreakerHalfOpen;
        e.cause = "cooldown_elapsed";
        break;
      case CircuitBreaker::State::kClosed:
        e.kind = JournalKind::kBreakerClose;
        e.cause = "final_success";
        break;
    }
    journal.append(std::move(e));
  };

  auto finalize = [&](std::size_t i, double now, ServeOutcome outcome,
                      const std::string& detail) {
    const TenantRequest& req = requests[i];
    RequestRecord& rec = records[i];
    TenantStats& ts = report.tenants[req.tenant];
    rec.outcome = outcome;
    rec.finish = now;
    rec.detail = detail;
    // Aggregate counters advance here, inside the serial loop, so streamed
    // metrics snapshots (options.metrics_every) see them grow monotonically;
    // final values match the per-tenant tallies exactly.
    switch (outcome) {
      case ServeOutcome::kOk:
        ++ts.ok;
        report.metrics.counter("serve.ok").add();
        break;
      case ServeOutcome::kDeadlineExceeded:
        ++ts.deadline_exceeded;
        report.metrics.counter("serve.deadline_exceeded").add();
        break;
      case ServeOutcome::kFailed:
        ++ts.failed;
        report.metrics.counter("serve.failed").add();
        break;
      case ServeOutcome::kRejectedInvalid: ++ts.rejected_invalid; break;
      case ServeOutcome::kRejectedInfeasible: ++ts.rejected_infeasible; break;
      case ServeOutcome::kRejectedBreaker: ++ts.rejected_breaker; break;
      case ServeOutcome::kRejectedQueueFull: ++ts.rejected_queue_full; break;
      case ServeOutcome::kRejectedQuota: ++ts.rejected_quota; break;
    }
    if (is_rejection(outcome)) report.metrics.counter("serve.rejected").add();
    series(i, Series::kFinals).observe(now, 1.0);
    if (outcome != ServeOutcome::kOk) {
      series(i, Series::kErrors).observe(now, 1.0);
    }
    if (is_rejection(outcome)) {
      JournalEvent e = jot(now, reject_kind(outcome), i);
      e.cause = to_string(outcome);
      e.detail = detail;
      journal.append(std::move(e));
      return;
    }
    rec.latency = now - req.arrival;
    admission.on_final(req.tenant, now, outcome == ServeOutcome::kOk);
    series(i, Series::kInFlight)
        .observe(now,
                 static_cast<double>(admission.tenant_in_flight(req.tenant)));
    if (outcome == ServeOutcome::kOk) {
      ts.ok_latency_sum += rec.latency;
      latency_hist(i).observe(rec.latency);
      series(i, Series::kOk).observe(now, 1.0);
      latency_series(i).observe(now, rec.latency);
    }
    if (outcome == ServeOutcome::kDeadlineExceeded) {
      JournalEvent e = jot(now, JournalKind::kDeadlineAbort, i);
      e.slot = rec.slot;
      e.attempt = static_cast<std::int64_t>(rec.attempts);
      e.has_value = true;
      e.value = rec.deadline;
      e.cause = "budget_exhausted";
      e.detail = detail;
      journal.append(std::move(e));
    }
    JournalEvent e = jot(now, JournalKind::kComplete, i);
    e.slot = rec.slot;
    e.attempt = static_cast<std::int64_t>(rec.attempts);
    e.has_value = true;
    e.value = rec.latency;
    e.cause = to_string(outcome);
    e.detail = detail;
    journal.append(std::move(e));
    journal_breaker(i, now);
  };

  // Ready-to-serve queues, one per tenant, drained round-robin in tenant
  // name order so no tenant can starve another (the fair-scheduling half of
  // the quota story).
  std::map<std::string, std::deque<std::size_t>> ready;
  std::string last_served;
  auto pop_ready = [&]() -> std::optional<std::size_t> {
    auto take = [&](auto it) {
      last_served = it->first;
      const std::size_t i = it->second.front();
      it->second.pop_front();
      return i;
    };
    for (auto it = ready.upper_bound(last_served); it != ready.end(); ++it) {
      if (!it->second.empty()) return take(it);
    }
    for (auto it = ready.begin();
         it != ready.end() && it->first <= last_served; ++it) {
      if (!it->second.empty()) return take(it);
    }
    return std::nullopt;
  };

  std::priority_queue<Event, std::vector<Event>, LaterEvent> events;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    events.push({requests[i].arrival, EventKind::kArrival, seq++, i});
  }

  // Executor slots, lowest free index first: slot assignment is a pure
  // function of the event order, so the journal's and timeline's slot lanes
  // are as deterministic as the schedule itself.
  std::vector<char> slot_busy(opt.slots, 0);
  std::size_t free_slots = opt.slots;
  auto dispatch = [&](double now) {
    while (free_slots > 0) {
      const auto picked = pop_ready();
      if (!picked) break;
      const std::size_t i = *picked;
      std::size_t slot = 0;
      while (slot_busy[slot] != 0) ++slot;
      slot_busy[slot] = 1;
      --free_slots;
      Pending& st = state[i];
      if (st.attempts == 0) records[i].start = now;
      records[i].slot = static_cast<std::int64_t>(slot);
      series(i, Series::kQueueDepth)
          .observe(now,
                   static_cast<double>(ready[requests[i].tenant].size()));
      JournalEvent e = jot(now, JournalKind::kDispatch, i);
      e.slot = static_cast<std::int64_t>(slot);
      e.attempt = static_cast<std::int64_t>(st.attempts + 1);
      e.cause = st.plan.algorithm;
      journal.append(std::move(e));
      st.last = run_attempt(i, st.attempts);
      ++st.attempts;
      events.push({now + st.last.service_time, EventKind::kCompletion, seq++, i});
    }
  };

  // Streamed metrics snapshots: just before processing the first event past
  // a k * metrics_every boundary, capture the registry stamped at that
  // boundary (at most one snapshot per crossing — idle boundaries collapse
  // into the next active one). The loop is serial, so snapshots are
  // byte-identical for every host thread count.
  const double every = opt.metrics_every;
  double next_snap = every;
  double makespan = 0.0;
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    const double now = ev.time;
    if (every > 0.0 && now > next_snap) {
      report.metric_snapshots.push_back({next_snap, report.metrics});
      next_snap = (std::floor(now / every) + 1.0) * every;
    }
    makespan = std::max(makespan, now);
    const std::size_t i = ev.index;
    const TenantRequest& req = requests[i];
    switch (ev.kind) {
      case EventKind::kArrival: {
        TenantStats& ts = report.tenants[req.tenant];
        ++ts.submitted;
        report.metrics.counter("serve.submitted").add();
        series(i, Series::kArrivals).observe(now, 1.0);
        journal.append(jot(now, JournalKind::kArrival, i));
        if (req.n == 0 || req.p == 0) {
          finalize(i, now, ServeOutcome::kRejectedInvalid,
                   "n and p must be positive");
          break;
        }
        if (!req.algo.empty() && !default_registry().contains(req.algo)) {
          finalize(i, now, ServeOutcome::kRejectedInvalid,
                   "unknown algorithm '" + req.algo + "'");
          break;
        }
        const std::string key = plan_cache_key(req, machine[i]);
        ServicePlan plan;
        if (const ServicePlan* hit = cache.lookup(key)) {
          plan = *hit;
          records[i].cache_hit = true;
          ++ts.cache_hits;
          report.metrics.counter("serve.cache.hits").add();
        } else {
          plan = resolve_plan(req, machine[i]);
          cache.insert(key, plan);
          report.metrics.counter("serve.cache.misses").add();
        }
        {
          JournalEvent e = jot(now,
                               records[i].cache_hit
                                   ? JournalKind::kPlanCacheHit
                                   : JournalKind::kPlanCacheMiss,
                               i);
          e.cause = plan.applicable ? plan.algorithm : "infeasible";
          journal.append(std::move(e));
        }
        if (!plan.applicable) {
          finalize(i, now, ServeOutcome::kRejectedInfeasible,
                   "no formulation applicable at n=" + std::to_string(req.n) +
                       ", p=" + std::to_string(req.p));
          break;
        }
        // Observe the breaker before the admission decision so an open ->
        // half-open cooldown expiry is journaled ahead of the probe admit.
        journal_breaker(i, now);
        const ServeOutcome admitted = admission.try_admit(req.tenant, now);
        if (admitted != ServeOutcome::kOk) {
          finalize(i, now, admitted, "admission rejected the request");
          break;
        }
        Pending& st = state[i];
        st.plan = std::move(plan);
        st.deadline = deadline_for(req, st.plan, opt);
        records[i].algorithm = st.plan.algorithm;
        records[i].deadline = st.deadline;
        {
          JournalEvent e = jot(now, JournalKind::kAdmit, i);
          e.has_value = true;
          e.value = st.deadline;
          e.cause = st.plan.algorithm;
          journal.append(std::move(e));
        }
        series(i, Series::kInFlight)
            .observe(now, static_cast<double>(
                              admission.tenant_in_flight(req.tenant)));
        ready[req.tenant].push_back(i);
        series(i, Series::kQueueDepth)
            .observe(now, static_cast<double>(ready[req.tenant].size()));
        dispatch(now);
        break;
      }
      case EventKind::kRetry: {
        ready[req.tenant].push_back(i);
        series(i, Series::kQueueDepth)
            .observe(now, static_cast<double>(ready[req.tenant].size()));
        dispatch(now);
        break;
      }
      case EventKind::kCompletion: {
        Pending& st = state[i];
        RequestRecord& rec = records[i];
        slot_busy[static_cast<std::size_t>(rec.slot)] = 0;
        ++free_slots;
        rec.attempts = st.attempts;
        rec.service_time = st.last.service_time;
        if (st.last.outcome == ServeOutcome::kFailed &&
            st.attempts <= opt.max_retries) {
          TenantStats& ts = report.tenants[req.tenant];
          ++ts.retries;
          report.metrics.counter("serve.retries").add();
          series(i, Series::kRetries).observe(now, 1.0);
          const double backoff =
              opt.backoff_base *
              std::pow(opt.backoff_factor,
                       static_cast<double>(st.attempts - 1)) *
              (1.0 + opt.backoff_jitter *
                         jitter_unit(opt.seed, req.id, st.attempts));
          JournalEvent e = jot(now, JournalKind::kRetry, i);
          e.slot = rec.slot;
          e.attempt = static_cast<std::int64_t>(st.attempts);
          e.has_value = true;
          e.value = backoff;
          e.cause = "attempt_failed";
          e.detail = st.last.detail;
          journal.append(std::move(e));
          events.push({now + backoff, EventKind::kRetry, seq++, i});
        } else {
          finalize(i, now, st.last.outcome, st.last.detail);
        }
        dispatch(now);
        break;
      }
    }
  }

  report.makespan = makespan;
  report.cache_hits = cache.hits();
  report.cache_misses = cache.misses();
  // The aggregate counters accumulated inside the loop; here we only make
  // sure the standard families exist (at zero) even when nothing fired, so
  // the report's metric set does not depend on the outcome mix.
  report.metrics.counter("serve.cache.hits");
  report.metrics.counter("serve.cache.misses");
  if (!report.tenants.empty()) {
    report.metrics.counter("serve.ok");
    report.metrics.counter("serve.failed");
    report.metrics.counter("serve.deadline_exceeded");
    report.metrics.counter("serve.rejected");
  }
  for (auto& [tenant, ts] : report.tenants) {
    if (const CircuitBreaker* breaker = admission.breaker(tenant)) {
      ts.breaker_trips = breaker->trips();
    }
  }
  // Plan-cache self-telemetry (docs/observability.md): end-of-run occupancy
  // and hit rate, deterministic for every thread count.
  report.metrics.gauge("serve.plan_cache.size")
      .set(static_cast<double>(cache.size()));
  report.metrics.gauge("serve.plan_cache.capacity")
      .set(static_cast<double>(cache.capacity()));
  report.metrics.gauge("serve.plan_cache.hit_rate").set(cache.hit_rate());
  for (const auto& [tenant, ts] : report.tenants) {
    const SloTarget target = slo_target_for(opt.slos, tenant);
    if (!target.any()) continue;
    report.slo.push_back(evaluate_slo(
        tenant, target, ts.submitted, ts.submitted - ts.ok,
        report.latency_quantile(tenant, 0.99),
        report.metrics.find_series("serve.series." + tenant + ".finals"),
        report.metrics.find_series("serve.series." + tenant + ".errors")));
  }
  // Final streamed snapshot: the complete registry (including the zero
  // families and plan-cache gauges above) stamped at the makespan.
  if (every > 0.0) report.metric_snapshots.push_back({makespan, report.metrics});
  if (opt.keep_request_log) report.requests = std::move(records);
  return report;
}

bool ServeReport::slo_breached() const noexcept {
  for (const auto& v : slo) {
    if (v.breached()) return true;
  }
  return false;
}

double ServeReport::latency_quantile(const std::string& tenant,
                                     double q) const {
  const Histogram* h = metrics.find_histogram("serve.latency." + tenant);
  return h != nullptr ? h->quantile(q) : 0.0;
}

double ServeReport::cache_hit_rate() const noexcept {
  const std::uint64_t lookups = cache_hits + cache_misses;
  return lookups > 0
             ? static_cast<double>(cache_hits) / static_cast<double>(lookups)
             : 0.0;
}

Table ServeReport::tenant_table() const {
  Table table({"tenant", "req", "ok", "dlx", "fail", "rej", "retry", "trips",
               "p50", "p95", "p99"});
  for (const auto& [tenant, ts] : tenants) {
    table.begin_row()
        .add(tenant)
        .add_int(static_cast<long long>(ts.submitted))
        .add_int(static_cast<long long>(ts.ok))
        .add_int(static_cast<long long>(ts.deadline_exceeded))
        .add_int(static_cast<long long>(ts.failed))
        .add_int(static_cast<long long>(ts.rejected()))
        .add_int(static_cast<long long>(ts.retries))
        .add_int(static_cast<long long>(ts.breaker_trips))
        .add_num(latency_quantile(tenant, 0.50))
        .add_num(latency_quantile(tenant, 0.95))
        .add_num(latency_quantile(tenant, 0.99));
  }
  return table;
}

std::string ServeReport::summary() const {
  TenantStats total;
  for (const auto& [tenant, ts] : tenants) {
    total.submitted += ts.submitted;
    total.ok += ts.ok;
    total.deadline_exceeded += ts.deadline_exceeded;
    total.failed += ts.failed;
    total.rejected_invalid += ts.rejected();
    total.retries += ts.retries;
    total.breaker_trips += ts.breaker_trips;
  }
  return "serve: " + std::to_string(total.submitted) + " requests, " +
         std::to_string(tenants.size()) + " tenants, makespan " +
         format_number(makespan, 4) + " | ok=" + std::to_string(total.ok) +
         " dlx=" + std::to_string(total.deadline_exceeded) +
         " fail=" + std::to_string(total.failed) +
         " rej=" + std::to_string(total.rejected_invalid) +
         " retries=" + std::to_string(total.retries) +
         " trips=" + std::to_string(total.breaker_trips) + " | cache " +
         std::to_string(cache_hits) + "/" +
         std::to_string(cache_hits + cache_misses) + " (" +
         format_number(cache_hit_rate() * 100.0, 3) + "%)";
}

void ServeReport::write_json(std::ostream& os) const {
  os << "{\"options\":";
  write_options_json(os, options);
  os << ",\"makespan\":" << json_number(makespan) << ",\"cache\":{\"hits\":"
     << cache_hits << ",\"misses\":" << cache_misses
     << ",\"hit_rate\":" << json_number(cache_hit_rate()) << "},\"tenants\":{";
  bool first = true;
  for (const auto& [tenant, ts] : tenants) {
    if (!first) os << ",";
    first = false;
    const std::uint64_t completed = ts.ok;
    os << json_quote(tenant) << ":{\"submitted\":" << ts.submitted
       << ",\"ok\":" << ts.ok
       << ",\"deadline_exceeded\":" << ts.deadline_exceeded
       << ",\"failed\":" << ts.failed
       << ",\"rejected_invalid\":" << ts.rejected_invalid
       << ",\"rejected_infeasible\":" << ts.rejected_infeasible
       << ",\"rejected_breaker\":" << ts.rejected_breaker
       << ",\"rejected_queue_full\":" << ts.rejected_queue_full
       << ",\"rejected_quota\":" << ts.rejected_quota
       << ",\"retries\":" << ts.retries
       << ",\"breaker_trips\":" << ts.breaker_trips
       << ",\"cache_hits\":" << ts.cache_hits << ",\"mean_latency\":"
       << json_number(completed > 0
                          ? ts.ok_latency_sum / static_cast<double>(completed)
                          : 0.0)
       << ",\"p50\":" << json_number(latency_quantile(tenant, 0.50))
       << ",\"p95\":" << json_number(latency_quantile(tenant, 0.95))
       << ",\"p99\":" << json_number(latency_quantile(tenant, 0.99)) << "}";
  }
  os << "}";
  if (!slo.empty()) {
    os << ",\"slo\":[";
    for (std::size_t i = 0; i < slo.size(); ++i) {
      if (i) os << ",";
      slo[i].write_json(os);
    }
    os << "]";
  }
  os << ",\"journal_events\":" << journal.size() << ",\"requests\":[";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i) os << ",";
    write_record_json(os, requests[i]);
  }
  os << "],\"metrics\":";
  metrics.write_json(os);
  os << "}";
}

}  // namespace hpmm
