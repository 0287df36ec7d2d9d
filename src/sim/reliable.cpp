#include "sim/reliable.hpp"

#include "util/error.hpp"

namespace hpmm {

ReliableOutcome reliable_delivery(const FaultInjector& injector,
                                  const Message& m, std::uint64_t round,
                                  double base_cost) {
  const FaultPlan& plan = injector.plan();
  ReliableOutcome out;
  out.busy = base_cost;

  MessageFate f = injector.fate(m, round, 0, base_cost);
  if (!plan.reliable) {
    out.delivered = !f.dropped;
    out.duplicated = f.duplicated;
    out.corrupted = f.corrupted;
    out.delay = f.delay;
    return out;
  }

  double rto = plan.rto_factor * base_cost;
  while (f.dropped) {
    ensure(out.attempts <= plan.max_retries, [&] {
      return "reliable_delivery: message " + std::to_string(m.src) + " -> " +
             std::to_string(m.dst) + " (tag " + std::to_string(m.tag) +
             ") presumed lost after " + std::to_string(plan.max_retries) +
             " retries — drop probability too high for the retry budget";
    });
    out.wait += rto;
    rto *= plan.rto_backoff;
    f = injector.fate(m, round, out.attempts, base_cost);
    ++out.attempts;
    out.busy += base_cost;
  }
  // Fates of the delivering attempt. The receiver de-duplicates, so a
  // duplicate is suppressed rather than delivered twice.
  out.duplicated = f.duplicated;
  out.corrupted = f.corrupted;
  out.corrupt_attempt = out.attempts - 1;
  out.delay = f.delay;
  return out;
}

}  // namespace hpmm
