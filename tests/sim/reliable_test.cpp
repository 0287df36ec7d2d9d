#include "sim/reliable.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/fault.hpp"
#include "util/error.hpp"

namespace hpmm {
namespace {

Matrix payload(std::size_t words) { return Matrix(1, words); }

std::shared_ptr<FaultPlan> make_plan() { return std::make_shared<FaultPlan>(); }

/// Find a (round, seed) pair whose first `k` attempts drop and attempt k
/// succeeds, so timeline arithmetic can be checked exactly.
std::uint64_t round_with_drops(const FaultInjector& inj, const Message& m,
                               unsigned k) {
  for (std::uint64_t round = 1; round < 100000; ++round) {
    unsigned a = 0;
    while (a < k && inj.fate(m, round, a, 1.0).dropped) ++a;
    if (a == k && !inj.fate(m, round, k, 1.0).dropped) return round;
  }
  ADD_FAILURE() << "no round with " << k << " leading drops found";
  return 0;
}

TEST(ReliableDelivery, CleanTransmissionCostsOneMessageTime) {
  auto plan = make_plan();
  plan->drop_prob = 0.0;
  const FaultInjector inj(plan);
  const Message m(0, 1, 1, payload(4));
  const ReliableOutcome out = reliable_delivery(inj, m, 1, 25.0);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.retransmissions(), 0u);
  EXPECT_TRUE(out.delivered);
  EXPECT_DOUBLE_EQ(out.busy, 25.0);
  EXPECT_DOUBLE_EQ(out.wait, 0.0);
  EXPECT_DOUBLE_EQ(out.span(), 25.0);
}

TEST(ReliableDelivery, SingleDropCostsTimeoutPlusRetransmission) {
  auto plan = make_plan();
  plan->seed = 17;
  plan->drop_prob = 0.3;
  plan->rto_factor = 2.0;
  const FaultInjector inj(plan);
  const Message m(0, 1, 1, payload(4));
  const std::uint64_t round = round_with_drops(inj, m, 1);
  const double cost = 25.0;
  const ReliableOutcome out = reliable_delivery(inj, m, round, cost);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.retransmissions(), 1u);
  EXPECT_TRUE(out.delivered);
  EXPECT_DOUBLE_EQ(out.busy, 2 * cost);            // two transmissions
  EXPECT_DOUBLE_EQ(out.wait, plan->rto_factor * cost);  // one timeout
  EXPECT_DOUBLE_EQ(out.span(), 2 * cost + 2.0 * cost);
}

TEST(ReliableDelivery, BackoffDoublesSuccessiveTimeouts) {
  auto plan = make_plan();
  plan->seed = 23;
  plan->drop_prob = 0.5;
  plan->rto_factor = 2.0;
  plan->rto_backoff = 2.0;
  const FaultInjector inj(plan);
  const Message m(2, 3, 5, payload(8));
  const std::uint64_t round = round_with_drops(inj, m, 2);
  const double cost = 10.0;
  const ReliableOutcome out = reliable_delivery(inj, m, round, cost);
  EXPECT_EQ(out.attempts, 3u);
  // Timeouts: rto, then rto * backoff.
  EXPECT_DOUBLE_EQ(out.wait, 2.0 * cost + 4.0 * cost);
  EXPECT_DOUBLE_EQ(out.busy, 3 * cost);
}

TEST(ReliableDelivery, NoBackoffKeepsTimeoutsFlat) {
  auto plan = make_plan();
  plan->seed = 23;
  plan->drop_prob = 0.5;
  plan->rto_factor = 3.0;
  plan->rto_backoff = 1.0;
  const FaultInjector inj(plan);
  const Message m(2, 3, 5, payload(8));
  const std::uint64_t round = round_with_drops(inj, m, 2);
  const ReliableOutcome out = reliable_delivery(inj, m, round, 10.0);
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_DOUBLE_EQ(out.wait, 30.0 + 30.0);
}

/// Span formula from reliable.hpp, for r retransmissions at base cost c:
///   span = (r+1)*c + sum_{k=0}^{r-1} rto_factor * backoff^k * c
/// pinned here for r = 0, 1 and r = max_retries (the largest r that can
/// succeed), together with the attempt indexing the counters expose.
TEST(ReliableDelivery, SpanFormulaAcrossDropCounts) {
  auto plan = make_plan();
  plan->seed = 41;
  plan->drop_prob = 0.5;
  plan->rto_factor = 2.0;
  plan->rto_backoff = 3.0;
  plan->max_retries = 3;
  const FaultInjector inj(plan);
  const Message m(0, 1, 1, payload(4));
  const double c = 10.0;
  for (const unsigned r : {0u, 1u, 3u}) {  // 3 == max_retries still succeeds
    const std::uint64_t round = round_with_drops(inj, m, r);
    const ReliableOutcome out = reliable_delivery(inj, m, round, c);
    EXPECT_EQ(out.attempts, r + 1) << "r=" << r;
    EXPECT_EQ(out.retransmissions(), r) << "r=" << r;
    EXPECT_TRUE(out.delivered);
    double expected_wait = 0.0, rto = plan->rto_factor * c;
    for (unsigned k = 0; k < r; ++k) {
      expected_wait += rto;
      rto *= plan->rto_backoff;
    }
    EXPECT_DOUBLE_EQ(out.busy, (r + 1) * c) << "r=" << r;
    EXPECT_DOUBLE_EQ(out.wait, expected_wait) << "r=" << r;
    EXPECT_DOUBLE_EQ(out.span(), (r + 1) * c + expected_wait) << "r=" << r;
    // The delivering attempt is the last one, 0-indexed.
    EXPECT_EQ(out.corrupt_attempt, r) << "r=" << r;
  }
}

TEST(ReliableDelivery, OneDropPastTheBudgetThrows) {
  auto plan = make_plan();
  plan->seed = 41;
  plan->drop_prob = 0.5;
  plan->max_retries = 2;
  const FaultInjector inj(plan);
  const Message m(0, 1, 1, payload(4));
  // A round whose first 3 attempts drop needs 3 retries; budget is 2.
  const std::uint64_t round = round_with_drops(inj, m, 3);
  EXPECT_THROW(reliable_delivery(inj, m, round, 10.0), InternalError);
}

TEST(ReliableDelivery, ZeroRetryBudgetBoundary) {
  // max_retries = 0: a clean first attempt succeeds, any drop is fatal.
  auto clean = make_plan();
  clean->max_retries = 0;
  const FaultInjector clean_inj(clean);
  const Message m(0, 1, 1, payload(4));
  const ReliableOutcome out = reliable_delivery(clean_inj, m, 1, 10.0);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_TRUE(out.delivered);
  EXPECT_DOUBLE_EQ(out.span(), 10.0);

  auto lossy = make_plan();
  lossy->drop_prob = 1.0;
  lossy->max_retries = 0;
  const FaultInjector lossy_inj(lossy);
  EXPECT_THROW(reliable_delivery(lossy_inj, m, 1, 10.0), InternalError);
}

TEST(ReliableDelivery, UnreliableModeLeavesCorruptAttemptAtZero) {
  auto plan = make_plan();
  plan->seed = 47;
  plan->drop_prob = 0.5;
  plan->corrupt_prob = 0.5;
  plan->reliable = false;
  const FaultInjector inj(plan);
  const Message m(0, 1, 1, payload(4));
  for (std::uint64_t round = 1; round <= 20; ++round) {
    const ReliableOutcome out = reliable_delivery(inj, m, round, 10.0);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(out.corrupt_attempt, 0u);  // only attempt 0 exists
  }
}

TEST(ReliableDelivery, ExhaustedRetryBudgetIsAnInternalError) {
  auto plan = make_plan();
  plan->drop_prob = 1.0;
  plan->max_retries = 4;
  const FaultInjector inj(plan);
  const Message m(0, 1, 1, payload(4));
  EXPECT_THROW(reliable_delivery(inj, m, 1, 10.0), InternalError);
}

TEST(ReliableDelivery, ExhaustedBudgetMessageNamesTheMessage) {
  // The error text is assembled only when the budget runs out; it must
  // still carry the endpoints, the tag and the budget.
  auto plan = make_plan();
  plan->drop_prob = 1.0;
  plan->max_retries = 4;
  const FaultInjector inj(plan);
  const Message m(2, 5, 7, payload(4));
  try {
    reliable_delivery(inj, m, 1, 10.0);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("src/sim/reliable.cpp:", 0), 0u) << what;
    EXPECT_NE(what.find("reliable_delivery: message 2 -> 5 (tag 7) presumed "
                        "lost after 4 retries — drop probability too high "
                        "for the retry budget"),
              std::string::npos)
        << what;
  }
}

TEST(ReliableDelivery, UnreliableModeGivesUpAfterOneAttempt) {
  auto plan = make_plan();
  plan->drop_prob = 1.0;
  plan->reliable = false;
  const FaultInjector inj(plan);
  const Message m(0, 1, 1, payload(4));
  const ReliableOutcome out = reliable_delivery(inj, m, 1, 10.0);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_FALSE(out.delivered);
  EXPECT_DOUBLE_EQ(out.busy, 10.0);  // the doomed transmission is still paid
  EXPECT_DOUBLE_EQ(out.wait, 0.0);
}

TEST(ReliableDelivery, DeterministicAcrossCalls) {
  auto plan = make_plan();
  plan->seed = 31;
  plan->drop_prob = 0.4;
  plan->duplicate_prob = 0.2;
  plan->corrupt_prob = 0.1;
  plan->delay_prob = 0.3;
  const FaultInjector inj(plan);
  for (std::uint64_t round = 1; round <= 50; ++round) {
    const Message m(1, 2, 3, payload(6));
    const ReliableOutcome a = reliable_delivery(inj, m, round, 7.0);
    const ReliableOutcome b = reliable_delivery(inj, m, round, 7.0);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.duplicated, b.duplicated);
    EXPECT_EQ(a.corrupted, b.corrupted);
    EXPECT_DOUBLE_EQ(a.span(), b.span());
    EXPECT_DOUBLE_EQ(a.delay, b.delay);
  }
}

}  // namespace
}  // namespace hpmm
