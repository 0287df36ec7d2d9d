// Byte-identity golden for the serve loop: a small generated session's JSON
// report (ServeReport::write_json) and decision journal
// (EventJournal::write_jsonl) must match the files under tests/golden/serve/
// byte for byte at every host thread count. The files were recorded by the
// server before its result memo existed (DESIGN.md §11), so a diff here
// means the memo, the speculation rule or the metric-handle cache changed
// observable behaviour. On a mismatch the current output is written next to
// the build tree (golden-out/serve/) for diffing; the goldens themselves are
// never regenerated automatically.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "serve/script.hpp"

namespace hpmm {
namespace {

/// 64 generated requests over 4 tenants: clean repeats and selector
/// (algo = "") classes from the generator's shape table and ABFT-corrected
/// faulty requests. Every other faulty request is switched to detect-only
/// ABFT, so its corrupted attempts fail and retry (some recover, one
/// exhausts its budget), and every ninth clean request carries a 0.9x
/// deadline factor, below the T_p its simulation reaches, so it aborts on
/// its budget.
std::vector<TenantRequest> golden_session() {
  WorkloadOptions wl;
  wl.requests = 64;
  wl.tenants = 4;
  wl.seed = 5;
  wl.mean_gap = 6000.0;
  wl.fault_fraction = 0.3;
  std::vector<TenantRequest> requests = generate_workload(wl);
  bool detect = false;
  std::size_t clean = 0;
  for (TenantRequest& req : requests) {
    if (!req.faults) {
      if (++clean % 9 == 0) req.deadline_factor = 0.9;
      continue;
    }
    if (detect) {
      auto plan = std::make_shared<FaultPlan>(*req.faults);
      plan->abft = AbftMode::kDetect;
      plan->corrupt_prob = 0.01;
      req.faults = std::move(plan);
    }
    detect = !detect;
  }
  return requests;
}

ServeOptions serve_options(unsigned threads) {
  ServeOptions opt;
  opt.threads = threads;
  opt.seed = 5;
  opt.deadline_factor = 3.0;
  return opt;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string expected =
      read_file(std::string(HPMM_SOURCE_DIR) + "/tests/golden/serve/" + name);
  if (actual == expected) return;
  const std::filesystem::path dir =
      std::filesystem::path(HPMM_BINARY_DIR) / "golden-out" / "serve";
  std::filesystem::create_directories(dir);
  std::ofstream(dir / name, std::ios::binary) << actual;
  ADD_FAILURE() << name << " differs from tests/golden/serve/" << name
                << "; current output written to " << (dir / name).string();
}

class ServeGolden : public ::testing::TestWithParam<unsigned> {};

TEST_P(ServeGolden, ReportAndJournalAreByteIdentical) {
  const ServeReport report =
      Server(serve_options(GetParam())).run(golden_session());
  std::ostringstream json;
  report.write_json(json);
  json << "\n";
  expect_golden("session_report.json", json.str());
  expect_golden("session_journal.jsonl", report.journal.jsonl());
}

INSTANTIATE_TEST_SUITE_P(Threads, ServeGolden, ::testing::Values(1u, 3u));

/// Guards the golden's coverage: the session must keep exercising every
/// path the byte comparison is meant to pin.
TEST(ServeGoldenSession, CoversRepeatsSelectorRetriesAndDeadlines) {
  const ServeReport report = Server(serve_options(1)).run(golden_session());
  std::uint64_t retries = 0, deadline = 0, ok = 0;
  for (const auto& [tenant, ts] : report.tenants) {
    retries += ts.retries;
    deadline += ts.deadline_exceeded;
    ok += ts.ok;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(deadline, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(report.cache_hits, 0u);
  EXPECT_EQ(report.tenants.size(), 4u);
  std::uint64_t recovered = 0;
  bool selector = false, clean_repeat = false;
  std::set<std::string> clean_classes;
  for (const RequestRecord& rec : report.requests) {
    if (rec.request.algo.empty() && rec.attempts > 0) selector = true;
    if (rec.outcome == ServeOutcome::kOk && rec.attempts > 1) ++recovered;
    if (rec.request.faults || rec.attempts == 0) continue;
    if (!clean_classes
             .insert(rec.algorithm + "/" + std::to_string(rec.request.n) +
                     "/" + std::to_string(rec.request.p))
             .second) {
      clean_repeat = true;
    }
  }
  EXPECT_GT(recovered, 0u);
  EXPECT_TRUE(selector);
  EXPECT_TRUE(clean_repeat);
}

}  // namespace
}  // namespace hpmm
