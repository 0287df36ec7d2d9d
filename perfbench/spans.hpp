#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. A span has a name, start and
/// end (ms since the recorder was made), the index of its parent span (-1
/// for a root) and the op id shared by all spans of one op (-1 outside an
/// op). Nothing is written until the run ends. A disabled recorder reads no
/// clock and stores nothing.
class Spans {
 public:
  struct Span {
    const char* name = "";
    double start_ms = 0.0;
    double end_ms = -1.0;
    std::int64_t parent = -1;
    std::int64_t op = -1;
  };

  explicit Spans(bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// RAII span: opened as a child of the innermost open span.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::int64_t op = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::int64_t index_ = -1;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (ms) of every closed span called `name`, in record order.
  std::vector<double> durations(const char* name) const;

  /// Per span name: count, total ms and self ms (duration minus the time
  /// covered by direct children).
  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> totals() const;

  /// All spans as one JSON object {"spans":[...],"self":{...}}.
  void write_json(std::ostream& os) const;

 private:
  double now_ms() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  // stack of open span indices
};

}  // namespace perfbench
