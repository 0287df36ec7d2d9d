#include "spans.hpp"

#include <cstring>
#include <iomanip>

namespace perfbench {

Spans::Spans(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) {
    // Recording must not allocate inside an op's allocation window in the
    // common case; a run that outgrows this simply reallocates.
    spans_.reserve(std::size_t{1} << 16);
    open_.reserve(64);
  }
}

double Spans::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Spans::Scope::Scope(Spans& spans, const char* name, std::int64_t op)
    : spans_(spans) {
  if (!spans_.enabled_) return;
  Span s;
  s.name = name;
  s.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  // Children inherit the op id of the span they nest in.
  s.op = (op < 0 && s.parent >= 0)
             ? spans_.spans_[static_cast<std::size_t>(s.parent)].op
             : op;
  index_ = static_cast<std::int64_t>(spans_.spans_.size());
  spans_.open_.push_back(index_);
  s.start_ms = spans_.now_ms();
  spans_.spans_.push_back(s);
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_.spans_[static_cast<std::size_t>(index_)].end_ms = spans_.now_ms();
  spans_.open_.pop_back();
}

std::vector<double> Spans::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ms >= 0.0 && std::strcmp(s.name, name) == 0) {
      out.push_back(s.end_ms - s.start_ms);
    }
  }
  return out;
}

std::map<std::string, Spans::Totals> Spans::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    ++t.count;
    t.total_ms += s.end_ms - s.start_ms;
    t.self_ms += s.end_ms - s.start_ms - child_ms[i];
  }
  return out;
}

void Spans::write_json(std::ostream& os) const {
  os << std::fixed << std::setprecision(4);  // 0.1 us resolution
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
  }
  os << "],\n\"self\":{";
  bool first = true;
  for (const auto& [name, t] : totals()) {
    os << (first ? "\n" : ",\n") << "\"" << name << "\":{\"count\":" << t.count
       << ",\"total_ms\":" << t.total_ms << ",\"self_ms\":" << t.self_ms
       << "}";
    first = false;
  }
  os << "}}\n";
}

}  // namespace perfbench
