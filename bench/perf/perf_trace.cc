#include "perf_trace.h"

#include <cstdint>

#include "common/json.h"

namespace smt::perf {

size_t Tracer::begin(std::string name, int job) {
  Span s;
  s.name = std::move(name);
  s.start = now();
  s.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  s.job = job;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(size_t id) {
  spans_[id].end = now();
  // Spans close in LIFO order (they are scoped), so `id` is on top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end - s.start;
  }
  return self;
}

std::map<std::string, double> Tracer::self_by_layer() const {
  const std::vector<double> self = self_times();
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
  }
  return out;
}

double Tracer::self_of(const std::string& name) const {
  const std::vector<double> self = self_times();
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self[i];
  }
  return total;
}

std::string Tracer::chrome_json(const std::vector<std::string>& jobs) const {
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.name.substr(0, s.name.find('.')));
    w.kv("ph", "X");
    w.kv("ts", s.start * 1e6);
    w.kv("dur", (s.end - s.start) * 1e6);
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.key("args");
    w.begin_object();
    w.kv("id", static_cast<uint64_t>(i));
    w.kv("parent", static_cast<int64_t>(s.parent));
    if (s.job >= 0 && static_cast<size_t>(s.job) < jobs.size()) {
      w.kv("job", jobs[s.job]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace smt::perf
