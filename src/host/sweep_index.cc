#include "host/sweep_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/json.h"

namespace smt::host {

namespace {

constexpr char kSchema[] = "smt-sweep-index/1";

using Finding = std::optional<std::string>;

// Reads obj[key] into *out when it has out's type; otherwise records the
// finding "<where><key>: ...", unless *finding already holds the first
// one. Integers must be integral, at least `min` and at most 2^53 (larger
// ones do not survive the parser's round trip through double).
template <typename T>
void read(const JsonValue& obj, const std::string& where, const char* key,
          T* out, Finding* finding, bool optional = false, double min = 0) {
  const JsonValue* v = *finding ? nullptr : obj.find(key);
  const auto fail = [&](const char* what) { *finding = where + key + what; };
  if (v == nullptr) {
    if (!*finding && !optional) fail(": missing");
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v->is_string()) return fail(": not a string");
    *out = v->string;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (v->type != JsonValue::Type::kBool) return fail(": not a boolean");
    *out = v->boolean;
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v->is_number()) return fail(": not a number");
    *out = v->number;
  } else {
    const double max = std::min<double>(std::numeric_limits<T>::max(), 0x1p53);
    if (!v->is_number() || v->number != std::floor(v->number) ||
        v->number < min || v->number > max) {
      return fail(min == 0 ? ": not a non-negative integer"
                           : ": not an integer");
    }
    *out = static_cast<T>(v->number);
  }
}

}  // namespace

int SweepIndex::failed() const {
  return static_cast<int>(std::count_if(
      jobs.begin(), jobs.end(), [](const IndexEntry& e) { return !e.ok(); }));
}

std::string SweepIndex::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kSchema);
  w.kv("workers", workers);
  w.kv("job_timeout_ms", job_timeout_ms);
  w.kv("total", static_cast<int64_t>(jobs.size()));
  w.kv("failed", failed());
  w.key("jobs");
  w.begin_array();
  for (const IndexEntry& e : jobs) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("outcome", e.outcome);
    w.kv("message", e.message);
    w.kv("key", e.key);
    w.kv("cached", e.cached);
    w.kv("attempts", e.attempts);
    w.kv("wall_ms", e.wall_ms);
    w.kv("cycles", static_cast<uint64_t>(e.cycles));
    w.kv("verified", e.verified);
    w.kv("report", e.report);
    w.kv("dump", e.dump);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::optional<std::string> parse_sweep_index(std::string_view text,
                                             SweepIndex* out) {
  const std::optional<JsonValue> v = parse_json(text);
  if (!v.has_value() || !v->is_object()) return "not a JSON object";

  Finding finding;
  std::string schema;
  read(*v, "", "schema", &schema, &finding);
  if (!finding && schema != kSchema) {
    finding = "schema: \"" + schema + "\" is not \"" + kSchema + '"';
  }
  int64_t total = 0;
  int64_t failed = 0;
  read(*v, "", "workers", &out->workers, &finding);
  read(*v, "", "job_timeout_ms", &out->job_timeout_ms, &finding,
       /*optional=*/false, /*min=*/-0x1p53);
  read(*v, "", "total", &total, &finding);
  read(*v, "", "failed", &failed, &finding);
  const JsonValue* jobs = v->find("jobs");
  if (!finding && (jobs == nullptr || !jobs->is_array())) {
    finding = "jobs: not an array";
  }
  if (finding) return finding;

  out->jobs.clear();
  for (const JsonValue& job : jobs->array) {
    const std::string where = "jobs[" + std::to_string(out->jobs.size()) + "]";
    if (!job.is_object()) return where + ": not an object";
    IndexEntry e;
    const std::string w = where + ".";
    read(job, w, "name", &e.name, &finding);
    read(job, w, "outcome", &e.outcome, &finding);
    read(job, w, "message", &e.message, &finding);
    read(job, w, "key", &e.key, &finding, /*optional=*/true);
    read(job, w, "cached", &e.cached, &finding, /*optional=*/true);
    read(job, w, "attempts", &e.attempts, &finding);
    read(job, w, "wall_ms", &e.wall_ms, &finding);
    read(job, w, "cycles", &e.cycles, &finding);
    read(job, w, "verified", &e.verified, &finding);
    read(job, w, "report", &e.report, &finding);
    read(job, w, "dump", &e.dump, &finding);
    if (finding) return finding;
    if (e.outcome == "lint_failed" && e.attempts != 0) {
      return w + "attempts: " + std::to_string(e.attempts) + " for a " +
             e.outcome + " job, which never started";
    }
    out->jobs.push_back(std::move(e));
  }

  if (total != static_cast<int64_t>(out->jobs.size())) {
    return "total: " + std::to_string(total) + " but jobs holds " +
           std::to_string(out->jobs.size()) + " entries";
  }
  if (failed != out->failed()) {
    return "failed: " + std::to_string(failed) + " but " +
           std::to_string(out->failed()) + " job(s) did not end ok";
  }
  return std::nullopt;
}

}  // namespace smt::host
