#include "host/bench_history.h"

#include <system_error>
#include <utility>

#include "common/hash.h"
#include "common/io.h"
#include "common/log.h"
#include "core/run_report.h"

namespace smt::host {

namespace {

namespace fs = std::filesystem;

constexpr char kSchema[] = "smt-bench-history/1";

/// obj[key] when it is present and `is` holds for it, else nullptr.
const JsonValue* member(const JsonValue& obj, const char* key,
                        bool (JsonValue::*is)() const) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && (v->*is)() ? v : nullptr;
}

}  // namespace

std::string history_config_hash(const JsonValue& config) {
  return fnv1a64_hex(to_canonical_string(config));
}

std::string history_config_hash(const core::MachineConfig& cfg) {
  // The report's `config` section is machine_config_json's bytes; hashing
  // goes through the same parse-and-canonicalize as a report's does.
  return history_config_hash(*parse_json(core::machine_config_json(cfg)));
}

fs::path history_file(const std::string& dir, const std::string& experiment) {
  return fs::path(dir) /
         ("BENCH_" + sanitize_artifact_key(experiment) + ".json");
}

std::optional<std::string> parse_history(std::string_view text,
                                         History* out) {
  const std::optional<JsonValue> v = parse_json(text);
  if (!v.has_value() || !v->is_object()) {
    return "does not parse as a JSON object";
  }
  const JsonValue* schema = v->find("schema");
  const JsonValue* exp = member(*v, "experiment", &JsonValue::is_string);
  const JsonValue* trajs = member(*v, "trajectories", &JsonValue::is_array);
  if (schema == nullptr || schema->string != kSchema || exp == nullptr ||
      trajs == nullptr) {
    return "malformed history file";
  }
  History h;
  h.experiment = exp->string;
  for (const JsonValue& tv : trajs->array) {
    const JsonValue* hash = member(tv, "config_hash", &JsonValue::is_string);
    const JsonValue* rs = member(tv, "report_schema", &JsonValue::is_string);
    const JsonValue* runs = member(tv, "runs", &JsonValue::is_array);
    if (hash == nullptr || rs == nullptr || runs == nullptr) {
      return "malformed trajectory";
    }
    Trajectory& t = h.trajectories.emplace_back();
    t.config_hash = hash->string;
    t.report_schema = rs->string;
    for (const JsonValue& rv : runs->array) {
      const JsonValue* id = member(rv, "run_id", &JsonValue::is_string);
      const JsonValue* metrics = member(rv, "metrics", &JsonValue::is_object);
      if (id == nullptr || metrics == nullptr) return "malformed run entry";
      RunEntry& r = t.runs.emplace_back();
      r.run_id = id->string;
      if (const JsonValue* key = member(rv, "key", &JsonValue::is_string)) {
        r.key = key->string;
      }
      for (const auto& [k, mv] : metrics->object) {
        if (mv.is_number()) r.metrics[k] = mv.number;
      }
    }
  }
  *out = std::move(h);
  return std::nullopt;
}

std::string history_json(const History& h) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kSchema);
  w.kv("experiment", h.experiment);
  w.key("trajectories");
  w.begin_array();
  for (const Trajectory& t : h.trajectories) {
    w.begin_object();
    w.kv("config_hash", t.config_hash);
    w.kv("report_schema", t.report_schema);
    w.key("runs");
    w.begin_array();
    for (const RunEntry& r : t.runs) {
      w.begin_object();
      w.kv("run_id", r.run_id);
      w.kv("key", r.key);
      w.key("metrics");
      w.begin_object();
      for (const auto& [k, v] : r.metrics) w.kv(k, v);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::optional<History> read_history(const fs::path& path) {
  const std::optional<std::string> text = read_text_file(path.string());
  if (!text.has_value()) {
    log::error("cannot read", {{"path", path.string()}});
    return std::nullopt;
  }
  History h;
  if (const auto finding = parse_history(*text, &h)) {
    log::error(*finding, {{"path", path.string()}});
    return std::nullopt;
  }
  return h;
}

std::optional<History> load_history(const std::string& dir,
                                    const std::string& experiment) {
  const fs::path path = history_file(dir, experiment);
  std::error_code ec;
  if (!fs::exists(path, ec)) return History{experiment, {}};
  std::optional<History> h = read_history(path);
  if (h.has_value() && h->experiment != experiment) {
    log::error("history file holds another experiment",
               {{"path", path.string()}, {"experiment", experiment}});
    return std::nullopt;
  }
  return h;
}

bool save_history(const std::string& dir, const History& h) {
  return write_text_file(history_file(dir, h.experiment).string(),
                         history_json(h));
}

const Trajectory* find_trajectory(const History& h,
                                  const std::string& config_hash,
                                  const std::string& report_schema) {
  for (const Trajectory& t : h.trajectories) {
    if (t.config_hash == config_hash && t.report_schema == report_schema) {
      return &t;
    }
  }
  return nullptr;
}

std::optional<double> baseline_cycles(const std::string& dir,
                                      const std::string& experiment,
                                      const std::string& config_hash) {
  const fs::path path = history_file(dir, experiment);
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) return std::nullopt;
  const std::optional<std::string> text = read_text_file(path.string());
  History h;
  const std::optional<std::string> finding =
      text.has_value() ? parse_history(*text, &h) : "cannot read";
  if (finding.has_value() || h.experiment != experiment) {
    log::warn("baseline unusable; job has no estimate",
              {{"path", path.string()},
               {"finding", finding.value_or("holds another experiment")}});
    return std::nullopt;
  }
  const Trajectory* t = find_trajectory(h, config_hash, kHistoryReportSchema);
  if (t == nullptr || t->runs.empty()) return std::nullopt;
  const auto it = t->runs.back().metrics.find("cycles");
  if (it == t->runs.back().metrics.end()) return std::nullopt;
  return it->second;
}

}  // namespace smt::host
