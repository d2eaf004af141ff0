#include "perf_metrics.h"

#include "perf_bench.h"

namespace smt::perf {

namespace {

bool read_metrics(const JsonValue* list, bool with_bound,
                  std::vector<MetricDef>* out) {
  if (list == nullptr || !list->is_array() || list->array.empty()) return false;
  for (const JsonValue& m : list->array) {
    const JsonValue* name = m.find("name");
    const JsonValue* unit = m.find("unit");
    const JsonValue* better = m.find("better");
    const JsonValue* bound = m.find("bound");
    if (name == nullptr || !name->is_string() || unit == nullptr ||
        !unit->is_string() || better == nullptr ||
        (better->string != "higher" && better->string != "lower") ||
        (with_bound && (bound == nullptr || !bound->is_number() ||
                        !(bound->number > 0)))) {
      return false;
    }
    out->push_back({name->string, unit->string, better->string == "higher",
                    with_bound ? bound->number : 0});
  }
  return true;
}

}  // namespace

std::optional<Spec> load_spec(const std::string& path, std::string* error) {
  const std::optional<JsonValue> doc = read_json(path);
  if (!doc.has_value()) {
    *error = path + " is missing or not JSON";
    return std::nullopt;
  }
  Spec spec;
  const JsonValue* seconds = doc->find("run_seconds");
  const JsonValue* workloads = doc->find("workloads");
  if (seconds == nullptr || !seconds->is_number() || !(seconds->number > 0) ||
      workloads == nullptr || !workloads->is_array() ||
      !read_metrics(doc->find("end_to_end"), true, &spec.end_to_end) ||
      !read_metrics(doc->find("per_layer"), false, &spec.per_layer)) {
    *error = path + " lacks run_seconds, workloads or a well-formed metric list";
    return std::nullopt;
  }
  spec.run_seconds = seconds->number;
  for (const JsonValue& w : workloads->array) {
    const JsonValue* name = w.find("name");
    if (name == nullptr || !name->is_string()) {
      *error = path + " has a workload without a name";
      return std::nullopt;
    }
    spec.workloads.push_back(name->string);
  }
  return spec;
}

}  // namespace smt::perf
