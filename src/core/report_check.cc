#include "core/report_check.h"

#include <cstdarg>
#include <cstdio>

#include "common/types.h"
#include "cpu/observer.h"
#include "perfmon/events.h"

namespace smt::core {

namespace {

using Finding = std::optional<std::string>;

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

const char* event_name(int e) {
  return perfmon::name(static_cast<perfmon::Event>(e));
}
const char* port_name(int p) {
  return cpu::name(static_cast<cpu::IssuePort>(p));
}

bool is_cpu_array(const JsonValue* v) {
  return v != nullptr && v->is_array() &&
         v->array.size() == static_cast<size_t>(kNumLogicalCpus);
}

// The counter backing each counter-backed BlockReason (the issue-stage
// reasons port_conflict/divider_busy have no per-CPU counter).
constexpr struct {
  cpu::BlockReason reason;
  const char* counter;
} kBackedStalls[] = {
    {cpu::BlockReason::kRob, "rob_stall_cycles"},
    {cpu::BlockReason::kLoadQueue, "load_queue_stall_cycles"},
    {cpu::BlockReason::kStoreBuffer, "store_buffer_stall_cycles"},
    {cpu::BlockReason::kUopQueueFull, "uop_queue_full_cycles"},
};

Finding check_cpus(const JsonValue& cpus) {
  if (!is_cpu_array(&cpus)) {
    return format("\"cpus\" is not a %d-entry array", kNumLogicalCpus);
  }
  for (const JsonValue& cpu : cpus.array) {
    const JsonValue* events = cpu.find("events");
    const JsonValue* bd = cpu.find("breakdown");
    if (events == nullptr || bd == nullptr) {
      return "cpu entry missing events/breakdown";
    }
    for (int e = 0; e < perfmon::kNumEventValues; ++e) {
      if (!has_number(*events, event_name(e))) {
        return format("events missing \"%s\"", event_name(e));
      }
    }
    for (const char* key :
         {"total", "active", "halted", "fetch_stalled", "resource_stalled",
          "stall_rob", "stall_load_queue", "stall_store_buffer",
          "memory_bound", "issue_bound", "flowing", "cpi", "ipc"}) {
      if (!has_number(*bd, key)) {
        return format("breakdown missing \"%s\"", key);
      }
    }
  }
  return std::nullopt;
}

// Summing every window's per-CPU deltas must reproduce the end-of-run
// totals in `cpus` exactly (deltas are nonzero-only, so an absent key
// counts as zero).
Finding check_timeseries(const JsonValue& ts, const JsonValue& cpus) {
  if (number_or(ts, "window_cycles", 0.0) <= 0) {
    return "timeseries missing positive window_cycles";
  }
  const JsonValue* windows = ts.find("windows");
  if (windows == nullptr || !windows->is_array()) {
    return "timeseries missing windows array";
  }
  double sums[kNumLogicalCpus][perfmon::kNumEventValues] = {};
  double prev_end = -1.0;
  for (const JsonValue& win : windows->array) {
    if (!has_number(win, "begin") || !has_number(win, "end")) {
      return "window missing begin/end";
    }
    const double begin = win.find("begin")->number;
    const double end = win.find("end")->number;
    if (end <= begin || (prev_end >= 0.0 && begin != prev_end)) {
      return "windows not contiguous/increasing";
    }
    prev_end = end;
    const JsonValue* wcpus = win.find("cpus");
    if (!is_cpu_array(wcpus)) {
      return format("window \"cpus\" is not a %d-entry array",
                    kNumLogicalCpus);
    }
    for (size_t i = 0; i < wcpus->array.size(); ++i) {
      const JsonValue* events = wcpus->array[i].find("events");
      if (events == nullptr || !events->is_object()) {
        return "window cpu entry missing events";
      }
      for (int e = 0; e < perfmon::kNumEventValues; ++e) {
        sums[i][e] += number_or(*events, event_name(e), 0.0);
      }
    }
  }
  for (size_t i = 0; i < cpus.array.size(); ++i) {
    const JsonValue* events = cpus.array[i].find("events");
    for (int e = 0; e < perfmon::kNumEventValues; ++e) {
      const double total = number_or(*events, event_name(e), 0.0);
      if (sums[i][e] != total) {
        return format("cpu%zu %s: window deltas sum to %.0f, total %.0f", i,
                      event_name(e), sums[i][e], total);
      }
    }
  }
  return std::nullopt;
}

// Per-CPU per-PC attributions must sum exactly to the counter totals
// wherever a counter backs the quantity, and port occupancy must both
// equal the per-PC port sums and respect the per-cycle issue caps.
Finding check_profile(const JsonValue& prof, const JsonValue& cpus,
                      double cycles) {
  const JsonValue* hotspots = prof.find("hotspots");
  const JsonValue* occupancy = prof.find("port_occupancy");
  const JsonValue* caps = prof.find("port_caps_per_cycle");
  if (!is_cpu_array(hotspots) || !is_cpu_array(occupancy) ||
      caps == nullptr || !caps->is_object()) {
    return "profile missing hotspots/port_occupancy/port_caps_per_cycle";
  }
  // Total port occupancy across both contexts, for the shared-cap bound.
  double port_sum_all[cpu::kNumIssuePorts] = {};
  for (size_t i = 0; i < cpus.array.size(); ++i) {
    const JsonValue* events = cpus.array[i].find("events");
    const JsonValue* pcs = hotspots->array[i].find("pcs");
    if (pcs == nullptr || !pcs->is_array()) {
      return format("hotspots cpu%zu missing pcs array", i);
    }
    double instrs = 0, uops = 0, l1 = 0, l2 = 0;
    double stall_sums[cpu::kNumBlockReasons] = {};
    double port_sums[cpu::kNumIssuePorts] = {};
    for (const JsonValue& entry : pcs->array) {
      if (!has_number(entry, "pc") || entry.find("disasm") == nullptr) {
        return "hotspot entry missing pc/disasm";
      }
      instrs += number_or(entry, "retired_instrs", 0.0);
      uops += number_or(entry, "retired_uops", 0.0);
      l1 += number_or(entry, "l1_misses", 0.0);
      l2 += number_or(entry, "l2_misses", 0.0);
      for (int r = 0; r < cpu::kNumBlockReasons; ++r) {
        stall_sums[r] +=
            number_or(entry.find("stalls"),
                      cpu::name(static_cast<cpu::BlockReason>(r)), 0.0);
      }
      for (int p = 0; p < cpu::kNumIssuePorts; ++p) {
        port_sums[p] += number_or(entry.find("ports"), port_name(p), 0.0);
      }
    }
    const struct {
      const char* counter;
      double sum;
    } exact[] = {{"instr_retired", instrs},
                 {"uops_retired", uops},
                 {"l1_misses", l1},
                 {"l2_misses", l2}};
    for (const auto& [counter, sum] : exact) {
      const double total = number_or(*events, counter, 0.0);
      if (sum != total) {
        return format("cpu%zu %s: per-PC sum %.0f != counter %.0f", i,
                      counter, sum, total);
      }
    }
    for (const auto& [reason, counter] : kBackedStalls) {
      const double sum = stall_sums[static_cast<int>(reason)];
      const double total = number_or(*events, counter, 0.0);
      if (sum != total) {
        return format("cpu%zu %s: per-PC sum %.0f != counter %.0f", i,
                      counter, sum, total);
      }
    }
    const JsonValue* occ = occupancy->array[i].find("ports");
    for (int p = 0; p < cpu::kNumIssuePorts; ++p) {
      const double occ_v = number_or(occ, port_name(p), 0.0);
      if (port_sums[p] != occ_v) {
        return format("cpu%zu port %s: per-PC sum %.0f != occupancy %.0f",
                      i, port_name(p), port_sums[p], occ_v);
      }
      port_sum_all[p] += occ_v;
    }
  }
  // The ports are shared between the contexts: combined occupancy cannot
  // exceed the per-cycle cap over the whole run.
  for (int p = 0; p < cpu::kNumIssuePorts; ++p) {
    const double cap = number_or(*caps, port_name(p), 0.0);
    if (cap <= 0) {
      return format("port cap for %s missing/nonpositive", port_name(p));
    }
    if (port_sum_all[p] > cap * cycles) {
      return format("port %s occupancy %.0f exceeds cap %.0f x %.0f cycles",
                    port_name(p), port_sum_all[p], cap, cycles);
    }
  }
  return std::nullopt;
}

// Per reason, self + sibling cycles must reproduce the stall counter
// exactly; the port-conflict decomposition must sum to the port_conflict
// reason totals; and no single port's blame can exceed the run cycle
// count (at most one blocked uop is tracked per context per cycle).
Finding check_interference(const JsonValue& inter, const JsonValue& cpus,
                           double cycles) {
  if (!is_cpu_array(&inter)) {
    return format("\"interference\" is not a %d-entry array",
                  kNumLogicalCpus);
  }
  const char* conflict = cpu::name(cpu::BlockReason::kPortConflict);
  for (size_t i = 0; i < inter.array.size(); ++i) {
    const JsonValue& entry = inter.array[i];
    const JsonValue* self = entry.find("self");
    const JsonValue* sibling = entry.find("sibling");
    const JsonValue* pc = entry.find("port_conflict");
    if (self == nullptr || !self->is_object() || sibling == nullptr ||
        !sibling->is_object() || pc == nullptr || !pc->is_object() ||
        !has_number(entry, "l2_sibling_evictions")) {
      return format(
          "interference cpu%zu missing self/sibling/port_conflict/"
          "l2_sibling_evictions",
          i);
    }
    const JsonValue* events = cpus.array[i].find("events");
    for (const auto& [reason, counter] : kBackedStalls) {
      const double sum = number_or(self, cpu::name(reason), 0.0) +
                         number_or(sibling, cpu::name(reason), 0.0);
      const double total = number_or(*events, counter, 0.0);
      if (sum != total) {
        return format("cpu%zu %s: self+sibling sum %.0f != counter %.0f", i,
                      counter, sum, total);
      }
    }
    const struct {
      const char* side;
      const JsonValue* map;
      const JsonValue* reasons;  // map whose port_conflict is the total
    } sides[] = {{"self", pc->find("self"), self},
                 {"sibling", pc->find("sibling"), sibling}};
    for (const auto& [side, map, reasons] : sides) {
      if (map == nullptr || !map->is_object()) {
        return format("cpu%zu port_conflict missing %s map", i, side);
      }
      double sum = number_or(*map, "issue_bandwidth", 0.0);
      for (int p = 0; p < cpu::kNumIssuePorts; ++p) {
        const double v = number_or(*map, port_name(p), 0.0);
        if (v > cycles) {
          return format("cpu%zu %s port %s blame %.0f exceeds %.0f cycles",
                        i, side, port_name(p), v, cycles);
        }
        sum += v;
      }
      const double total = number_or(reasons, conflict, 0.0);
      if (sum != total) {
        return format(
            "cpu%zu port_conflict %s sums to %.0f, reason total %.0f", i,
            side, sum, total);
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> check_run_report(const JsonValue& report) {
  if (!report.is_object()) return "not a JSON object";
  if (string_or(report, "schema", "") != "smt-run-report/1") {
    return "missing/unknown schema";
  }
  for (const char* key :
       {"workload", "cycles", "verified", "config", "cpus", "totals"}) {
    if (report.find(key) == nullptr) return format("missing \"%s\"", key);
  }
  if (!has_number(report, "cycles")) return "\"cycles\" is not a number";
  const JsonValue& cpus = *report.find("cpus");
  if (Finding f = check_cpus(cpus)) return f;
  const double cycles = number_or(report, "cycles", 0.0);
  if (const JsonValue* ts = report.find("timeseries")) {
    if (Finding f = check_timeseries(*ts, cpus)) return f;
  }
  if (const JsonValue* prof = report.find("profile")) {
    if (Finding f = check_profile(*prof, cpus, cycles)) return f;
  }
  if (const JsonValue* inter = report.find("interference")) {
    if (Finding f = check_interference(*inter, cpus, cycles)) return f;
  }
  return std::nullopt;
}

}  // namespace smt::core
