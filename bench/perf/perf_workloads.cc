#include "perf_workloads.h"

#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "common/hash.h"
#include "common/io.h"
#include "common/json.h"
#include "core/run_report.h"
#include "kernels/bt.h"
#include "kernels/lu.h"
#include "kernels/matmul.h"

namespace smt::perf {

namespace {

using Factory = std::function<std::unique_ptr<core::Workload>(uint64_t)>;

// Mirrors the registry's parameterizations (src/host/experiments.cc) for
// the jobs the workloads use; sim_perf gates every seeded factory against
// the registry's (same workload name, same program digests) on each run.
const std::map<std::string, Factory>& seeded_factories() {
  static const std::map<std::string, Factory> table = [] {
    std::map<std::string, Factory> t;
    for (kernels::MmMode mode :
         {kernels::MmMode::kSerial, kernels::MmMode::kTlpFine,
          kernels::MmMode::kTlpCoarse, kernels::MmMode::kTlpPfetch,
          kernels::MmMode::kTlpPfetchWork}) {
      t[std::string("mm.") + kernels::name(mode) + ".n64"] =
          [mode](uint64_t seed) {
            kernels::MatMulParams p;
            p.n = 64;
            p.tile = 16;
            p.mode = mode;
            p.halt_barriers = mode == kernels::MmMode::kTlpPfetch ||
                              mode == kernels::MmMode::kTlpPfetchWork;
            p.seed = seed;
            return std::make_unique<kernels::MatMulWorkload>(p);
          };
    }
    for (kernels::LuMode mode : {kernels::LuMode::kSerial,
                                 kernels::LuMode::kTlpCoarse,
                                 kernels::LuMode::kTlpPfetch}) {
      t[std::string("lu.") + kernels::name(mode) + ".n64"] =
          [mode](uint64_t seed) {
            kernels::LuParams p;
            p.n = 64;
            p.tile = 16;
            p.mode = mode;
            p.seed = seed;
            return std::make_unique<kernels::LuWorkload>(p);
          };
    }
    for (kernels::BtMode mode : {kernels::BtMode::kSerial,
                                 kernels::BtMode::kTlpCoarse,
                                 kernels::BtMode::kTlpPfetch}) {
      t[std::string("bt.") + kernels::name(mode)] = [mode](uint64_t seed) {
        kernels::BtParams p;
        p.lines = 64;
        p.cells = 32;
        p.mode = mode;
        p.seed = seed;
        return std::make_unique<kernels::BtWorkload>(p);
      };
    }
    return t;
  }();
  return table;
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      // Compute-bound MM, one and two contexts: nearly every cycle issues
      // uops, so the fetch/dispatch/issue/retire path sets the rate.
      {"dense", {"mm.serial.n64", "mm.tlp-fine.n64"}},
      // Memory-bound BT sharing the bus, and MM whose prefetch sibling is
      // 91% halted: idle cycles, so event skip, MSHR/bus and halt paths.
      {"memory-halt", {"bt.tlp-coarse", "mm.tlp-pfetch.n64"}},
      // Every observer attached: the observer path sets the rate.
      {"observed", {"mm.tlp-coarse.n64", "lu.tlp-coarse.n64"}, true},
      // Many short jobs, so the sweep's host layer (pool, key, store,
      // load) has its largest share.
      {"sweep-cache",
       {"lu.serial.n64", "lu.tlp-coarse.n64", "lu.tlp-pfetch.n64",
        "mm.tlp-pfetch+work.n64"}},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::unique_ptr<core::Workload> make_job(const host::ExperimentDef& def,
                                         uint64_t seed) {
  if (seed == 0) return def.make();
  const auto it = seeded_factories().find(def.name);
  return it == seeded_factories().end() ? nullptr : it->second(seed);
}

std::optional<HistoryRef> history_ref(const std::string& history_dir,
                                      const std::string& job) {
  std::ifstream in(history_dir + "/BENCH_" + sanitize_artifact_key(job) +
                   ".json");
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::optional<JsonValue> doc = parse_json(ss.str());
  const JsonValue* trajs = doc ? doc->find("trajectories") : nullptr;
  if (trajs == nullptr || !trajs->is_array()) return std::nullopt;

  // smt_history keys trajectories by the canonical config JSON's digest
  // and the report schema; detached runs write schema /1.
  const std::optional<JsonValue> cfg =
      parse_json(core::machine_config_json(core::MachineConfig{}));
  const std::string config_hash = fnv1a64_hex(to_canonical_string(*cfg));
  for (const JsonValue& t : trajs->array) {
    const JsonValue* hash = t.find("config_hash");
    const JsonValue* schema = t.find("report_schema");
    const JsonValue* runs = t.find("runs");
    if (hash == nullptr || hash->string != config_hash || schema == nullptr ||
        schema->string != "smt-run-report/1" || runs == nullptr ||
        !runs->is_array() || runs->array.empty()) {
      continue;
    }
    const JsonValue* m = runs->array.back().find("metrics");
    if (m == nullptr) return std::nullopt;
    const JsonValue* cycles = m->find("cycles");
    const JsonValue* instr = m->find("totals.instr_retired");
    const JsonValue* uops = m->find("totals.uops_retired");
    if (cycles == nullptr || instr == nullptr || uops == nullptr) {
      return std::nullopt;
    }
    return HistoryRef{static_cast<uint64_t>(cycles->number),
                      static_cast<uint64_t>(instr->number),
                      static_cast<uint64_t>(uops->number)};
  }
  return std::nullopt;
}

}  // namespace smt::perf
