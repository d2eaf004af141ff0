// The benchmark's named workloads and the registry jobs they run.
//
// Every job is a host::experiments() registry entry, so at seed 0 a job is
// byte-for-byte the experiment smt_sweep runs and bench/history records.
// Any other seed rebuilds the same kernel parameterization with a
// different data seed (kernels::*Params::seed): the guest programs are
// unchanged, the matrices and line systems they compute on are new.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/workload.h"
#include "host/experiments.h"

namespace smt::perf {

/// One named workload; README.md records why each exists.
struct WorkloadDef {
  std::string name;
  /// Registry experiment names, run in this order at seed 0.
  std::vector<std::string> jobs;
  /// Run with every observer attached (pc profiler, interference,
  /// telemetry, windowed pipeview, race detector, flight recorder).
  bool observed = false;
};

const std::vector<WorkloadDef>& workloads();

/// nullptr when unknown.
const WorkloadDef* find_workload(const std::string& name);

/// A fresh instance of registry job `def`: the registry's own factory at
/// seed 0, otherwise the same kernel parameters with data seed `seed`.
/// Returns nullptr for a job the seeded table does not cover.
std::unique_ptr<core::Workload> make_job(const host::ExperimentDef& def,
                                         uint64_t seed);

/// The deterministic counters bench/history recorded for `job` on the
/// default machine config (the latest run of the matching trajectory).
struct HistoryRef {
  uint64_t cycles = 0;
  uint64_t instr_retired = 0;
  uint64_t uops_retired = 0;
};

/// nullopt when the history file or a matching trajectory is missing.
std::optional<HistoryRef> history_ref(const std::string& history_dir,
                                      const std::string& job);

}  // namespace smt::perf
