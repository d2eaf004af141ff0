// ExperimentRunner: executes a Workload on a fresh Machine and returns the
// measurements the paper's figures are built from.
//
// Two entry points: run_workload keeps the legacy crash-on-deadlock
// contract (an SMT_CHECK abort on deadlock or exhausted cycle budget),
// try_run_workload converts every failure path into data — a RunOutcome
// whose RunStats always describe the (possibly partial) run, so a sweep
// over many configurations can lose one job without losing the rest.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/machine.h"
#include "core/workload.h"
#include "perfmon/counters.h"
#include "trace/telemetry.h"

namespace smt::core {

struct RunStats {
  std::string workload;
  Cycle cycles = 0;            ///< wall-clock execution time in core cycles
  perfmon::Snapshot events;    ///< all per-logical-CPU counters
  bool verified = false;
  MachineConfig config;        ///< the machine the run executed on
  /// Time-resolved telemetry of the run (finalized), when the machine had
  /// it enabled; null otherwise. Shared: outlives the machine.
  std::shared_ptr<trace::Telemetry> telemetry;
  /// Per-PC attribution profile of the run, when the machine had the
  /// profiler enabled; null otherwise. Shared: outlives the machine.
  std::shared_ptr<profile::PcProfiler> pc_profile;
  /// Happens-before race detector state of the run, when race detection
  /// was requested (RunOptions::race_detect); null otherwise. Shared:
  /// outlives the machine.
  std::shared_ptr<analysis::RaceDetector> race_detector;
  /// SMT interference attribution of the run (L2 dimension already
  /// finalized), when the machine had the profiler enabled; null
  /// otherwise. Shared: outlives the machine.
  std::shared_ptr<profile::InterferenceProfiler> interference;
  /// Pipeline-lifetime (Kanata) recorder of the run, when the machine had
  /// it enabled; null otherwise. Shared: outlives the machine.
  std::shared_ptr<trace::PipeViewRecorder> pipeview;

  uint64_t total(perfmon::Event e) const { return events.total(e); }
  uint64_t cpu(CpuId c, perfmon::Event e) const { return events.get(c, e); }
};

/// How a try_run_workload invocation ended.
enum class RunStatus : uint8_t {
  kOk,                   // ran to completion and verified
  kDeadlock,             // no forward progress (watchdog / lost wake-up)
  kCycleBudgetExceeded,  // max_cycles elapsed before completion
  kVerifyFailed,         // completed, but the result check failed
  kCancelled,            // the host cancel predicate fired mid-run
  kRaceDetected,         // the happens-before detector found a data race
                         // or an out-of-extent guest access
};
const char* name(RunStatus s);

/// Optional run-time verification knobs for try_run_workload.
struct RunOptions {
  /// Attach analysis::RaceDetector to the machine before running and
  /// report any data race / out-of-extent access as kRaceDetected. The
  /// detector is configured from the workload's mem_info() (sync words,
  /// extents) plus the programs' own lock annotations. Detection is a
  /// pure observer: every perf counter stays bit-identical.
  bool race_detect = false;
  /// Attach core::FlightRecorder to the machine before running; when the
  /// run dies (deadlock, exhausted cycle budget, detected race) the
  /// post-mortem state is serialized into RunOutcome::core_dump as an
  /// `smt-core-dump/1` document (the smt_explain input). Pure observer:
  /// every perf counter stays bit-identical.
  bool flight_recorder = false;
  /// The instruments to attach (Machine::attach_instruments): telemetry,
  /// the per-PC profiler, interference attribution, the pipeview
  /// recorder. Each adds its report section or its stats member; none
  /// perturbs a counter. Attaches nothing by default.
  trace::TelemetryConfig telemetry{};
  /// Stop when the first bound context exits (the co-execution
  /// experiments' fully-overlapped window) instead of when all have;
  /// the workload's verify() then sees the sibling still running.
  bool until_first_done = false;
};

/// Structured result of a non-aborting workload run. `stats` is always
/// filled in — on failure it describes the partial run (cycles, counters,
/// finalized telemetry), so a report can still be written; only kOk runs
/// have stats.verified == true.
struct RunOutcome {
  RunStatus status = RunStatus::kOk;
  RunStats stats;
  std::string message;  // empty on kOk, human-readable failure otherwise
  /// `smt-core-dump/1` JSON of the post-mortem machine state, when the
  /// flight recorder was attached (RunOptions::flight_recorder) and the
  /// run ended in kDeadlock / kCycleBudgetExceeded / kRaceDetected;
  /// empty otherwise.
  std::string core_dump;

  bool ok() const { return status == RunStatus::kOk; }
};

/// The RunStats of a machine that has run: cycles, counters and config,
/// plus its shared telemetry (finalized), per-PC profile, race detector,
/// interference attribution (L2 dimension finalized) and pipeview
/// recorder. The one place a Machine becomes RunStats — try_run_workload,
/// report_from_machine and the tests that drive a Machine by hand all
/// call it.
RunStats stats_from_machine(const Machine& m, std::string workload,
                            bool verified);

/// Runs `w` to completion on a machine built from `cfg` and verifies the
/// result. Aborts (SMT_CHECK) on simulation deadlock.
RunStats run_workload(const MachineConfig& cfg, Workload& w,
                      Cycle max_cycles = 4'000'000'000ull);

/// Non-aborting variant: deadlock, an exhausted cycle budget, a failed
/// verification, or a fired `cancel` predicate (polled periodically by the
/// core's run loop — the sweep job pool's wall-clock watchdog) come back
/// as a structured RunOutcome instead of crashing the process. Verification
/// only runs after a completed simulation; failed runs report
/// stats.verified == false without consulting the workload.
RunOutcome try_run_workload(const MachineConfig& cfg, Workload& w,
                            Cycle max_cycles = 4'000'000'000ull,
                            std::function<bool()> cancel = nullptr,
                            const RunOptions& opt = {});

}  // namespace smt::core
