#include "core/runner.h"

#include <utility>

#include "common/check.h"

namespace smt::core {

const char* name(RunStatus s) {
  switch (s) {
    case RunStatus::kOk:                  return "ok";
    case RunStatus::kDeadlock:            return "deadlock";
    case RunStatus::kCycleBudgetExceeded: return "cycle_budget_exceeded";
    case RunStatus::kVerifyFailed:        return "verify_failed";
    case RunStatus::kCancelled:           return "cancelled";
    case RunStatus::kRaceDetected:        return "race_detected";
  }
  return "?";
}

RunStats stats_from_machine(const Machine& m, std::string workload,
                            bool verified) {
  RunStats s;
  s.workload = std::move(workload);
  s.cycles = m.cycles();
  s.events = m.counters().snapshot();
  s.verified = verified;
  s.config = m.config();
  s.telemetry = m.telemetry();
  if (s.telemetry != nullptr) s.telemetry->finalize(m.cycles());
  s.pc_profile = m.pc_profiler();
  s.race_detector = m.race_detector();
  m.finalize_interference();
  s.interference = m.interference();
  s.pipeview = m.pipeview();
  return s;
}

RunOutcome try_run_workload(const MachineConfig& cfg, Workload& w,
                            Cycle max_cycles, std::function<bool()> cancel,
                            const RunOptions& opt) {
  RunOutcome out;

  Machine m(cfg);
  m.attach_instruments(opt.telemetry);
  if (cancel) m.set_cancel_check(std::move(cancel));
  w.setup(m);
  if (opt.race_detect) {
    m.enable_race_detector();
    const MemInfo mi = w.mem_info();
    analysis::RaceDetector& det = *m.race_detector();
    for (const auto& r : mi.data) det.add_extent(r.base, r.bytes);
    for (const auto& r : mi.sync) {
      det.add_extent(r.base, r.bytes);
      for (uint64_t off = 0; off + 8 <= r.bytes; off += 8) {
        det.add_sync_word(r.base + off);
      }
    }
    det.set_extents_complete(mi.complete);
  }
  if (opt.flight_recorder) m.enable_flight_recorder();
  std::vector<isa::Program> progs = w.programs();
  SMT_CHECK_MSG(!progs.empty() && progs.size() <= kNumLogicalCpus,
                "workload must provide 1 or 2 programs");
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), std::move(progs[i]));
  }
  const cpu::RunResult run = opt.until_first_done
                                 ? m.try_run_until_any_done(max_cycles)
                                 : m.try_run(max_cycles);

  // The stats always describe the run, even a failed one: a partial report
  // (cycles so far, all counters, finalized telemetry) is still valid data.
  out.stats = stats_from_machine(m, w.name(), /*verified=*/false);

  // Post-mortem core dump for the failure outcomes, built once the final
  // status (and message) is known.
  const auto build_dump = [&m, &w, &out]() {
    if (m.flight_recorder() == nullptr) return;
    out.core_dump =
        core_dump_json(m, *m.flight_recorder(), w.mem_info(),
                       out.stats.workload, name(out.status), out.message);
  };

  switch (run.termination) {
    case cpu::RunTermination::kDeadlock:
      out.status = RunStatus::kDeadlock;
      break;
    case cpu::RunTermination::kCycleBudgetExceeded:
      out.status = RunStatus::kCycleBudgetExceeded;
      break;
    case cpu::RunTermination::kCancelled:
      out.status = RunStatus::kCancelled;
      break;
    case cpu::RunTermination::kDone:
      out.status = RunStatus::kOk;
      break;
  }
  if (!run.ok()) {
    // Incomplete computation: don't consult the workload's verifier. A
    // race seen before the failure rides along in the message (it often
    // explains the deadlock) without masking the termination cause.
    out.stats.verified = false;
    out.message = run.message;
    if (out.stats.race_detector != nullptr &&
        !out.stats.race_detector->clean()) {
      out.message += "; also: " + out.stats.race_detector->summary();
    }
    if (out.status == RunStatus::kDeadlock ||
        out.status == RunStatus::kCycleBudgetExceeded) {
      build_dump();
    }
    return out;
  }

  out.stats.verified = w.verify(m);
  if (!out.stats.verified) {
    out.status = RunStatus::kVerifyFailed;
    out.message = "result verification failed";
  }
  // A detected race outranks a verification verdict: the result may have
  // come out right by luck of the interleaving.
  if (out.stats.race_detector != nullptr &&
      !out.stats.race_detector->clean()) {
    out.status = RunStatus::kRaceDetected;
    out.message = out.stats.race_detector->summary();
    build_dump();
  }
  return out;
}

RunStats run_workload(const MachineConfig& cfg, Workload& w,
                      Cycle max_cycles) {
  RunOutcome o = try_run_workload(cfg, w, max_cycles);
  // Legacy contract: simulation failures abort (with the historical
  // watchdog / max_cycles message); a failed verification only shows up
  // as stats.verified == false.
  SMT_CHECK_MSG(o.ok() || o.status == RunStatus::kVerifyFailed,
                o.message.c_str());
  return std::move(o.stats);
}

}  // namespace smt::core
