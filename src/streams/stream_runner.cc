#include "streams/stream_runner.h"

#include "common/check.h"
#include "perfmon/events.h"

namespace smt::streams {

using perfmon::Event;

StreamWorkload::StreamWorkload(std::vector<StreamSpec> specs)
    : specs_(std::move(specs)) {
  SMT_CHECK(!specs_.empty() && specs_.size() <= kNumLogicalCpus);
  for (const StreamSpec& s : specs_) {
    if (!name_.empty()) name_ += '+';
    name_ += s.label();
  }
}

void StreamWorkload::setup(core::Machine&) {
  mem::MemoryLayout layout;
  programs_.clear();
  for (size_t i = 0; i < specs_.size(); ++i) {
    programs_.push_back(build_stream(specs_[i], layout, static_cast<int>(i)));
  }
}

namespace {

/// Runs `w` on a machine built from `cfg` (aborting on a failed run, as
/// run_single and run_pair always have) and measures every context.
StreamMeasurement measure(StreamWorkload w, const core::MachineConfig& cfg,
                          bool until_first_done) {
  core::RunOptions opt;
  opt.until_first_done = until_first_done;
  core::RunOutcome o =
      core::try_run_workload(cfg, w, 4'000'000'000ull, nullptr, opt);
  SMT_CHECK_MSG(o.ok(), o.message.c_str());
  StreamMeasurement r;
  r.cycles = o.stats.cycles;
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const CpuId cpu = static_cast<CpuId>(i);
    r.instrs[i] = o.stats.cpu(cpu, Event::kInstrRetired);
    const uint64_t active = o.stats.cpu(cpu, Event::kCyclesActive);
    // PerfCounters::cpi: a context that retired nothing has CPI 0.0.
    r.cpi[i] = r.instrs[i] == 0 || active == 0
                   ? 0.0
                   : static_cast<double>(active) /
                         static_cast<double>(r.instrs[i]);
  }
  r.stats = std::move(o.stats);
  return r;
}

}  // namespace

StreamMeasurement run_single(const StreamSpec& spec,
                             const core::MachineConfig& cfg) {
  return measure(StreamWorkload({spec}), cfg, /*until_first_done=*/false);
}

StreamMeasurement run_pair(const StreamSpec& a, const StreamSpec& b,
                           const core::MachineConfig& cfg) {
  return measure(StreamWorkload({a, b}), cfg, /*until_first_done=*/true);
}

double slowdown_factor(const StreamSpec& victim, const StreamSpec& aggressor,
                       const core::MachineConfig& cfg) {
  const StreamMeasurement alone = run_single(victim, cfg);
  const StreamMeasurement pair = run_pair(victim, aggressor, cfg);
  SMT_CHECK(alone.cpi[0] > 0.0);
  return pair.cpi[0] / alone.cpi[0] - 1.0;
}

}  // namespace smt::streams
