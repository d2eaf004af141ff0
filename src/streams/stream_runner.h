// Execution drivers for the stream experiments: single-stream CPI and
// co-executed pair CPI / slowdown factors (paper Figures 1 and 2).
#pragma once

#include <string>
#include <vector>

#include "core/machine.h"
#include "core/runner.h"
#include "core/workload.h"
#include "streams/stream_gen.h"

namespace smt::streams {

/// One stream alone on logical CPU 0 (the sibling sits idle, so the
/// context owns all resources), or two streams, one per logical CPU: the
/// one place stream programs are built and bound. A pair is measured over
/// the fully-overlapped window, so it runs with
/// core::RunOptions::until_first_done. Streams compute nothing a host
/// reference could check, so a run that completes verifies.
class StreamWorkload final : public core::Workload {
 public:
  /// One or two specs, in logical-CPU order.
  explicit StreamWorkload(std::vector<StreamSpec> specs);

  /// The stream's label, or "labelA+labelB" for a pair.
  const std::string& name() const override { return name_; }
  void setup(core::Machine& m) override;
  std::vector<isa::Program> programs() const override { return programs_; }
  bool verify(const core::Machine&) const override { return true; }

 private:
  std::vector<StreamSpec> specs_;
  std::string name_;
  std::vector<isa::Program> programs_;
};

struct StreamMeasurement {
  double cpi[kNumLogicalCpus] = {0.0, 0.0};
  uint64_t instrs[kNumLogicalCpus] = {0, 0};
  Cycle cycles = 0;
  /// Full counter snapshot + config of the measuring run, report-ready
  /// (workload is the stream label, or "label+label" for pairs).
  core::RunStats stats;
};

/// Runs one stream alone on logical CPU 0 and reports its CPI.
StreamMeasurement run_single(const StreamSpec& spec,
                             const core::MachineConfig& cfg = {});

/// Co-executes two streams, one per logical CPU, and measures both CPIs
/// over the fully-overlapped window (up to the first stream's completion,
/// mirroring the paper's fixed-duration co-execution methodology).
StreamMeasurement run_pair(const StreamSpec& a, const StreamSpec& b,
                           const core::MachineConfig& cfg = {});

/// Fig. 2's slowdown factor: CPI of `victim` while co-running with
/// `aggressor`, relative to its single-threaded CPI, minus 1 — i.e. 0.0
/// means unaffected, 1.0 means "100% slowdown" (doubled CPI).
double slowdown_factor(const StreamSpec& victim, const StreamSpec& aggressor,
                       const core::MachineConfig& cfg = {});

}  // namespace smt::streams
