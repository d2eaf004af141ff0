// Pin-analog dynamic instruction-mix profiler (paper §5.3, Table 1).
//
// The paper instruments application binaries with Pin and breaks the
// dynamic instruction mix down by the execution subunit each instruction
// uses, explaining e.g. the ALU0 serialization of the mask-heavy MM code.
// Here the profiler rides the core's observer bus, consumes the retire
// hook, and performs the same classification on the uop stream.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/json.h"
#include "cpu/observer.h"
#include "isa/opcode.h"

namespace smt::profile {

/// Table-1 row categories.
enum class Subunit : uint8_t {
  kAlus,     // simple int ALU + logical/shift + branches
  kIntMul,
  kIntDiv,
  kFpAdd,
  kFpMul,
  kFpDiv,
  kFpMove,
  kLoad,     // demand loads + software prefetches
  kStore,
  kOther,    // pause/halt/ipi/nop
  kNumSubunits,
};

const char* name(Subunit s);

/// Maps an execution-unit class to its Table-1 category.
Subunit subunit_of(isa::UnitClass u);

/// One context's instruction mix: retired instructions per Table-1
/// category, and in all.
struct MixCounts {
  std::array<uint64_t, static_cast<int>(Subunit::kNumSubunits)> counts{};
  uint64_t total = 0;

  /// Percentage of the retired instructions in category `s` (0 when
  /// none retired).
  double pct(Subunit s) const;
};

/// The mix of logical CPU `cpu` read from a run report's `profile`
/// section (smt_sweep --profile): each PC's retired_instrs, classified by
/// the opcode its disasm names first through isa::unit_class and
/// subunit_of — what a MixProfiler attached to the run counts at retire.
/// nullopt when the report has no profile for `cpu` or a disasm names no
/// opcode.
std::optional<MixCounts> mix_from_report(const JsonValue& report, int cpu);

class MixProfiler final : public cpu::PipelineObserver {
 public:
  void on_retire(CpuId cpu, const cpu::DynUop& uop, int uops,
                 Cycle now) override;

  const MixCounts& mix(CpuId cpu) const { return mix_[idx(cpu)]; }
  uint64_t total(CpuId cpu) const { return mix(cpu).total; }
  uint64_t count(CpuId cpu, Subunit s) const {
    return mix(cpu).counts[static_cast<int>(s)];
  }
  /// Percentage of this context's retired instructions in category `s`.
  double pct(CpuId cpu, Subunit s) const { return mix(cpu).pct(s); }

  void reset();

  /// One Table-1-style column for a context: utilization percentages of the
  /// busiest subunits plus the total instruction count.
  std::string column(CpuId cpu) const;

 private:
  std::array<MixCounts, kNumLogicalCpus> mix_{};
};

}  // namespace smt::profile
