// Flight recorder: the always-cheap post-mortem instrument.
//
// While attached it keeps, per logical CPU, a ring of the last K retired
// instructions (cycle + PC) and a ring of periodic queue-occupancy
// snapshots (ROB / uop-queue / load-queue / store-buffer fill, run mode).
// When a run ends in deadlock, an exhausted cycle budget, or a detected
// race, core::try_run_workload serializes the rings together with the
// architectural registers, context run-states, sync-word values and
// wait-for edges into an `smt-core-dump/1` JSON document attached to the
// RunOutcome — the input of the `smt_explain` diagnosis CLI.
//
// Like every observer on the core's bus it is pure: it only reads
// simulation state from the retire hook, never touches a counter, and
// leaves the per-cycle issue-block scan off (wants_issue_blocks() keeps
// its false default), so a flight-recorded run is counter-bit-identical to a bare one
// and the dump for a given (workload, config) is byte-deterministic.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "isa/program.h"

namespace smt::core {

class Machine;
struct MemInfo;

class FlightRecorder : public cpu::PipelineObserver {
 public:
  /// Retired-instruction ring depth per CPU.
  static constexpr int kRingSize = 64;
  /// Occupancy-snapshot ring depth per CPU, sampled every kSnapshotPeriod
  /// cycles of retirement activity (cycle-driven, so deterministic).
  static constexpr int kSnapshotRing = 16;
  static constexpr Cycle kSnapshotPeriod = 4096;

  explicit FlightRecorder(const cpu::Core& core) : core_(core) {}

  /// Registers the program bound to `cpu` for disassembly and
  /// spin-region (wait-for edge) lookups.
  void set_program(CpuId cpu, const isa::Program& prog) {
    progs_[idx(cpu)] = &prog;
  }
  const isa::Program* program(CpuId cpu) const { return progs_[idx(cpu)]; }

  void on_retire(CpuId cpu, const cpu::DynUop& uop, int uops,
                 Cycle now) override;

  struct RetiredEntry {
    Cycle cycle = 0;
    uint32_t pc = 0;
  };
  struct OccupancySnapshot {
    Cycle cycle = 0;
    cpu::Core::ThreadSnapshot state;
  };

  /// Ring contents in age order (oldest first).
  std::vector<RetiredEntry> recent(CpuId cpu) const;
  std::vector<OccupancySnapshot> snapshots(CpuId cpu) const;

 private:
  template <typename T, size_t N>
  struct Ring {
    std::array<T, N> slots{};
    size_t pos = 0;
    size_t count = 0;
    void push(const T& v) {
      slots[pos] = v;
      pos = (pos + 1) % N;
      if (count < N) ++count;
    }
    std::vector<T> in_order() const {
      std::vector<T> out;
      out.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        out.push_back(slots[(pos + N - count + i) % N]);
      }
      return out;
    }
  };

  const cpu::Core& core_;
  std::array<const isa::Program*, kNumLogicalCpus> progs_{};
  std::array<Ring<RetiredEntry, kRingSize>, kNumLogicalCpus> recent_;
  std::array<Ring<OccupancySnapshot, kSnapshotRing>, kNumLogicalCpus> snaps_;
  Cycle next_snapshot_at_ = 0;
};

/// Serializes the post-mortem state of `m` as an `smt-core-dump/1` JSON
/// document: outcome + failure message, final cycle, per-CPU architectural
/// registers / run mode / queue occupancies / recent retirement ring /
/// occupancy snapshots / wait state, the values of every sync word in
/// `mem`, and the wait-for edges derived from halt states and spin-region
/// annotations (a halted context awaits an IPI from its sibling; a context
/// whose next PC sits in an is_spin sync region spins on a word only the
/// sibling can flip). Deterministic: everything serialized is simulation
/// state.
std::string core_dump_json(const Machine& m, const FlightRecorder& fr,
                           const MemInfo& mem, const std::string& workload,
                           const std::string& outcome,
                           const std::string& message);

}  // namespace smt::core
