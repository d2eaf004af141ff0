// The issue-port model of the simulated Netburst backend, defined once:
// the issue ports, which ports each execution-unit class may issue on (in
// the order the scheduler tries them), how many uops each port accepts per
// cycle, and which unpipelined divider a unit class occupies.
//
// Every consumer reads this table: the core's issue stage and its
// issue-block attribution (cpu/core.cc), the run report's
// port_caps_per_cycle (core/run_report.cc) and the static CPI advisor's
// port and divider families (analysis/static_perf.cc). The paper explains
// its results through exactly this structure: logical ops run only on
// ALU0, which serializes the mask-heavy MM (§5.3, Table 1); one shared FP
// port takes fadd, fmul, fdiv, imul and idiv; and the dividers are
// unpipelined, so idiv/fdiv pairs barely interfere (Figure 2).
//
// Header-only and dependent only on common/, isa/ and the plain
// CoreConfig struct, so observer.h can include it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "cpu/config.h"
#include "isa/opcode.h"

namespace smt::cpu {

/// Issue ports of the modeled backend, at the granularity the paper's
/// Table 1 / Figure 6 reason about: the two double-speed ALUs (logical,
/// shift and branch uops are restricted to ALU0), the single shared FP
/// issue port (FP add/mul/div plus the complex integer unit), the FP-move
/// path, and the load / store-address ports.
enum class IssuePort : uint8_t {
  kAlu0,
  kAlu1,
  kFp,      // shared FP complex port (fadd/fmul/fdiv/imul/idiv)
  kFpMove,
  kLoad,
  kStore,   // store-address generation
};
inline constexpr int kNumIssuePorts = 6;

inline const char* name(IssuePort p) {
  switch (p) {
    case IssuePort::kAlu0:   return "alu0";
    case IssuePort::kAlu1:   return "alu1";
    case IssuePort::kFp:     return "fp";
    case IssuePort::kFpMove: return "fp_move";
    case IssuePort::kLoad:   return "load";
    case IssuePort::kStore:  return "store";
  }
  return "?";
}

/// The ports a unit class may issue on, in the order the scheduler tries
/// them. Empty for kNone (nop/pause/halt/ipi/exit), which takes an issue
/// slot but no port.
struct PortList {
  std::array<IssuePort, 2> port{};
  int size = 0;

  const IssuePort* begin() const { return port.data(); }
  const IssuePort* end() const { return port.data() + size; }
  bool empty() const { return size == 0; }
};

inline const PortList& candidate_ports(isa::UnitClass u) {
  // One row per isa::UnitClass, in declaration order.
  static constexpr PortList kCandidates[] = {
      // kAlu: either double-speed ALU; ALU1 first keeps ALU0 free for the
      // logical/shift/branch uops only it can execute.
      {{IssuePort::kAlu1, IssuePort::kAlu0}, 2},
      {{IssuePort::kAlu0}, 1},  // kAlu0
      {{IssuePort::kAlu0}, 1},  // kBranch
      // kIntMul, kIntDiv: the complex integer unit sits behind the FP
      // issue port on Netburst (Table 1's subunit mapping).
      {{IssuePort::kFp}, 1},
      {{IssuePort::kFp}, 1},
      {{IssuePort::kFp}, 1},      // kFpAdd
      {{IssuePort::kFp}, 1},      // kFpMul
      {{IssuePort::kFp}, 1},      // kFpDiv
      {{IssuePort::kFpMove}, 1},  // kFpMove
      {{IssuePort::kLoad}, 1},    // kLoad
      {{IssuePort::kStore}, 1},   // kStore: address generation only
      {},                         // kNone
  };
  static_assert(std::size(kCandidates) ==
                static_cast<size_t>(isa::UnitClass::kNone) + 1);
  return kCandidates[static_cast<size_t>(u)];
}

/// The port a uop of `u` issues on given the capacity each port has left
/// this cycle: its first candidate with capacity, or -1 when every
/// candidate is exhausted (always -1 for kNone).
inline int first_free_port(isa::UnitClass u,
                           const std::array<int, kNumIssuePorts>& left) {
  for (const IssuePort p : candidate_ports(u)) {
    if (left[static_cast<int>(p)] > 0) return static_cast<int>(p);
  }
  return -1;
}

/// Uops each port accepts per cycle under `cfg`: the double-speed ALUs
/// their configured rate, every other port one.
inline std::array<int, kNumIssuePorts> port_caps(const CoreConfig& cfg) {
  std::array<int, kNumIssuePorts> caps;
  caps.fill(1);
  caps[static_cast<int>(IssuePort::kAlu0)] = cfg.alu0_per_cycle;
  caps[static_cast<int>(IssuePort::kAlu1)] = cfg.alu1_per_cycle;
  return caps;
}

/// The two divide units, each behind the FP issue port.
enum class Divider : uint8_t { kFp, kInt };
inline constexpr int kNumDividers = 2;

/// The divider unit class `u` executes on, or -1 for a non-divide.
inline int divider_of(isa::UnitClass u) {
  switch (u) {
    case isa::UnitClass::kFpDiv:  return static_cast<int>(Divider::kFp);
    case isa::UnitClass::kIntDiv: return static_cast<int>(Divider::kInt);
    default:                      return -1;
  }
}

/// Whether divider `d` is unpipelined under `cfg`: a divide then holds it
/// for its whole latency, and the next divide of that kind waits.
inline bool unpipelined(Divider d, const CoreConfig& cfg) {
  return d == Divider::kFp ? cfg.fdiv_unpipelined : cfg.idiv_unpipelined;
}

/// The unpipelined divider unit class `u` occupies under `cfg`, or -1.
inline int unpipelined_divider(isa::UnitClass u, const CoreConfig& cfg) {
  const int d = divider_of(u);
  return d >= 0 && unpipelined(static_cast<Divider>(d), cfg) ? d : -1;
}

/// Cycles one divide holds divider `d` under `cfg`: its latency when
/// unpipelined, else one issue cycle.
inline Cycle divider_occupancy(Divider d, const CoreConfig& cfg) {
  if (!unpipelined(d, cfg)) return 1;
  return d == Divider::kFp ? cfg.lat_fdiv : cfg.lat_idiv;
}

}  // namespace smt::cpu
