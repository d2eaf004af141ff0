#include "analysis/static_perf.h"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/cfg.h"
#include "cpu/ports.h"
#include "isa/opcode.h"

namespace smt::analysis {

using cpu::IssuePort;
using isa::Instr;
using isa::kNoReg;
using isa::Opcode;
using isa::RegId;
using isa::UnitClass;

namespace {

/// Resource usage of an instruction range, in the units each hard
/// constraint is expressed in.
struct Usage {
  // Uops per issue port; a uop with several candidate ports counts at its
  // first, the scheduler's preferred one (simple-ALU uops at ALU1).
  std::array<double, cpu::kNumIssuePorts> port{};
  std::array<double, cpu::kNumDividers> divides{};  // by cpu::Divider
  double uops = 0;
  double instrs = 0;

  void add(const Instr& in, double w) {
    instrs += w;
    if (in.op == Opcode::kXchg) {  // one load uop + one store uop
      port[static_cast<int>(IssuePort::kLoad)] += w;
      port[static_cast<int>(IssuePort::kStore)] += w;
      uops += 2 * w;
      return;
    }
    uops += w;
    if (static_cast<size_t>(in.op) >=
        static_cast<size_t>(Opcode::kNumOpcodes)) {
      return;  // unclassifiable: no port claim (conservative)
    }
    const UnitClass unit = isa::unit_class(in.op);
    const cpu::PortList& ports = cpu::candidate_ports(unit);
    if (!ports.empty()) port[static_cast<int>(*ports.begin())] += w;
    if (const int d = cpu::divider_of(unit); d >= 0) divides[d] += w;
  }
};

/// One hard constraint family: `cycles(u)` is a lower bound on the active
/// cycles needed to execute an instruction mix with usage `u`.
struct Family {
  const char* name;
  double (*cycles)(const Usage& u, const cpu::CoreConfig& cfg);
};

/// Uops on port `P` over the uops it accepts per cycle.
template <IssuePort P>
double port_cycles(const Usage& u, const cpu::CoreConfig& cfg) {
  const int p = static_cast<int>(P);
  return u.port[p] / cpu::port_caps(cfg)[p];
}

/// Divides on divider `D` times the cycles each one holds it.
template <cpu::Divider D>
double divider_cycles(const Usage& u, const cpu::CoreConfig& cfg) {
  return u.divides[static_cast<int>(D)] *
         static_cast<double>(cpu::divider_occupancy(D, cfg));
}

constexpr Family kFamilies[] = {
    {"fp port", port_cycles<IssuePort::kFp>},
    {"fp-move port", port_cycles<IssuePort::kFpMove>},
    {"load port", port_cycles<IssuePort::kLoad>},
    {"store port", port_cycles<IssuePort::kStore>},
    {"alu0 port", port_cycles<IssuePort::kAlu0>},
    {"alu bandwidth",
     [](const Usage& u, const cpu::CoreConfig& cfg) {
       const int a0 = static_cast<int>(IssuePort::kAlu0);
       const int a1 = static_cast<int>(IssuePort::kAlu1);
       const std::array<int, cpu::kNumIssuePorts> caps = cpu::port_caps(cfg);
       return (u.port[a0] + u.port[a1]) / (caps[a0] + caps[a1]);
     }},
    {"retire width",
     [](const Usage& u, const cpu::CoreConfig& cfg) {
       return u.instrs / cfg.retire_width;
     }},
    {"fdiv unit", divider_cycles<cpu::Divider::kFp>},
    {"idiv unit", divider_cycles<cpu::Divider::kInt>},
};

/// Abort-free register-read mask of the operands a result chain can run
/// through (mirrors the lint's reg_reads, minus memory operands).
bool reads_reg(const Instr& in, RegId r) {
  if (r == kNoReg) return false;
  switch (in.op) {
    case Opcode::kIAdd: case Opcode::kISub: case Opcode::kIAnd:
    case Opcode::kIOr:  case Opcode::kIXor: case Opcode::kIShl:
    case Opcode::kIShr: case Opcode::kIMul: case Opcode::kIDiv:
      return in.rs1 == r || (!in.use_imm && in.rs2 == r);
    case Opcode::kIMov: case Opcode::kFMov: case Opcode::kFNeg:
      return in.rs1 == r;
    case Opcode::kFAdd: case Opcode::kFSub: case Opcode::kFMul:
    case Opcode::kFDiv:
      return in.rs1 == r || in.rs2 == r;
    default:
      return false;
  }
}

RegId written_reg(const Instr& in) {
  if (static_cast<size_t>(in.op) >=
      static_cast<size_t>(Opcode::kNumOpcodes)) {
    return kNoReg;
  }
  return isa::traits(in.op).writes_reg ? in.rd : kNoReg;
}

/// Walk [begin, end) truncated after the first kExit (nothing past an
/// exit executes, and counting it would inflate the bound).
template <typename Fn>
void for_executed(const isa::Program& p, uint32_t begin, uint32_t end,
                  Fn&& fn) {
  for (uint32_t pc = begin; pc < end; ++pc) {
    fn(p.at(pc));
    if (p.at(pc).op == Opcode::kExit) break;
  }
}

}  // namespace

StaticPerf static_cpi_bound(const isa::Program& p,
                            const cpu::CoreConfig& cfg) {
  StaticPerf r;
  if (p.empty()) return r;
  const Cfg g = Cfg::build(p);
  const IntervalAnalysis ia = analyze_intervals(p, g);
  const LoopInfo li = analyze_loops(p, g, ia);

  if (li.exact) {
    r.exact = true;
    Usage total;
    for (uint32_t b = 0; b < g.blocks.size(); ++b) {
      if (!g.blocks[b].reachable || li.freq[b] == 0) continue;
      const double w = static_cast<double>(li.freq[b]);
      for_executed(p, g.blocks[b].begin, g.blocks[b].end,
                   [&](const Instr& in) { total.add(in, w); });
    }
    r.instrs = static_cast<uint64_t>(total.instrs);
    r.uops = static_cast<uint64_t>(total.uops);
    r.port_uops = total.port;

    for (const Family& f : kFamilies) {
      const double c = f.cycles(total, cfg);
      if (c > r.cycles_lb) {
        r.cycles_lb = c;
        r.binding = f.name;
      }
    }

    // Single-instruction loop-carried dependence chains: an instruction
    // whose destination feeds its own source, with no other writer of
    // that register anywhere in the loop, serializes its executions at
    // its result latency. Within one loop entry the chain spans
    // (executions_per_entry - 1) latencies; summed over all entries that
    // is (total executions - entries) * latency.
    for (const NaturalLoop& loop : li.loops) {
      for (const uint32_t b : loop.blocks) {
        for_executed(p, g.blocks[b].begin, g.blocks[b].end,
                     [&](const Instr& in) {
          const RegId rd = written_reg(in);
          if (rd == kNoReg || !reads_reg(in, rd) || in.is_mem()) return;
          const Cycle lat = cfg.latency(in.op);
          if (lat == 0) return;
          for (const uint32_t ob : loop.blocks) {
            for (uint32_t opc = g.blocks[ob].begin; opc < g.blocks[ob].end;
                 ++opc) {
              const Instr& other = p.at(opc);
              if (&other != &in && written_reg(other) == rd) return;
            }
          }
          const double execs = static_cast<double>(li.freq[b]);
          const double entries =
              static_cast<double>(li.freq[loop.header]) /
              static_cast<double>(loop.trips);
          if (execs <= entries) return;
          const double c = (execs - entries) * static_cast<double>(lat);
          if (c > r.cycles_lb) {
            r.cycles_lb = c;
            r.binding =
                std::string("loop-carried ") + isa::name(in.op) + " chain";
          }
        });
      }
    }

    if (r.instrs > 0) {
      r.cpi_lb = r.cycles_lb / static_cast<double>(r.instrs);
    }
    return r;
  }

  // Fallback: any complete execution path is a concatenation of whole
  // blocks plus one exit-terminated prefix, so for each constraint
  // family, per-instruction cost over the path is at least the minimum
  // density over those candidates; CPI is at least the best family's
  // minimum. The retire-width family guarantees >= 1/(retire_width).
  std::vector<Usage> candidates;
  for (uint32_t b = 0; b < g.blocks.size(); ++b) {
    if (!g.blocks[b].reachable) continue;
    Usage whole;
    for (uint32_t pc = g.blocks[b].begin; pc < g.blocks[b].end; ++pc) {
      whole.add(p.at(pc), 1.0);
      if (p.at(pc).op == Opcode::kExit) {
        candidates.push_back(whole);  // the exit-terminated prefix
      }
    }
    candidates.push_back(whole);
  }
  for (const Family& f : kFamilies) {
    double min_density = -1.0;
    for (const Usage& u : candidates) {
      if (u.instrs <= 0) continue;
      const double d = f.cycles(u, cfg) / u.instrs;
      if (min_density < 0 || d < min_density) min_density = d;
    }
    if (min_density > r.cpi_lb) {
      r.cpi_lb = min_density;
      r.binding = f.name;
    }
  }
  return r;
}

}  // namespace smt::analysis
