#include "profile/pc_profiler.h"

#include "isa/disasm.h"

namespace smt::profile {

void PcProfiler::on_issue(CpuId cpu, const cpu::DynUop& uop, int port,
                          Cycle /*done*/, Cycle /*now*/) {
  if (port < 0) return;  // portless uops occupy issue bandwidth only
  pcs_[idx(cpu)][uop.pc].port_uops[port] += 1;
  port_totals_[idx(cpu)][port] += 1;
}

void PcProfiler::on_block(CpuId cpu, cpu::BlockReason reason, uint32_t pc,
                          bool /*sibling*/, int /*port*/, Cycle cycles,
                          Cycle /*now*/) {
  pcs_[idx(cpu)][pc].stalls[static_cast<int>(reason)] += cycles;
}

void PcProfiler::on_demand_miss(CpuId cpu, uint32_t pc, bool l2_miss,
                                Cycle /*now*/) {
  PcStats& s = pcs_[idx(cpu)][pc];
  s.l1_misses += 1;
  if (l2_miss) s.l2_misses += 1;
}

void PcProfiler::on_retire(CpuId cpu, const cpu::DynUop& uop, int uops,
                           Cycle /*now*/) {
  PcStats& s = pcs_[idx(cpu)][uop.pc];
  s.retired_instrs += 1;
  s.retired_uops += static_cast<uint64_t>(uops);
}

void PcProfiler::set_program(CpuId cpu, const isa::Program& prog) {
  std::map<uint32_t, std::string>& d = disasm_[idx(cpu)];
  d.clear();
  for (size_t pc = 0; pc < prog.size(); ++pc) {
    d[static_cast<uint32_t>(pc)] = isa::disasm(prog.at(pc));
  }
}

std::string PcProfiler::disasm(CpuId cpu, uint32_t pc) const {
  const auto& d = disasm_[idx(cpu)];
  const auto it = d.find(pc);
  return it == d.end() ? std::string() : it->second;
}

void PcProfiler::reset() {
  for (auto& m : pcs_) m.clear();
  for (auto& a : port_totals_) a.fill(0);
}

}  // namespace smt::profile
