#include "profile/pc_profiler.h"

#include "isa/disasm.h"

namespace smt::profile {

void PcProfiler::on_issue(CpuId cpu, const cpu::DynUop& uop, int port,
                          Cycle /*done*/, Cycle /*now*/) {
  if (port < 0) return;  // portless uops occupy issue bandwidth only
  at(cpu, uop.pc).port_uops[port] += 1;
  port_totals_[idx(cpu)][port] += 1;
}

void PcProfiler::on_block(CpuId cpu, cpu::BlockReason reason, uint32_t pc,
                          bool /*sibling*/, int /*port*/, Cycle cycles,
                          Cycle /*now*/) {
  at(cpu, pc).stalls[static_cast<int>(reason)] += cycles;
}

void PcProfiler::on_demand_miss(CpuId cpu, uint32_t pc, bool l2_miss,
                                Cycle /*now*/) {
  PcStats& s = at(cpu, pc);
  s.l1_misses += 1;
  if (l2_miss) s.l2_misses += 1;
}

void PcProfiler::on_retire(CpuId cpu, const cpu::DynUop& uop, int uops,
                           Cycle /*now*/) {
  PcStats& s = at(cpu, uop.pc);
  s.retired_instrs += 1;
  s.retired_uops += static_cast<uint64_t>(uops);
}

void PcProfiler::set_program(CpuId cpu, const isa::Program& prog) {
  std::vector<std::string>& d = disasm_[idx(cpu)];
  d.clear();
  for (size_t pc = 0; pc < prog.size(); ++pc) {
    d.push_back(isa::disasm(prog.at(pc)));
  }
  std::vector<PcStats>& v = pcs_[idx(cpu)];
  if (v.size() < prog.size()) v.resize(prog.size());
}

std::vector<std::pair<uint32_t, PcStats>> PcProfiler::pcs(CpuId cpu) const {
  std::vector<std::pair<uint32_t, PcStats>> out;
  const std::vector<PcStats>& v = pcs_[idx(cpu)];
  for (size_t pc = 0; pc < v.size(); ++pc) {
    if (v[pc] != PcStats{}) out.emplace_back(static_cast<uint32_t>(pc), v[pc]);
  }
  return out;
}

const std::string& PcProfiler::disasm(CpuId cpu, uint32_t pc) const {
  static const std::string kUnknown;
  const std::vector<std::string>& d = disasm_[idx(cpu)];
  return pc < d.size() ? d[pc] : kUnknown;
}

void PcProfiler::reset() {
  for (auto& v : pcs_) v.assign(v.size(), PcStats{});
  for (auto& a : port_totals_) a.fill(0);
}

}  // namespace smt::profile
