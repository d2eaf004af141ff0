#include "profile/interference.h"

#include "common/check.h"

namespace smt::profile {

void InterferenceProfiler::on_block(CpuId cpu, cpu::BlockReason reason,
                                    uint32_t /*pc*/, bool sibling, int port,
                                    Cycle cycles, Cycle /*now*/) {
  CpuInterference& s = stats_[idx(cpu)];
  const int r = static_cast<int>(reason);
  (sibling ? s.sibling : s.self)[r] += cycles;
  if (reason == cpu::BlockReason::kPortConflict) {
    SMT_DCHECK(port >= -1 && port < cpu::kNumIssuePorts);
    const int slot = port < 0 ? CpuInterference::kIssueBandwidth : port;
    (sibling ? s.port_sibling : s.port_self)[slot] += cycles;
  }
}

}  // namespace smt::profile
