// Table 1: processor subunit utilization from the viewpoint of a specific
// thread — the dynamic instruction mix (percent of retired instructions
// using each execution subunit) and total instruction count for the
// serial version, one thread of the TLP version, and the prefetcher
// thread of the SPR version of each application.
//
// The paper generated these numbers by instrumenting the binaries with
// Pin; here the MixProfiler observes the simulator's retire stage.
#include <array>

#include "bench/bench_util.h"
#include "kernels/bt.h"
#include "kernels/cg.h"
#include "kernels/lu.h"
#include "kernels/matmul.h"
#include "profile/mix_profiler.h"

namespace smt::bench {
namespace {

using profile::MixProfiler;
using profile::Subunit;

struct Column {
  std::array<double, static_cast<int>(Subunit::kNumSubunits)> pct{};
  uint64_t total = 0;
};

/// Runs workload W on `p` with the profiler attached and extracts the
/// column for `view` (the instrumented thread). `key` names the run's
/// report artifact.
template <typename W, typename P>
Column profile_workload(const P& p, CpuId view, const std::string& key) {
  W w(p);
  core::Machine m{core::MachineConfig{}};
  MixProfiler prof;
  m.core().add_observer(&prof);
  w.setup(m);
  auto progs = w.programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), std::move(progs[i]));
  }
  m.run();
  const bool ok = w.verify(m);
  SMT_CHECK_MSG(ok, "workload verification failed");
  Results::instance().put(key, core::stats_from_machine(m, key, ok));
  Column c;
  for (int s = 0; s < static_cast<int>(Subunit::kNumSubunits); ++s) {
    c.pct[s] = prof.pct(view, static_cast<Subunit>(s));
  }
  c.total = prof.total(view);
  return c;
}

struct AppColumns {
  Column serial, tlp, spr;
};

std::map<std::string, AppColumns>& apps() {
  static std::map<std::string, AppColumns> a;
  return a;
}

/// One application's columns: `p` run serially, then in mode `tlp` and
/// in mode `spr` (with halt/IPI barriers when `spr_halts`). `key` names
/// the runs.
template <typename W, typename P, typename Mode>
AppColumns profile_app(const std::string& key, P p, Mode tlp, Mode spr,
                       bool spr_halts) {
  AppColumns c;
  c.serial = profile_workload<W>(p, CpuId::kCpu0, key + ".serial");
  p.mode = tlp;
  c.tlp = profile_workload<W>(p, CpuId::kCpu0, key + ".tlp");
  p.mode = spr;
  p.halt_barriers = spr_halts;
  c.spr = profile_workload<W>(p, CpuId::kCpu1, key + ".spr");
  return c;
}

void run_all() {
  kernels::MatMulParams mm;
  mm.n = 64;
  mm.tile = 16;
  apps()["MM"] = profile_app<kernels::MatMulWorkload>(
      "table1.mm", mm, kernels::MmMode::kTlpCoarse,
      kernels::MmMode::kTlpPfetch, /*spr_halts=*/true);
  kernels::LuParams lu;
  lu.n = 64;
  lu.tile = 16;
  apps()["LU"] = profile_app<kernels::LuWorkload>(
      "table1.lu", lu, kernels::LuMode::kTlpCoarse,
      kernels::LuMode::kTlpPfetch, /*spr_halts=*/false);
  kernels::CgParams cg;
  cg.n = 4096;
  cg.nz_per_row = 8;
  cg.iters = 4;
  apps()["CG"] = profile_app<kernels::CgWorkload>(
      "table1.cg", cg, kernels::CgMode::kTlpCoarse,
      kernels::CgMode::kTlpPfetch, /*spr_halts=*/false);
  kernels::BtParams bt;
  bt.lines = 32;
  bt.cells = 16;
  apps()["BT"] = profile_app<kernels::BtWorkload>(
      "table1.bt", bt, kernels::BtMode::kTlpCoarse,
      kernels::BtMode::kTlpPfetch, /*spr_halts=*/false);
}

void print_all() {
  constexpr Subunit kRows[] = {Subunit::kAlus,   Subunit::kFpAdd,
                               Subunit::kFpMul,  Subunit::kFpDiv,
                               Subunit::kFpMove, Subunit::kLoad,
                               Subunit::kStore};
  TextTable t({"app", "EX. UNIT", "serial", "tlp", "spr"});
  for (const char* app : {"MM", "LU", "CG", "BT"}) {
    const AppColumns& c = apps().at(app);
    for (Subunit s : kRows) {
      const int i = static_cast<int>(s);
      if (c.serial.pct[i] < 0.005 && c.tlp.pct[i] < 0.005 &&
          c.spr.pct[i] < 0.005) {
        continue;
      }
      t.add_row({app, profile::name(s), fmt(c.serial.pct[i], 2) + "%",
                 fmt(c.tlp.pct[i], 2) + "%", fmt(c.spr.pct[i], 2) + "%"});
    }
    t.add_row({app, "Total instr.", fmt_eng(c.serial.total, 2),
               fmt_eng(c.tlp.total, 2), fmt_eng(c.spr.total, 2)});
  }
  print_table("Table 1: processor subunit utilization per thread", t);
  std::printf(
      "\nPaper shape check: MM ~25%% logical (ALU0-only) ops and ~39%% loads;\n"
      "LU the highest ALU share, and an SPR thread with a comparable total\n"
      "instruction count to the worker; CG load-heavy; BT the lowest ALU\n"
      "share and fp-dense. SPR threads execute no FP_ADD/FP_MUL at all.\n");
}

}  // namespace
}  // namespace smt::bench

int main(int argc, char** argv) {
  return smt::bench::bench_main(argc, argv, smt::bench::run_all,
                                smt::bench::print_all);
}
