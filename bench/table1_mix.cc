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

/// Runs a workload with the profiler attached and extracts the column for
/// `view` (the instrumented thread). `key` names the run in the results
/// registry (and its report artifact).
template <typename W>
Column profile_workload(W& w, CpuId view, const std::string& key) {
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
  Results::instance().put(key, stats_from(m, key, ok));
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

void register_all() {
  register_run("table1.mm", [] {
    AppColumns c;
    kernels::MatMulParams p;
    p.n = 64;
    p.tile = 16;
    {
      kernels::MatMulWorkload w(p);
      c.serial = profile_workload(w, CpuId::kCpu0, "table1.mm.serial");
    }
    p.mode = kernels::MmMode::kTlpCoarse;
    {
      kernels::MatMulWorkload w(p);
      c.tlp = profile_workload(w, CpuId::kCpu0, "table1.mm.tlp");
    }
    p.mode = kernels::MmMode::kTlpPfetch;
    p.halt_barriers = true;
    {
      kernels::MatMulWorkload w(p);
      c.spr = profile_workload(w, CpuId::kCpu1, "table1.mm.spr");
    }
    apps()["MM"] = c;
  });

  register_run("table1.lu", [] {
    AppColumns c;
    kernels::LuParams p;
    p.n = 64;
    p.tile = 16;
    {
      kernels::LuWorkload w(p);
      c.serial = profile_workload(w, CpuId::kCpu0, "table1.lu.serial");
    }
    p.mode = kernels::LuMode::kTlpCoarse;
    {
      kernels::LuWorkload w(p);
      c.tlp = profile_workload(w, CpuId::kCpu0, "table1.lu.tlp");
    }
    p.mode = kernels::LuMode::kTlpPfetch;
    {
      kernels::LuWorkload w(p);
      c.spr = profile_workload(w, CpuId::kCpu1, "table1.lu.spr");
    }
    apps()["LU"] = c;
  });

  register_run("table1.cg", [] {
    AppColumns c;
    kernels::CgParams p;
    p.n = 4096;
    p.nz_per_row = 8;
    p.iters = 4;
    {
      kernels::CgWorkload w(p);
      c.serial = profile_workload(w, CpuId::kCpu0, "table1.cg.serial");
    }
    p.mode = kernels::CgMode::kTlpCoarse;
    {
      kernels::CgWorkload w(p);
      c.tlp = profile_workload(w, CpuId::kCpu0, "table1.cg.tlp");
    }
    p.mode = kernels::CgMode::kTlpPfetch;
    {
      kernels::CgWorkload w(p);
      c.spr = profile_workload(w, CpuId::kCpu1, "table1.cg.spr");
    }
    apps()["CG"] = c;
  });

  register_run("table1.bt", [] {
    AppColumns c;
    kernels::BtParams p;
    p.lines = 32;
    p.cells = 16;
    {
      kernels::BtWorkload w(p);
      c.serial = profile_workload(w, CpuId::kCpu0, "table1.bt.serial");
    }
    p.mode = kernels::BtMode::kTlpCoarse;
    {
      kernels::BtWorkload w(p);
      c.tlp = profile_workload(w, CpuId::kCpu0, "table1.bt.tlp");
    }
    p.mode = kernels::BtMode::kTlpPfetch;
    {
      kernels::BtWorkload w(p);
      c.spr = profile_workload(w, CpuId::kCpu1, "table1.bt.spr");
    }
    apps()["BT"] = c;
  });
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
  return smt::bench::bench_main(argc, argv, smt::bench::register_all,
                                smt::bench::print_all);
}
