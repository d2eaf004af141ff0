// Quickstart: build a tiny program with the assembler DSL, run it on the
// simulated Hyper-Threading processor, and read the performance counters —
// the smallest end-to-end tour of the public API.
//
//   $ ./quickstart
#include <cstdio>

#include "core/machine.h"
#include "core/run_report.h"
#include "isa/asm_builder.h"
#include "isa/disasm.h"
#include "perfmon/events.h"

using namespace smt;
using isa::AsmBuilder;
using isa::BrCond;
using isa::FReg;
using isa::IReg;
using isa::Mem;

int main() {
  // 1. A machine with the Netburst-class defaults: 2 logical CPUs, 3-wide
  //    pipeline, 8 KiB L1D + 512 KiB L2, statically partitioned queues.
  core::Machine m;

  // 2. Put some data into simulated memory: x[0..63].
  const Addr x = 0x10000;
  for (int i = 0; i < 64; ++i) m.memory().write_f64(x + 8 * i, 0.5 * i);

  // 3. Write a program: sum = Σ x[i], stored to memory at `out`.
  const Addr out = 0x20000;
  AsmBuilder a("sum");
  a.imovi(IReg::R0, 0);           // i = 0
  a.fmovi(FReg::F0, 0.0);         // sum = 0
  isa::Label loop = a.here();
  a.fload(FReg::F1, Mem::idx(IReg::R0, 3, x));
  a.fadd(FReg::F0, FReg::F0, FReg::F1);
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, 64, loop);
  a.fstore(FReg::F0, Mem::abs(out));
  a.exit();
  isa::Program prog = a.take();

  std::printf("Program (%zu instructions):\n%s\n", prog.size(),
              isa::disasm(prog).c_str());

  // 4. Bind it to logical CPU 0 (sched_setaffinity analog) and run.
  m.load_program(CpuId::kCpu0, std::move(prog));
  m.run();

  // 5. Results: architectural memory plus per-logical-CPU counters.
  using perfmon::Event;
  const auto& c = m.counters();
  std::printf("sum            = %.1f (expected %.1f)\n",
              m.memory().read_f64(out), 0.5 * 63 * 64 / 2);
  std::printf("cycles         = %llu\n",
              static_cast<unsigned long long>(m.cycles()));
  std::printf("instructions   = %llu\n",
              static_cast<unsigned long long>(
                  c.get(CpuId::kCpu0, Event::kInstrRetired)));
  std::printf("CPI            = %.2f\n", c.cpi(CpuId::kCpu0));
  std::printf("L2 read misses = %llu\n",
              static_cast<unsigned long long>(
                  c.get(CpuId::kCpu0, Event::kL2ReadMisses)));
  std::printf("\nAll counters:\n%s", c.to_string().c_str());

  // 6. A structured run report: top-down cycle accounting per logical CPU,
  //    plus a JSON artifact with every counter and the machine config —
  //    the same format every smt_sweep job writes to <out>/reports/.
  const core::RunReport report = core::report_from_machine(
      m, "quickstart.sum",
      /*verified=*/m.memory().read_f64(out) == 0.5 * 63 * 64 / 2);
  std::printf("\n%s", report.to_table().c_str());
  const char* json_path = "quickstart.report.json";
  if (report.write_json_file(json_path)) {
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}
