// Ablation for paper §3.1: what an idle sibling thread costs the working
// thread, per spin-wait flavour.
//
// One context executes a fixed floating-point workload; the other waits at
// a barrier for the whole time, either spinning tightly, spinning with
// pause, or sleeping via halt until the worker's IPI. The paper's claims:
// tight spinning consumes shared resources aggressively and machine-clears
// on exit; pause de-pipelines the loop; halting releases even the
// statically partitioned structures (letting the worker run
// single-threaded-fast) at a transition cost of thousands of cycles.
#include "bench/bench_util.h"
#include "isa/asm_builder.h"
#include "perfmon/events.h"
#include "sync/primitives.h"

namespace smt::bench {
namespace {

using isa::AsmBuilder;
using isa::FReg;
using isa::IReg;
using perfmon::Event;

enum class WaitKind { kNone, kTight, kPause, kHalt };

const char* name(WaitKind k) {
  switch (k) {
    case WaitKind::kNone: return "no sibling";
    case WaitKind::kTight: return "tight spin";
    case WaitKind::kPause: return "pause spin";
    case WaitKind::kHalt: return "halt+IPI";
  }
  return "?";
}

constexpr int kWork = 240'000;  // int ALU operations on six chains

struct Outcome {
  Cycle worker_cycles = 0;
  uint64_t waiter_uops = 0;
  uint64_t clears = 0;
  Cycle waiter_halted = 0;
};

Outcome run_experiment(WaitKind kind) {
  core::Machine m{core::MachineConfig{}};
  mem::MemoryLayout lay(0x8000);
  sync::TwoThreadBarrier bar(lay, "ab");

  // Worker: a dispatch-hungry high-IPC integer workload (the regime of the
  // paper's optimized kernels, where an active sibling costs real slots),
  // then barrier arrival (waking the sibling when it sleeps).
  AsmBuilder w("worker");
  bar.emit_init(w, IReg::R15);
  for (int c = 0; c < 6; ++c) w.imovi(isa::ireg_n(c), 0);
  w.imovi(IReg::R8, 1);
  w.imovi(IReg::R0, 0);
  isa::Label loop = w.here();
  for (int i = 0; i < 24; ++i) {
    const IReg t = isa::ireg_n(i % 6);
    w.iadd(t, t, IReg::R8);
  }
  w.iaddi(IReg::R0, IReg::R0, 24);
  w.bri(isa::BrCond::kLt, IReg::R0, kWork, loop);
  if (kind == WaitKind::kHalt) {
    bar.emit_wait_waker(w, 0, IReg::R15, IReg::R14, sync::SpinKind::kPause);
  } else if (kind != WaitKind::kNone) {
    bar.emit_wait(w, 0, IReg::R15, IReg::R14, sync::SpinKind::kPause);
  }
  w.exit();
  m.load_program(CpuId::kCpu0, w.take());

  if (kind != WaitKind::kNone) {
    AsmBuilder s("waiter");
    bar.emit_init(s, IReg::R15);
    switch (kind) {
      case WaitKind::kTight:
        bar.emit_wait(s, 1, IReg::R15, IReg::R14, sync::SpinKind::kTight);
        break;
      case WaitKind::kPause:
        bar.emit_wait(s, 1, IReg::R15, IReg::R14, sync::SpinKind::kPause);
        break;
      default:
        bar.emit_wait_sleeper(s, 1, IReg::R15, IReg::R14);
        break;
    }
    s.exit();
    m.load_program(CpuId::kCpu1, s.take());
  }

  m.run();
  const std::string key = std::string("sync.") + name(kind);
  Results::instance().put(key,
                          core::stats_from_machine(m, key, /*verified=*/true));
  Outcome o;
  o.worker_cycles = m.counters().get(CpuId::kCpu0, Event::kCyclesActive);
  o.waiter_uops = m.counters().get(CpuId::kCpu1, Event::kUopsRetired);
  o.clears = m.counters().total(Event::kMachineClears);
  o.waiter_halted = m.counters().get(CpuId::kCpu1, Event::kCyclesHalted);
  return o;
}

std::map<WaitKind, Outcome>& results() {
  static std::map<WaitKind, Outcome> r;
  return r;
}

void run_all() {
  for (WaitKind k : {WaitKind::kNone, WaitKind::kTight, WaitKind::kPause,
                     WaitKind::kHalt}) {
    results()[k] = run_experiment(k);
  }
}

void print_all() {
  const Outcome base = results().at(WaitKind::kNone);
  TextTable t({"sibling wait", "worker cycles", "slowdown vs alone",
               "waiter uops", "machine clears", "waiter halted cyc"});
  for (WaitKind k : {WaitKind::kNone, WaitKind::kTight, WaitKind::kPause,
                     WaitKind::kHalt}) {
    const Outcome& o = results().at(k);
    t.add_row({name(k), fmt_count(o.worker_cycles),
               fmt(static_cast<double>(o.worker_cycles) / base.worker_cycles,
                   3),
               fmt_count(o.waiter_uops), fmt_count(o.clears),
               fmt_count(o.waiter_halted)});
  }
  print_table("Ablation (paper 3.1): cost of an idle sibling per wait flavour",
              t);
  std::printf(
      "\nPaper shape check: tight spinning hurts the worker most and incurs\n"
      "machine clears on exit; pause reduces the waiter's uop consumption\n"
      "drastically; halting releases the partitioned resources so the\n"
      "worker runs at (nearly) stand-alone speed, paying the transition\n"
      "cost in its own wait at the end.\n");
}

}  // namespace
}  // namespace smt::bench

int main(int argc, char** argv) {
  return smt::bench::bench_main(argc, argv, smt::bench::run_all,
                                smt::bench::print_all);
}
