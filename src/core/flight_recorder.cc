#include "core/flight_recorder.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/machine.h"
#include "core/workload.h"
#include "isa/disasm.h"
#include "mem/sim_memory.h"

namespace smt::core {

void FlightRecorder::on_retire(CpuId cpu, const cpu::DynUop& uop,
                               int /*uops*/, Cycle now) {
  recent_[idx(cpu)].push({now, uop.pc});
  // Snapshot both contexts on a global cycle grid (not per-CPU retirement
  // counts), so the sampling points are deterministic and shared.
  if (now >= next_snapshot_at_) {
    for (int i = 0; i < kNumLogicalCpus; ++i) {
      const CpuId c = static_cast<CpuId>(i);
      snaps_[i].push({now, core_.snapshot_thread(c)});
    }
    next_snapshot_at_ = now + kSnapshotPeriod;
  }
}

std::vector<FlightRecorder::RetiredEntry> FlightRecorder::recent(
    CpuId cpu) const {
  return recent_[idx(cpu)].in_order();
}

std::vector<FlightRecorder::OccupancySnapshot> FlightRecorder::snapshots(
    CpuId cpu) const {
  return snaps_[idx(cpu)].in_order();
}

namespace {

/// Disassembly of static instruction `pc` of `prog`, or a placeholder when
/// the program is unknown / the pc is out of range (an exited context's
/// next_pc is one past the end).
std::string disasm_at(const isa::Program* prog, uint32_t pc) {
  if (prog == nullptr || pc >= prog->size()) return "<none>";
  return isa::disasm(prog->at(pc));
}

/// The innermost spin-annotated sync region containing `pc`, if any.
const isa::SyncRegion* spin_region_at(const isa::Program* prog, uint32_t pc) {
  if (prog == nullptr) return nullptr;
  const isa::SyncRegion* best = nullptr;
  for (const isa::SyncRegion& r : prog->sync_regions()) {
    if (!r.is_spin || pc < r.begin || pc >= r.end) continue;
    if (best == nullptr || r.end - r.begin < best->end - best->begin) best = &r;
  }
  return best;
}

bool is_halt_wait(const std::string& mode) {
  return mode == "halted" || mode == "halting" || mode == "enter_halt";
}

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

std::string core_dump_json(const Machine& m, const FlightRecorder& fr,
                           const MemInfo& mem, const std::string& workload,
                           const std::string& outcome,
                           const std::string& message) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "smt-core-dump/1");
  w.kv("workload", workload);
  w.kv("outcome", outcome);
  w.kv("message", message);
  w.kv("cycle", static_cast<uint64_t>(m.cycles()));

  struct WaitState {
    std::string kind = "none";  // "halt" | "spin" | "none"
    std::string what;           // spin-region emitter name
  };
  std::array<WaitState, kNumLogicalCpus> waits;

  w.key("cpus");
  w.begin_array();
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const CpuId cpu = static_cast<CpuId>(i);
    const cpu::Core::ThreadSnapshot snap = m.core().snapshot_thread(cpu);
    const cpu::ArchState& arch = m.core().arch(cpu);
    const isa::Program* prog = fr.program(cpu);

    const std::string mode = snap.mode;
    WaitState& wait = waits[i];
    if (is_halt_wait(mode)) {
      wait.kind = "halt";
    } else if (const isa::SyncRegion* r = spin_region_at(prog, snap.next_pc);
               mode == "running" && r != nullptr) {
      wait.kind = "spin";
      wait.what = r->what;
    }

    w.begin_object();
    w.kv("cpu", i);
    w.kv("mode", mode);
    w.kv("pc", static_cast<uint64_t>(snap.next_pc));
    w.kv("disasm", disasm_at(prog, snap.next_pc));
    w.kv("rob", static_cast<uint64_t>(snap.rob_occupancy));
    w.kv("uop_queue", static_cast<uint64_t>(snap.uq_occupancy));
    w.kv("load_queue", snap.lq_used);
    w.kv("store_buffer", snap.sb_used);
    w.kv("ipi_pending", snap.ipi_pending);
    w.key("wait");
    w.begin_object();
    w.kv("kind", wait.kind);
    if (!wait.what.empty()) w.kv("what", wait.what);
    w.end_object();
    w.key("iregs");
    w.begin_array();
    for (const int64_t v : arch.iregs) w.value(v);
    w.end_array();
    w.key("fregs");
    w.begin_array();
    for (const double v : arch.fregs) w.value(finite_or_zero(v));
    w.end_array();
    w.key("recent_retired");
    w.begin_array();
    for (const FlightRecorder::RetiredEntry& e : fr.recent(cpu)) {
      w.begin_object();
      w.kv("cycle", static_cast<uint64_t>(e.cycle));
      w.kv("pc", static_cast<uint64_t>(e.pc));
      w.kv("disasm", disasm_at(prog, e.pc));
      w.end_object();
    }
    w.end_array();
    w.key("snapshots");
    w.begin_array();
    for (const FlightRecorder::OccupancySnapshot& s : fr.snapshots(cpu)) {
      w.begin_object();
      w.kv("cycle", static_cast<uint64_t>(s.cycle));
      w.kv("mode", s.state.mode);
      w.kv("rob", static_cast<uint64_t>(s.state.rob_occupancy));
      w.kv("uop_queue", static_cast<uint64_t>(s.state.uq_occupancy));
      w.kv("load_queue", s.state.lq_used);
      w.kv("store_buffer", s.state.sb_used);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  // Values of every declared sync word at the moment of death — the
  // ground truth of "who was supposed to flip what".
  w.key("sync_words");
  w.begin_array();
  for (const mem::MemoryLayout::Region& r : mem.sync) {
    for (Addr a = r.base; a + 8 <= r.base + r.bytes; a += 8) {
      w.begin_object();
      w.kv("region", r.name);
      w.kv("addr", static_cast<uint64_t>(a));
      w.kv("value", m.memory().read_u64(a));
      w.end_object();
    }
  }
  w.end_array();

  // Wait-for edges: a waiting context can only be released by its sibling
  // (the package has two logical CPUs; IPIs and sync-word stores are the
  // only wake mechanisms). Both contexts waiting = the classic lost
  // wake-up cycle.
  w.key("wait_for");
  w.begin_array();
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    if (waits[i].kind == "none") continue;
    const int sib = 1 - i;
    w.begin_object();
    w.kv("from", i);
    w.kv("to", sib);
    const std::string why =
        waits[i].kind == "halt"
            ? std::string("awaiting IPI")
            : "spinning on sync word (" + waits[i].what + ")";
    w.kv("why", why);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

}  // namespace smt::core
