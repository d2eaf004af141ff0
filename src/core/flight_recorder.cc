#include "core/flight_recorder.h"

#include <cmath>
#include <string>
#include <vector>

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

constexpr char kSchema[] = "smt-core-dump/1";

}  // namespace

std::string core_dump_json(const Machine& m, const FlightRecorder& fr,
                           const MemInfo& mem, const std::string& workload,
                           const std::string& outcome,
                           const std::string& message) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kSchema);
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

std::optional<std::string> check_core_dump(const JsonValue& dump) {
  const JsonValue* schema = dump.find("schema");
  if (schema == nullptr || schema->string != kSchema) {
    return "missing/unknown schema";
  }
  const JsonValue* outcome = dump.find("outcome");
  if (outcome == nullptr || !outcome->is_string() ||
      (outcome->string != "deadlock" &&
       outcome->string != "cycle_budget_exceeded" &&
       outcome->string != "race_detected")) {
    return "missing/unknown outcome";
  }
  if (dump.find("workload") == nullptr || dump.find("message") == nullptr ||
      !has_number(dump, "cycle")) {
    return "missing workload/message/cycle";
  }
  const double cycle = dump.find("cycle")->number;
  const JsonValue* cpus = dump.find("cpus");
  if (cpus == nullptr || !cpus->is_array() ||
      cpus->array.size() != static_cast<size_t>(kNumLogicalCpus)) {
    return "\"cpus\" is not a " + std::to_string(kNumLogicalCpus) +
           "-entry array";
  }
  for (size_t i = 0; i < cpus->array.size(); ++i) {
    const JsonValue& c = cpus->array[i];
    const std::string cpu = "cpu" + std::to_string(i) + " ";
    const JsonValue* mode = c.find("mode");
    const JsonValue* wait = c.find("wait");
    const JsonValue* iregs = c.find("iregs");
    const JsonValue* fregs = c.find("fregs");
    const JsonValue* recent = c.find("recent_retired");
    const JsonValue* snaps = c.find("snapshots");
    if (mode == nullptr || !mode->is_string() || !has_number(c, "pc") ||
        c.find("disasm") == nullptr || !has_number(c, "rob") ||
        !has_number(c, "uop_queue") || !has_number(c, "load_queue") ||
        !has_number(c, "store_buffer") || wait == nullptr ||
        !wait->is_object() || iregs == nullptr || !iregs->is_array() ||
        fregs == nullptr || !fregs->is_array() || recent == nullptr ||
        !recent->is_array() || snaps == nullptr || !snaps->is_array()) {
      return cpu + "entry malformed";
    }
    const JsonValue* kind = wait->find("kind");
    if (kind == nullptr || !kind->is_string() ||
        (kind->string != "halt" && kind->string != "spin" &&
         kind->string != "none")) {
      return cpu + "wait.kind malformed";
    }
    double prev = -1.0;
    for (const JsonValue& e : recent->array) {
      if (!has_number(e, "cycle") || !has_number(e, "pc") ||
          e.find("disasm") == nullptr) {
        return cpu + "recent_retired entry malformed";
      }
      const double ecycle = e.find("cycle")->number;
      if (ecycle < prev || ecycle > cycle) {
        return cpu + "recent_retired cycles not monotonic within the run";
      }
      prev = ecycle;
    }
  }
  const JsonValue* sync_words = dump.find("sync_words");
  const JsonValue* wait_for = dump.find("wait_for");
  if (sync_words == nullptr || !sync_words->is_array() ||
      wait_for == nullptr || !wait_for->is_array()) {
    return "missing sync_words/wait_for arrays";
  }
  for (const JsonValue& e : wait_for->array) {
    const JsonValue* why = e.find("why");
    if (!has_number(e, "from") || !has_number(e, "to") || why == nullptr ||
        !why->is_string()) {
      return "malformed wait_for edge";
    }
  }
  return std::nullopt;
}

}  // namespace smt::core
