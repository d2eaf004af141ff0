// PipeViewRecorder: per-uop pipeline lifetime traces in Kanata format.
//
// A client of the core's observer bus (cpu/observer.h): it stamps every
// dynamic uop at each stage boundary — fetch, dispatch (allocation into
// the ROB), issue (port reservation) and retire — and serializes the lifetimes as a Kanata 0004 log, the
// format the Konata pipeline viewer renders: one lane per uop, stages
// F → Ds → X → Cm → retire, lanes colored by logical CPU (Kanata's thread
// id), with the issue port in the mouse-over label. SMT port stealing is
// directly visible as sibling-colored uops occupying X on the cycle a
// stalled uop sits in Ds.
//
// Recording is bounded two ways: only uops fetched inside the configured
// cycle window [begin, end] are captured (and only those that also retire
// by `end` are emitted, so every cycle in the file is <= end), and a
// max_uops cap backstops memory on dense windows. The core assigns uids
// consecutively at fetch and raises on_fetch for every one, so the
// captured uids are one run and a record is found by its offset from the
// first. Like the other trace instruments the recorder is a pure
// observer — uop ids advance in the core whether or not one is attached,
// so attaching never perturbs a counter or a simulation artifact
// (asserted byte-for-byte by the sweep smoke test's --pipeview run).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "cpu/observer.h"
#include "isa/program.h"

namespace smt::trace {

/// Capture bounds for the pipeline trace.
struct PipeViewConfig {
  Cycle begin = 0;          ///< first cycle at which fetches are captured
  Cycle end = 100'000;      ///< last cycle; uops retiring later are dropped
  size_t max_uops = 1u << 20;  ///< memory backstop on dense windows
};

class PipeViewRecorder final : public cpu::PipelineObserver {
 public:
  explicit PipeViewRecorder(const PipeViewConfig& cfg = {}) : cfg_(cfg) {}

  /// Registers the program bound to `cpu` so emitted labels carry its
  /// disassembly. Stored by value: the recorder is shared out through
  /// RunStats and routinely outlives the Machine (and its programs) —
  /// the sweep serializes Kanata only after try_run_workload returns.
  void set_program(CpuId cpu, const isa::Program& prog) {
    progs_[idx(cpu)] = prog;
  }

  // --- observer-bus hooks: the four stage stamps --------------------------
  void on_fetch(CpuId cpu, const cpu::DynUop& uop, Cycle now) override;
  void on_dispatch(CpuId cpu, const cpu::DynUop& uop, Cycle now) override;
  void on_issue(CpuId cpu, const cpu::DynUop& uop, int port, Cycle done,
                Cycle now) override;
  void on_retire(CpuId cpu, const cpu::DynUop& uop, int uops,
                 Cycle now) override;

  /// Serializes the captured lifetimes as a Kanata 0004 log. Only uops
  /// with a complete fetch→retire lifetime inside the window are emitted.
  std::string to_kanata() const;

  const PipeViewConfig& config() const { return cfg_; }
  size_t captured() const { return recs_.size(); }
  /// Uops seen inside the window but not captured (max_uops backstop).
  uint64_t dropped() const { return dropped_; }

 private:
  struct UopRecord {
    uint64_t uid = 0;
    uint32_t pc = 0;
    uint8_t cpu = 0;
    int8_t port = -1;
    bool has_dispatch = false;
    bool has_issue = false;
    bool has_retire = false;
    Cycle fetch = 0;
    Cycle dispatch = 0;
    Cycle issue = 0;
    Cycle done = 0;
    Cycle retire = 0;
  };

  /// The record of `uid`, or null when it was not captured: one range
  /// check, since recs_[i] holds uid first_uid_ + i.
  UopRecord* find(uint64_t uid) {
    const uint64_t i = uid - first_uid_;
    return i < recs_.size() ? &recs_[i] : nullptr;
  }

  PipeViewConfig cfg_;
  std::array<std::optional<isa::Program>, kNumLogicalCpus> progs_{};
  std::vector<UopRecord> recs_;
  uint64_t first_uid_ = 0;  // uid of recs_.front()
  uint64_t dropped_ = 0;
};

/// to_kanata() to `path` via write_text_file (parent dirs created).
bool write_kanata_file(const PipeViewRecorder& pv, const std::string& path);

}  // namespace smt::trace
