#include "core/machine.h"

#include "common/check.h"

namespace smt::core {

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg),
      hierarchy_(cfg.mem),
      core_(cfg.core, hierarchy_, memory_, counters_) {
  if (trace::global_telemetry().enabled) {
    enable_telemetry(trace::global_telemetry());
  } else if (trace::global_telemetry().pc_profile) {
    enable_pc_profiler();
  }
  if (trace::global_telemetry().interference) enable_interference();
  if (trace::global_telemetry().pipeview) {
    enable_pipeview({.begin = trace::global_telemetry().pipeview_begin,
                     .end = trace::global_telemetry().pipeview_end});
  }
}

void Machine::enable_telemetry(const trace::TelemetryConfig& cfg) {
  SMT_CHECK_MSG(telemetry_ == nullptr, "telemetry already enabled");
  telemetry_ =
      std::make_shared<trace::Telemetry>(cfg, counters_, core_.now());
  core_.add_observer(&telemetry_->recorder());
  core_.set_sampler(&telemetry_->sampler());
  if (cfg.pc_profile && pc_profiler_ == nullptr) enable_pc_profiler();
}

void Machine::enable_pc_profiler() {
  SMT_CHECK_MSG(pc_profiler_ == nullptr, "pc profiler already enabled");
  pc_profiler_ = std::make_shared<profile::PcProfiler>();
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    if (programs_[i].has_value()) {
      pc_profiler_->set_program(static_cast<CpuId>(i), *programs_[i]);
    }
  }
  core_.add_observer(pc_profiler_.get());
}

void Machine::enable_race_detector() {
  SMT_CHECK_MSG(race_detector_ == nullptr, "race detector already enabled");
  race_detector_ = std::make_shared<analysis::RaceDetector>();
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    if (programs_[i].has_value()) {
      race_detector_->set_program(static_cast<CpuId>(i), *programs_[i]);
    }
  }
  core_.add_observer(race_detector_.get());
}

void Machine::enable_interference() {
  SMT_CHECK_MSG(interference_ == nullptr,
                "interference profiler already enabled");
  interference_ = std::make_shared<profile::InterferenceProfiler>();
  hierarchy_.set_track_interference(true);
  core_.add_observer(interference_.get());
}

void Machine::finalize_interference() const {
  if (interference_ == nullptr) return;
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const CpuId cpu = static_cast<CpuId>(i);
    interference_->set_l2_sibling_evictions(
        cpu, hierarchy_.sibling_eviction_misses(cpu));
  }
}

void Machine::enable_pipeview(const trace::PipeViewConfig& cfg) {
  SMT_CHECK_MSG(pipeview_ == nullptr, "pipeview recorder already enabled");
  pipeview_ = std::make_shared<trace::PipeViewRecorder>(cfg);
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    if (programs_[i].has_value()) {
      pipeview_->set_program(static_cast<CpuId>(i), *programs_[i]);
    }
  }
  core_.add_observer(pipeview_.get());
}

void Machine::enable_flight_recorder() {
  SMT_CHECK_MSG(flight_recorder_ == nullptr,
                "flight recorder already enabled");
  flight_recorder_ = std::make_shared<FlightRecorder>(core_);
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    if (programs_[i].has_value()) {
      flight_recorder_->set_program(static_cast<CpuId>(i), *programs_[i]);
    }
  }
  core_.add_observer(flight_recorder_.get());
}

void Machine::load_program(CpuId cpu, isa::Program prog,
                           const cpu::ArchState& init) {
  auto& slot = programs_[idx(cpu)];
  SMT_CHECK_MSG(!slot.has_value(), "logical CPU already has a program");
  slot.emplace(std::move(prog));
  core_.load_program(cpu, *slot, init);
  if (pc_profiler_ != nullptr) pc_profiler_->set_program(cpu, *slot);
  if (race_detector_ != nullptr) race_detector_->set_program(cpu, *slot);
  if (pipeview_ != nullptr) pipeview_->set_program(cpu, *slot);
  if (flight_recorder_ != nullptr) flight_recorder_->set_program(cpu, *slot);
}

}  // namespace smt::core
