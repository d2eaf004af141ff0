// Host-speed probes. The benchmark runs on a shared host whose speed drifts
// by tens of percent over minutes while staying steady over a second or
// so, and no statistic taken within one run removes drift that outlasts
// it. So every timed unit is bracketed by a probe — a fixed amount of work
// shaped like the unit's own — and its host seconds are scaled by
// reference seconds / probe seconds: the seconds the unit would have taken
// on a host where the probe takes its reference time. README.md compares
// raw and scaled spreads.
//
// Two shapes are needed, because host contention slows them differently.
// HostProbe is interpreter-like (switch dispatch, data-dependent branches,
// loads and stores over a 256 KiB table), like the simulator's own mix;
// it scales simulation, passes and sweeps. SetupProbe is set-up-like
// (generate data, store it word by word through a hashed page table,
// dense 5x5 eliminations); on this host's slow phases set-up work slows
// about 1.6x while the interpreter-like probe slows about 1.15x, so
// set-up times are scaled by SetupProbe instead.
//
// The probes are compiled at a pinned optimization level (targets.cmake),
// so a change to the project's optimization flags does not move them.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace smt::perf {

/// HostProbe's seconds on the reference host that scaled times refer to.
inline constexpr double kProbeRefSeconds = 0.05;
/// SetupProbe's seconds on the reference host.
inline constexpr double kSetupProbeRefSeconds = 0.0005;

class HostProbe {
 public:
  HostProbe();

  /// Seconds the probe's work takes now.
  double seconds();

 private:
  std::vector<uint8_t> code_;
  std::vector<uint64_t> table_;
  volatile uint64_t sink_ = 0;  // keeps the work observable
};

class SetupProbe {
 public:
  /// Seconds the probe's work takes now.
  double seconds();

 private:
  std::unordered_map<uint64_t, std::unique_ptr<double[]>> pages_;
  std::vector<double> block_;
  volatile double sink_ = 0;
};

}  // namespace smt::perf
