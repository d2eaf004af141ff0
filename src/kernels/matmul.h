// Tiled Matrix Multiplication with Blocked Array Layouts (paper §5.1.i).
//
// C = A * B on n x n doubles stored in blocked layout (tile order `tile`,
// chosen so one tile triple fits L1), with element addresses computed by
// binary masks (shift/OR), reproducing the ~25% logical-op dynamic mix of
// Table 1. Five execution variants, exactly the paper's:
//
//   kSerial        one thread, fully tiled, the optimized baseline
//   kTlpFine       both threads sweep the same tiles; consecutive elements
//                  of a C-tile row are assigned to threads circularly
//   kTlpCoarse     consecutive C tiles are assigned to threads circularly
//   kTlpPfetch     pure SPR: worker runs the serial code, the sibling
//                  prefetches the next precomputation span's A/B tiles,
//                  throttled by barriers (§3.2)
//   kTlpPfetchWork hybrid: fine-grained partitioning + one thread also
//                  prefetches the next span
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/workload.h"
#include "kernels/layouts.h"
#include "mem/sim_memory.h"
#include "sync/primitives.h"

namespace smt::kernels {

enum class MmMode {
  kSerial,
  kTlpFine,
  kTlpCoarse,
  kTlpPfetch,
  kTlpPfetchWork,
};

const char* name(MmMode m);

struct MatMulParams {
  size_t n = 64;        // matrix order (power of two)
  size_t tile = 16;     // tile order (power of two; 3 tiles fit L1)
  MmMode mode = MmMode::kSerial;
  uint64_t seed = 42;
  sync::SpinKind spin = sync::SpinKind::kPause;
  /// Base of this workload's simulated-memory window (data) and of its
  /// synchronization variables; override to co-locate two workloads on
  /// one machine without aliasing (see host::MultiprogWorkload).
  Addr mem_base = 0x10000;
  Addr sync_base = 0x8000;
  /// Use halt/IPI sleeper barriers for the prefetcher's long-duration
  /// barrier waits instead of pause spinning (§3.1's selective halting).
  bool halt_barriers = false;
};

class MatMulWorkload : public core::Workload {
 public:
  explicit MatMulWorkload(const MatMulParams& p);

  const std::string& name() const override { return name_; }
  void setup(core::Machine& m) override;
  std::vector<isa::Program> programs() const override;
  bool verify(const core::Machine& m) const override;
  core::MemInfo mem_info() const override;

  /// Useful-arithmetic count, for MFLOP-style normalization: 2*n^3.
  uint64_t flops() const;
  const MatMulParams& params() const { return p_; }

 private:
  MatMulParams p_;
  std::string name_;
  BlockedLayout layout_;
  Addr a_base_ = 0, b_base_ = 0, c_base_ = 0;
  std::vector<mem::MemoryLayout::Region> data_regions_;
  std::vector<double> host_a_, host_b_, host_c_;  // reference data
  std::vector<isa::Program> programs_;
  std::unique_ptr<mem::MemoryLayout> sync_layout_;
  std::unique_ptr<sync::TwoThreadBarrier> barrier_;
};

}  // namespace smt::kernels
