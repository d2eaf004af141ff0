#include "perf_probe.h"

#include <chrono>

#include "common/rng.h"

namespace smt::perf {

namespace {

constexpr uint64_t kProbeSteps = 2'500'000;

// SetupProbe: kSetupBlocks blocks of kSetupSystems 5x6 augmented systems.
constexpr int kSetupBlocks = 32;
constexpr size_t kSetupSystems = 64;
constexpr size_t kSystemWords = 30;
constexpr size_t kPageWords = 512;

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

HostProbe::HostProbe() : code_(4096), table_(size_t{1} << 15) {
  Rng rng(0x70726f6265ull);
  for (uint8_t& op : code_) op = static_cast<uint8_t>(rng.next_below(8));
  for (uint64_t& v : table_) v = rng.next_u64();
}

double HostProbe::seconds() {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const uint64_t mask = table_.size() - 1;
  size_t pc = 0;
  for (uint64_t i = 0; i < kProbeSteps; ++i) {
    uint64_t& a = r[i & 7];
    const uint64_t b = r[(i + 3) & 7];
    switch (code_[pc]) {
      case 0: a += b; break;
      case 1: a ^= b >> 3; break;
      case 2: a = table_[b & mask]; break;
      case 3: table_[a & mask] = b; break;
      case 4: if (a & 1) pc = (pc + 7) % code_.size(); break;
      case 5: a *= 0x9e3779b97f4a7c15ull; break;
      case 6: a = a < b ? r[(i + 5) & 7] : b; break;
      default: a -= 1; break;
    }
    pc = (pc + 1) % code_.size();
  }
  sink_ = r[0] ^ r[7];
  return since(t0);
}

double SetupProbe::seconds() {
  const auto t0 = std::chrono::steady_clock::now();
  block_.resize(kSetupSystems * kSystemWords);
  pages_.clear();
  Rng rng(0x7365747570ull);
  double acc = 0;
  for (int b = 0; b < kSetupBlocks; ++b) {
    // Generate diagonally dominant systems.
    for (double& v : block_) v = rng.next_double();
    for (size_t s = 0; s < block_.size(); s += kSystemWords) {
      for (size_t i = 0; i < 5; ++i) block_[s + i * 6 + i] += 5.0;
    }
    // Store them word by word through a lazily allocated page table.
    for (size_t i = 0; i < block_.size(); ++i) {
      const uint64_t word = b * block_.size() + i;
      std::unique_ptr<double[]>& page = pages_[word / kPageWords];
      if (!page) page = std::make_unique<double[]>(kPageWords);
      page[word % kPageWords] = block_[i];
    }
    // Pivot-free Gaussian elimination of each system.
    for (size_t s = 0; s < block_.size(); s += kSystemWords) {
      double* a = &block_[s];
      for (size_t k = 0; k < 5; ++k) {
        const double inv = 1.0 / a[k * 6 + k];
        for (size_t i = k + 1; i < 5; ++i) {
          const double f = a[i * 6 + k] * inv;
          for (size_t j = k; j < 6; ++j) a[i * 6 + j] -= f * a[k * 6 + j];
        }
      }
      acc += a[kSystemWords - 1];
    }
  }
  sink_ = acc;
  return since(t0);
}

}  // namespace smt::perf
