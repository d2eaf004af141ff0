// Functional backing store for the simulated 64-bit address space.
//
// Pages are allocated lazily so kernels can lay out multi-megabyte arrays
// without committing host memory for untouched gaps. All simulated loads
// and stores move aligned 64-bit words: the kernels use double for fp data
// and int64 for indices/flags, which keeps the functional model trivial
// while preserving the cache-footprint ratios that matter to the paper
// (one matrix element == one 8-byte word == 8 elements per 64-byte line).
#pragma once

#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace smt::mem {

class SimMemory {
 public:
  static constexpr size_t kPageBytes = 1 << 16;  // 64 KiB

  SimMemory() = default;
  SimMemory(const SimMemory&) = delete;
  SimMemory& operator=(const SimMemory&) = delete;

  uint64_t read_u64(Addr a) const;
  void write_u64(Addr a, uint64_t v);

  double read_f64(Addr a) const;
  void write_f64(Addr a, double v);

  int64_t read_i64(Addr a) const {
    return static_cast<int64_t>(read_u64(a));
  }
  void write_i64(Addr a, int64_t v) {
    write_u64(a, static_cast<uint64_t>(v));
  }

  /// Atomic (simulation-level) exchange, for the xchg instruction.
  uint64_t exchange_u64(Addr a, uint64_t v);

  // Bulk helpers for host-side workload setup / verification.
  void store_f64_array(Addr base, std::span<const double> values);
  void load_f64_array(Addr base, std::span<double> out) const;
  void store_i64_array(Addr base, std::span<const int64_t> values);
  void fill_f64(Addr base, size_t count, double v);

  size_t num_pages() const { return pages_.size(); }

 private:
  uint8_t* page_for(Addr a);
  const uint8_t* page_for(Addr a) const;  // nullptr if never written

  mutable std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;
  // The last page either page_for found or made: its index and bytes.
  // Pages are never freed, so the pointer stays valid; it is never null
  // (a const read of a never-written page does not update the memo).
  // Const reads write it, so one SimMemory must not be read from two
  // threads at once.
  mutable uint64_t memo_index_ = std::numeric_limits<uint64_t>::max();
  mutable uint8_t* memo_page_ = nullptr;
};

/// Bump allocator carving named regions out of the simulated address space.
/// Regions are cache-line aligned by default; an extra pad of one line
/// between regions prevents accidental false line sharing between logically
/// distinct arrays (which would perturb miss counts).
class MemoryLayout {
 public:
  explicit MemoryLayout(Addr base = 0x10000, size_t line_bytes = 64)
      : next_(base), line_(line_bytes) {}

  /// Reserve `bytes` with alignment `align` (>= 8, power of two).
  Addr alloc(std::string name, size_t bytes, size_t align = 64);

  /// Reserve an array of `count` 8-byte words.
  Addr alloc_words(std::string name, size_t count, size_t align = 64) {
    return alloc(std::move(name), count * 8, align);
  }

  struct Region {
    std::string name;
    Addr base;
    size_t bytes;
  };
  const std::vector<Region>& regions() const { return regions_; }

  /// Total bytes reserved so far (for working-set documentation).
  size_t total_bytes() const { return total_; }

 private:
  Addr next_;
  size_t line_;
  size_t total_ = 0;
  std::vector<Region> regions_;
};

}  // namespace smt::mem
