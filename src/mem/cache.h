// Set-associative, write-back, write-allocate cache with true-LRU
// replacement. This class models placement/replacement state only; timing
// (latencies, MSHRs, bus occupancy) lives in CacheHierarchy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace smt::mem {

struct CacheConfig {
  std::string name = "cache";
  size_t size_bytes = 0;
  int assoc = 1;
  int line_bytes = 64;

  int num_sets() const {
    return static_cast<int>(size_bytes / (static_cast<size_t>(assoc) * line_bytes));
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  struct AccessResult {
    bool hit = false;
    bool evicted = false;        // a valid line was displaced on fill
    bool writeback = false;      // ... and it was dirty
    Addr evicted_line = 0;       // line-aligned address of the victim
  };

  /// Looks up the line containing `addr`; on a hit updates LRU and the
  /// dirty bit (if `is_write`). On a miss, allocates the line (fetching is
  /// the hierarchy's job) and reports the victim.
  AccessResult access(Addr addr, bool is_write);

  /// Lookup without allocation or LRU update (used by prefetch filtering
  /// and by tests).
  bool probe(Addr addr) const;

  /// Invalidate the line if present (returns true if it was dirty).
  bool invalidate(Addr addr);

  void flush_all();

  Addr line_of(Addr addr) const { return addr & ~static_cast<Addr>(cfg_.line_bytes - 1); }
  const CacheConfig& config() const { return cfg_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Way {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    uint64_t lru = 0;  // last-touch stamp; smallest = LRU victim
  };

  // line_bytes and the set count are powers of two (checked at
  // construction), so the set index is a shift and a mask.
  int set_of(Addr line) const {
    return static_cast<int>((line >> line_shift_) & set_mask_);
  }

  CacheConfig cfg_;
  int line_shift_ = 0;
  Addr set_mask_ = 0;      // set count - 1
  std::vector<Way> ways_;  // set count * assoc, row-major by set
  uint64_t stamp_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace smt::mem
