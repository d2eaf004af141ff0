// Unit tests for the memory system: backing store, caches, timed hierarchy.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/sim_memory.h"

namespace smt::mem {
namespace {

TEST(SimMemory, ReadWriteRoundTrip) {
  SimMemory m;
  m.write_u64(0x1000, 0xdeadbeefcafef00dull);
  EXPECT_EQ(m.read_u64(0x1000), 0xdeadbeefcafef00dull);
  m.write_f64(0x1008, 3.25);
  EXPECT_DOUBLE_EQ(m.read_f64(0x1008), 3.25);
  m.write_i64(0x1010, -17);
  EXPECT_EQ(m.read_i64(0x1010), -17);
}

TEST(SimMemory, UntouchedMemoryReadsZero) {
  SimMemory m;
  EXPECT_EQ(m.read_u64(0x123450008ull), 0u);
  EXPECT_DOUBLE_EQ(m.read_f64(0x9990000), 0.0);
}

TEST(SimMemory, PagesAllocatedLazily) {
  SimMemory m;
  EXPECT_EQ(m.num_pages(), 0u);
  m.write_u64(0, 1);
  m.write_u64(SimMemory::kPageBytes * 100, 2);
  EXPECT_EQ(m.num_pages(), 2u);
  (void)m.read_u64(SimMemory::kPageBytes * 555);  // reads do not allocate
  EXPECT_EQ(m.num_pages(), 2u);
}

TEST(SimMemory, ExchangeIsAtomicSwap) {
  SimMemory m;
  m.write_u64(64, 5);
  EXPECT_EQ(m.exchange_u64(64, 9), 5u);
  EXPECT_EQ(m.read_u64(64), 9u);
}

TEST(SimMemory, ArrayHelpers) {
  SimMemory m;
  const double v[3] = {1.0, 2.0, 3.0};
  m.store_f64_array(0x2000, v);
  double out[3] = {};
  m.load_f64_array(0x2000, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 3.0);
  m.fill_f64(0x3000, 4, 7.5);
  EXPECT_DOUBLE_EQ(m.read_f64(0x3000 + 24), 7.5);
}

TEST(SimMemory, ReadOfANeverWrittenPageAllocatesNothing) {
  SimMemory m;
  const Addr written = 3 * SimMemory::kPageBytes;
  const Addr fresh = 7 * SimMemory::kPageBytes + 16;
  m.write_u64(written, 11);
  EXPECT_EQ(m.read_u64(fresh), 0u);
  EXPECT_EQ(m.read_u64(fresh + 8), 0u);  // the same page again
  EXPECT_EQ(m.num_pages(), 1u);
  // The write after the read allocates the page and is read back.
  m.write_u64(fresh, 42);
  EXPECT_EQ(m.num_pages(), 2u);
  EXPECT_EQ(m.read_u64(fresh), 42u);
  EXPECT_EQ(m.read_u64(fresh + 8), 0u);
  EXPECT_EQ(m.read_u64(written), 11u);
}

TEST(SimMemory, AlternatingPagesReturnTheirOwnWords) {
  SimMemory m;
  const Addr a = 0x10000;
  const Addr b = a + 5 * SimMemory::kPageBytes;
  for (uint64_t i = 0; i < 64; ++i) {
    m.write_u64(a + 8 * i, 1000 + i);
    m.write_u64(b + 8 * i, 2000 + i);
    EXPECT_EQ(m.read_u64(a + 8 * i), 1000 + i);
    EXPECT_EQ(m.read_u64(b + 8 * i), 2000 + i);
  }
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(m.read_u64(b + 8 * i), 2000 + i);
    EXPECT_EQ(m.read_u64(a + 8 * i), 1000 + i);
  }
  EXPECT_EQ(m.num_pages(), 2u);
}

TEST(MemoryLayout, RegionsAreLineSeparatedAndAligned) {
  MemoryLayout layout(0x10000, 64);
  const Addr a = layout.alloc("a", 8);
  const Addr b = layout.alloc("b", 8);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 64);  // no shared cache line
  EXPECT_EQ(layout.regions().size(), 2u);
  EXPECT_EQ(layout.regions()[0].name, "a");
}

TEST(MemoryLayout, AllocWords) {
  MemoryLayout layout;
  const Addr v = layout.alloc_words("vec", 1000);
  EXPECT_EQ(v % 64, 0u);
  EXPECT_EQ(layout.regions()[0].bytes, 8000u);
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

CacheConfig small_cache() {
  // 4 sets x 2 ways x 64B = 512 B.
  return {"t", 512, 2, 64};
}

TEST(Cache, HitAfterFill) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x13f, false).hit);   // same line
  EXPECT_FALSE(c.access(0x140, false).hit);  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction) {
  Cache c(small_cache());
  // Three lines mapping to set 0 (set stride = 4 lines = 256B).
  c.access(0x0000, false);
  c.access(0x0100, false);
  c.access(0x0000, false);           // touch line0: line at 0x100 is LRU
  const auto r = c.access(0x0200, false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, 0x100u);
  EXPECT_TRUE(c.probe(0x0000));
  EXPECT_FALSE(c.probe(0x0100));
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(small_cache());
  c.access(0x0000, true);  // dirty
  c.access(0x0100, false);
  const auto r = c.access(0x0200, false);  // evicts 0x0000 (LRU, dirty)
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.evicted_line, 0x0u);
}

TEST(Cache, WriteHitSetsDirty) {
  Cache c(small_cache());
  c.access(0x0000, false);
  c.access(0x0000, true);   // now dirty
  c.access(0x0100, false);
  c.access(0x0100, false);  // line0 is LRU
  const auto r = c.access(0x0200, false);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, ProbeDoesNotDisturbLru) {
  Cache c(small_cache());
  c.access(0x0000, false);
  c.access(0x0100, false);  // LRU order: 0x0000 older
  EXPECT_TRUE(c.probe(0x0000));
  // probe must not refresh 0x0000: it is still the victim.
  const auto r = c.access(0x0200, false);
  EXPECT_EQ(r.evicted_line, 0x0u);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(small_cache());
  c.access(0x40, true);
  EXPECT_TRUE(c.invalidate(0x40));  // was dirty
  EXPECT_FALSE(c.probe(0x40));
  EXPECT_FALSE(c.invalidate(0x40));
}

TEST(Cache, FlushAllEmptiesEverySet) {
  Cache c(small_cache());
  for (Addr a = 0; a < 512; a += 64) c.access(a, false);
  c.flush_all();
  for (Addr a = 0; a < 512; a += 64) EXPECT_FALSE(c.probe(a));
}

/// A reference set-associative LRU cache that finds a line's set with `/`
/// and `%`: per set, its lines from least to most recently used.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : cfg_(cfg), sets_(static_cast<size_t>(cfg.num_sets())) {}

  Cache::AccessResult access(Addr addr, bool is_write) {
    const Addr line = addr / cfg_.line_bytes * cfg_.line_bytes;
    auto& set = sets_[(line / cfg_.line_bytes) % sets_.size()];
    Cache::AccessResult r;
    for (size_t i = 0; i < set.size(); ++i) {
      if (set[i].line == line) {
        Entry e = set[i];
        e.dirty = e.dirty || is_write;
        set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
        set.push_back(e);
        r.hit = true;
        return r;
      }
    }
    if (set.size() == static_cast<size_t>(cfg_.assoc)) {
      r.evicted = true;
      r.writeback = set.front().dirty;
      r.evicted_line = set.front().line;
      set.erase(set.begin());
    }
    set.push_back({line, is_write});
    return r;
  }

 private:
  struct Entry {
    Addr line;
    bool dirty;
  };
  CacheConfig cfg_;
  std::vector<std::vector<Entry>> sets_;
};

TEST(Cache, SetIndexingMatchesADivideAndModuloReference) {
  const CacheConfig geometries[] = {
      {"one-set", 128, 2, 64},       // 1 set
      {"32b-lines", 256, 2, 32},     // 4 sets of 32-byte lines
      {"many-sets", 4096, 2, 32},    // 64 sets
  };
  for (const CacheConfig& g : geometries) {
    SCOPED_TRACE(g.name);
    Cache c(g);
    ReferenceCache ref(g);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    int hits = 0;
    int evictions = 0;
    for (int i = 0; i < 4000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      // Addresses over 16x the cache, byte-granular, so lines, sets and
      // tags all vary.
      const Addr addr = (x >> 20) % (16 * g.size_bytes);
      const bool write = ((x >> 7) & 3) == 0;
      const Cache::AccessResult got = c.access(addr, write);
      const Cache::AccessResult want = ref.access(addr, write);
      ASSERT_EQ(got.hit, want.hit) << "access " << i;
      ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
      ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
      ASSERT_EQ(got.evicted_line, want.evicted_line) << "access " << i;
      hits += got.hit ? 1 : 0;
      evictions += got.evicted ? 1 : 0;
    }
    EXPECT_GT(hits, 0);
    EXPECT_GT(evictions, 0);
  }
}

// ---------------------------------------------------------------------------
// Hierarchy timing
// ---------------------------------------------------------------------------

HierConfig tiny_hier() {
  HierConfig h;
  h.l1 = {"L1", 1024, 2, 64};
  h.l2 = {"L2", 8192, 4, 64};
  h.l1_hit_lat = 3;
  h.l2_hit_lat = 18;
  h.mem_lat = 200;
  h.num_mshrs = 2;
  h.bus_cycles_per_line = 10;
  return h;
}

TEST(Hierarchy, LatencyLadder) {
  CacheHierarchy h(tiny_hier());
  // Cold: memory access.
  auto r0 = h.access(0x1000, false, CpuId::kCpu0, 0);
  EXPECT_EQ(r0.served_by, ServedBy::kMemory);
  EXPECT_TRUE(r0.l2_miss);
  EXPECT_EQ(r0.ready, 200u);  // bus grant at 0 + memory latency

  // Warm L1 (after fill completes).
  auto r1 = h.access(0x1000, false, CpuId::kCpu0, 300);
  EXPECT_EQ(r1.served_by, ServedBy::kL1);
  EXPECT_EQ(r1.ready, 303u);

  // L2 hit: evict from tiny L1 by touching other sets... use a line that
  // maps to the same L1 set (L1 set stride = 8 lines = 512B).
  h.access(0x1200, false, CpuId::kCpu0, 600);
  h.access(0x1400, false, CpuId::kCpu0, 900);
  auto r2 = h.access(0x1000, false, CpuId::kCpu0, 1500);
  EXPECT_EQ(r2.served_by, ServedBy::kL2);
  EXPECT_EQ(r2.ready, 1518u);
}

TEST(Hierarchy, InFlightMissesMerge) {
  CacheHierarchy h(tiny_hier());
  auto r0 = h.access(0x1000, false, CpuId::kCpu0, 0);
  auto r1 = h.access(0x1008, false, CpuId::kCpu1, 5);  // same line, in flight
  EXPECT_EQ(r1.served_by, ServedBy::kInFlight);
  EXPECT_EQ(r1.ready, r0.ready);
  // Only one bus-level miss counted.
  EXPECT_EQ(h.stats(CpuId::kCpu0).l2_misses, 1u);
  EXPECT_EQ(h.stats(CpuId::kCpu1).l2_misses, 0u);
  // But the second access was not an L1 hit.
  EXPECT_EQ(h.stats(CpuId::kCpu1).l1_misses, 1u);
}

TEST(Hierarchy, MshrsLimitMemoryParallelism) {
  CacheHierarchy h(tiny_hier());  // 2 MSHRs
  auto r0 = h.access(0x10000, false, CpuId::kCpu0, 0);
  auto r1 = h.access(0x20000, false, CpuId::kCpu0, 0);
  auto r2 = h.access(0x30000, false, CpuId::kCpu0, 0);
  EXPECT_GT(r1.ready, r0.ready);  // bus serialization already orders them
  // The third miss cannot even start until an MSHR frees.
  EXPECT_GE(r2.ready, r0.ready + 200);
}

TEST(Hierarchy, StoreMissCountsAsMissButNotReadMiss) {
  CacheHierarchy h(tiny_hier());
  h.access(0x5000, true, CpuId::kCpu0, 0);
  EXPECT_EQ(h.stats(CpuId::kCpu0).l2_misses, 1u);
  EXPECT_EQ(h.stats(CpuId::kCpu0).l2_read_misses, 0u);
}

TEST(Hierarchy, PrefetchFillsL2) {
  CacheHierarchy h(tiny_hier());
  const Cycle ready = h.prefetch(0x7000, false, CpuId::kCpu1, 0);
  EXPECT_GT(ready, 0u);
  EXPECT_EQ(h.stats(CpuId::kCpu1).prefetches, 1u);
  EXPECT_EQ(h.stats(CpuId::kCpu1).prefetch_fills, 1u);
  // After the fill, a demand access is an L2 hit (prefetch skipped L1).
  auto r = h.access(0x7000, false, CpuId::kCpu0, ready + 1);
  EXPECT_EQ(r.served_by, ServedBy::kL2);
  // The demand access after a prefetch is NOT a bus-level miss.
  EXPECT_EQ(h.stats(CpuId::kCpu0).l2_misses, 0u);
}

TEST(Hierarchy, PrefetchToL1) {
  CacheHierarchy h(tiny_hier());
  const Cycle ready = h.prefetch(0x7000, true, CpuId::kCpu1, 0);
  auto r = h.access(0x7000, false, CpuId::kCpu0, ready + 1);
  EXPECT_EQ(r.served_by, ServedBy::kL1);
}

TEST(Hierarchy, RedundantPrefetchDoesNotRefetch) {
  CacheHierarchy h(tiny_hier());
  h.prefetch(0x7000, false, CpuId::kCpu0, 0);
  h.prefetch(0x7000, false, CpuId::kCpu0, 500);
  EXPECT_EQ(h.stats(CpuId::kCpu0).prefetches, 2u);
  EXPECT_EQ(h.stats(CpuId::kCpu0).prefetch_fills, 1u);
}

TEST(Hierarchy, QueuedPrefetchFillsDelayALaterDemandMissByTheirBusTime) {
  // Prefetch fills reserve the front-side bus even when every MSHR is
  // busy, so k of them issued back to back push a later demand miss out by
  // about k bus transfers. This pins the current model (a model question,
  // not a requirement): a burst of software prefetches can hold off a
  // sibling's demand miss for thousands of cycles.
  const HierConfig cfg;  // default: 8 MSHRs, 40 bus cycles per line
  const Cycle bus = cfg.bus_cycles_per_line;
  const Addr demand = 0x4000000;
  const Cycle alone =
      CacheHierarchy(cfg).access(demand, false, CpuId::kCpu0, 1).ready;
  for (const int k : {8, 32, 128}) {
    SCOPED_TRACE(testing::Message() << k << " prefetches");
    CacheHierarchy h(cfg);
    for (int i = 0; i < k; ++i) {
      h.prefetch(0x100000 + static_cast<Addr>(i) * 4096, false,
                 CpuId::kCpu1, 0);
    }
    const Cycle delayed = h.access(demand, false, CpuId::kCpu0, 1).ready;
    EXPECT_GE(delayed, alone + static_cast<Cycle>(k - 1) * bus);
    EXPECT_LE(delayed, alone + static_cast<Cycle>(k + 1) * bus);
  }
}

TEST(Hierarchy, PerPcMissAttribution) {
  CacheHierarchy h(tiny_hier());
  h.set_track_pc_misses(true);
  h.access(0x10000, false, CpuId::kCpu0, 0, /*pc=*/7);
  h.access(0x20000, false, CpuId::kCpu0, 0, /*pc=*/7);
  h.access(0x30000, false, CpuId::kCpu0, 1000, /*pc=*/9);
  const auto& m = h.pc_l2_misses(CpuId::kCpu0);
  EXPECT_EQ(m.at(7), 2u);
  EXPECT_EQ(m.at(9), 1u);
}

TEST(Hierarchy, ResetStatsClearsCounters) {
  CacheHierarchy h(tiny_hier());
  h.access(0x1000, false, CpuId::kCpu0, 0);
  h.reset_stats();
  EXPECT_EQ(h.stats(CpuId::kCpu0).accesses, 0u);
  EXPECT_EQ(h.stats(CpuId::kCpu0).l2_misses, 0u);
}

}  // namespace
}  // namespace smt::mem
