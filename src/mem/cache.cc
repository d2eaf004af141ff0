#include "mem/cache.h"

#include <bit>

namespace smt::mem {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  const int num_sets = cfg_.num_sets();
  SMT_CHECK_MSG(cfg_.line_bytes > 0 && (cfg_.line_bytes & (cfg_.line_bytes - 1)) == 0,
                "line size must be a power of two");
  SMT_CHECK_MSG(cfg_.assoc >= 1, "associativity must be >= 1");
  SMT_CHECK_MSG(num_sets >= 1 && (num_sets & (num_sets - 1)) == 0,
                "set count must be a power of two >= 1");
  line_shift_ = std::countr_zero(static_cast<unsigned>(cfg_.line_bytes));
  set_mask_ = static_cast<Addr>(num_sets - 1);
  ways_.resize(static_cast<size_t>(num_sets) * cfg_.assoc);
}

Cache::AccessResult Cache::access(Addr addr, bool is_write) {
  const Addr line = line_of(addr);
  const int set = set_of(line);
  Way* base = &ways_[static_cast<size_t>(set) * cfg_.assoc];
  ++stamp_;

  Way* victim = nullptr;
  for (int w = 0; w < cfg_.assoc; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == line) {
      way.lru = stamp_;
      way.dirty = way.dirty || is_write;
      ++hits_;
      return {.hit = true};
    }
    if (victim == nullptr || !way.valid ||
        (victim->valid && way.lru < victim->lru)) {
      if (victim == nullptr || victim->valid) victim = &way;
    }
  }

  ++misses_;
  AccessResult r;
  if (victim->valid) {
    r.evicted = true;
    r.writeback = victim->dirty;
    r.evicted_line = victim->tag;
  }
  victim->tag = line;
  victim->valid = true;
  victim->dirty = is_write;
  victim->lru = stamp_;
  return r;
}

bool Cache::probe(Addr addr) const {
  const Addr line = line_of(addr);
  const int set = set_of(line);
  const Way* base = &ways_[static_cast<size_t>(set) * cfg_.assoc];
  for (int w = 0; w < cfg_.assoc; ++w) {
    if (base[w].valid && base[w].tag == line) return true;
  }
  return false;
}

bool Cache::invalidate(Addr addr) {
  const Addr line = line_of(addr);
  const int set = set_of(line);
  Way* base = &ways_[static_cast<size_t>(set) * cfg_.assoc];
  for (int w = 0; w < cfg_.assoc; ++w) {
    if (base[w].valid && base[w].tag == line) {
      base[w].valid = false;
      return base[w].dirty;
    }
  }
  return false;
}

void Cache::flush_all() {
  for (auto& w : ways_) w = Way{};
}

}  // namespace smt::mem
