#include "mem/sim_memory.h"

#include <bit>

namespace smt::mem {

namespace {
uint64_t page_index(Addr a) { return a / SimMemory::kPageBytes; }
size_t page_offset(Addr a) { return a % SimMemory::kPageBytes; }
}  // namespace

uint8_t* SimMemory::page_for(Addr a) {
  const uint64_t index = page_index(a);
  if (index == memo_index_) return memo_page_;
  auto& slot = pages_[index];
  if (!slot) {
    slot = std::make_unique<uint8_t[]>(kPageBytes);
    std::memset(slot.get(), 0, kPageBytes);
  }
  memo_index_ = index;
  memo_page_ = slot.get();
  return memo_page_;
}

const uint8_t* SimMemory::page_for(Addr a) const {
  const uint64_t index = page_index(a);
  if (index == memo_index_) return memo_page_;
  auto it = pages_.find(index);
  if (it == pages_.end()) return nullptr;
  memo_index_ = index;
  memo_page_ = it->second.get();
  return memo_page_;
}

uint64_t SimMemory::read_u64(Addr a) const {
  SMT_DCHECK(a % 8 == 0);
  const uint8_t* p = page_for(a);
  if (p == nullptr) return 0;  // untouched memory reads as zero
  uint64_t v;
  std::memcpy(&v, p + page_offset(a), 8);
  return v;
}

void SimMemory::write_u64(Addr a, uint64_t v) {
  SMT_DCHECK(a % 8 == 0);
  std::memcpy(page_for(a) + page_offset(a), &v, 8);
}

double SimMemory::read_f64(Addr a) const {
  return std::bit_cast<double>(read_u64(a));
}

void SimMemory::write_f64(Addr a, double v) {
  write_u64(a, std::bit_cast<uint64_t>(v));
}

uint64_t SimMemory::exchange_u64(Addr a, uint64_t v) {
  const uint64_t old = read_u64(a);
  write_u64(a, v);
  return old;
}

void SimMemory::store_f64_array(Addr base, std::span<const double> values) {
  for (size_t i = 0; i < values.size(); ++i) write_f64(base + 8 * i, values[i]);
}

void SimMemory::load_f64_array(Addr base, std::span<double> out) const {
  for (size_t i = 0; i < out.size(); ++i) out[i] = read_f64(base + 8 * i);
}

void SimMemory::store_i64_array(Addr base, std::span<const int64_t> values) {
  for (size_t i = 0; i < values.size(); ++i) write_i64(base + 8 * i, values[i]);
}

void SimMemory::fill_f64(Addr base, size_t count, double v) {
  for (size_t i = 0; i < count; ++i) write_f64(base + 8 * i, v);
}

Addr MemoryLayout::alloc(std::string name, size_t bytes, size_t align) {
  SMT_CHECK_MSG(align >= 8 && (align & (align - 1)) == 0,
                "alignment must be a power of two >= 8");
  next_ = (next_ + align - 1) & ~static_cast<Addr>(align - 1);
  const Addr base = next_;
  // Pad to the next line boundary so distinct regions never share a line.
  next_ += (bytes + line_ - 1) / line_ * line_;
  total_ += bytes;
  regions_.push_back({std::move(name), base, bytes});
  return base;
}

}  // namespace smt::mem
