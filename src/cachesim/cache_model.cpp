#include "cachesim/cache_model.hpp"

#include "check/check.hpp"

namespace cats {
namespace {

int log2_exact(std::size_t v) {
  int s = 0;
  while ((std::size_t{1} << s) < v) ++s;
  return s;
}

}  // namespace

CacheModel::CacheModel(std::size_t bytes, int ways, int line_bytes)
    : sets_(bytes / (static_cast<std::size_t>(ways) * line_bytes)),
      ways_(ways),
      line_(line_bytes),
      line_shift_(log2_exact(static_cast<std::size_t>(line_bytes))) {
  CATS_CHECK(ways >= 1 && line_bytes >= 8,
             "CacheModel ways=%d line_bytes=%d", ways, line_bytes);
  CATS_CHECK((std::size_t{1} << line_shift_) ==
                 static_cast<std::size_t>(line_bytes),
             "CacheModel line_bytes=%d must be a power of two", line_bytes);
  CATS_CHECK(sets_ >= 1, "CacheModel %zu bytes yields no sets", bytes);
  entries_.assign(sets_ * static_cast<std::size_t>(ways_), Way{});
}

bool CacheModel::access(std::uint64_t addr) {
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::size_t set = static_cast<std::size_t>(line_addr) % sets_;
  Way* base = entries_.data() + set * static_cast<std::size_t>(ways_);
  ++clock_;

  for (int w = 0; w < ways_; ++w) {
    Way& e = base[w];
    if (e.valid && e.tag == line_addr) {
      e.stamp = clock_;
      ++hits_;
      return true;
    }
  }
  Way* victim = base;
  for (int w = 0; w < ways_; ++w) {
    Way& e = base[w];
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.stamp < victim->stamp) victim = &e;
  }
  victim->valid = true;
  victim->tag = line_addr;
  victim->stamp = clock_;
  ++misses_;
  return false;
}

void CacheModel::access_range(std::uint64_t addr, std::size_t len) {
  if (len == 0) return;
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + len - 1) >> line_shift_;
  for (std::uint64_t l = first; l <= last; ++l) {
    access(l << line_shift_);
  }
}

bool CacheModel::write(std::uint64_t addr) {
  const bool hit = access(addr);
  if (!hit) ++write_misses_;  // the fill existed only to gain ownership
  return hit;
}

void CacheModel::write_range(std::uint64_t addr, std::size_t len) {
  if (len == 0) return;
  stored_bytes_ += len;
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + len - 1) >> line_shift_;
  for (std::uint64_t l = first; l <= last; ++l) {
    write(l << line_shift_);
  }
}

void CacheModel::flush() {
  entries_.assign(entries_.size(), Way{});
  clock_ = 0;
  reset_counters();
}

}  // namespace cats
