#include "sim/l2_cache.hpp"

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace ascend::sim {

L2Cache::L2Cache(std::uint64_t capacity_bytes, std::uint64_t line_bytes,
                 int ways)
    : line_bytes_(line_bytes), ways_(ways) {
  ASCAN_CHECK(is_pow2(line_bytes), "L2 line size must be a power of two");
  ASCAN_CHECK(ways >= 1);
  std::uint64_t lines = capacity_bytes / line_bytes;
  num_sets_ = next_pow2(lines / static_cast<std::uint64_t>(ways));
  if (num_sets_ == 0) num_sets_ = 1;
  sets_.assign(num_sets_ * static_cast<std::uint64_t>(ways_), Way{});
}

L2Access L2Cache::access(std::uint64_t addr, std::uint64_t bytes,
                         bool is_write) {
  L2Access result;
  if (bytes == 0) return result;
  const std::uint64_t first = addr / line_bytes_;
  const std::uint64_t last = (addr + bytes - 1) / line_bytes_;
  for (std::uint64_t line = first; line <= last; ++line) {
    const std::uint64_t set = line & (num_sets_ - 1);
    Way* base = &sets_[set * static_cast<std::uint64_t>(ways_)];
    ++tick_;
    int victim = 0;
    bool hit = false;
    for (int w = 0; w < ways_; ++w) {
      if (base[w].tag == line) {
        base[w].lru = tick_;
        if (is_write) base[w].dirty = true;
        hit = true;
        break;
      }
      if (base[w].lru < base[victim].lru) victim = w;
    }
    if (hit) {
      ++hit_lines_;
      result.hit_bytes += line_bytes_;
    } else {
      ++miss_lines_;
      result.miss_bytes += line_bytes_;
      if (base[victim].dirty && base[victim].tag != ~0ull) {
        result.writeback_bytes += line_bytes_;
      }
      base[victim].tag = line;
      base[victim].lru = tick_;
      base[victim].dirty = is_write;
    }
  }
  // Normalise the first/last partial lines so hit+miss == bytes.
  const std::uint64_t covered = (last - first + 1) * line_bytes_;
  if (covered > bytes) {
    const double scale =
        static_cast<double>(bytes) / static_cast<double>(covered);
    result.hit_bytes =
        static_cast<std::uint64_t>(static_cast<double>(result.hit_bytes) * scale);
    result.miss_bytes = bytes - result.hit_bytes;
  }
  return result;
}

void L2Cache::reset() {
  for (auto& w : sets_) w = Way{};
  tick_ = hit_lines_ = miss_lines_ = 0;
}

}  // namespace ascend::sim
