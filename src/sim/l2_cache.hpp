// Shared L2 cache model.
//
// The 910B places a shared L2 between the AI cores and HBM; in the split
// architecture cube and vector cores exchange data *only* through GM/L2
// (paper §3.1), so the round trip a tile takes from the cube core's Fixpipe
// to the vector core's MTE2 stays on-chip when the working set fits. The
// copy comparison in Fig. 8 ("for sizes smaller than the L2 cache we almost
// approach the theoretical limit") is a direct consequence, and so is the
// 37.5%-of-peak ceiling of MCScan: the algorithm moves 16 bytes through the
// L2 per element of which 6 are useful, and 6/16 = 37.5%.
//
// Model: set-associative LRU over fixed-size lines with write-allocate and
// write-back. Every access reports how many bytes hit, how many missed
// (HBM reads), and how many dirty bytes were evicted (HBM write-backs,
// charged to the transfer that caused the eviction — correct in steady
// state for streaming kernels).
#pragma once

#include <cstdint>
#include <vector>

namespace ascend::sim {

struct L2Access {
  std::uint64_t hit_bytes = 0;
  std::uint64_t miss_bytes = 0;
  std::uint64_t writeback_bytes = 0;

  double hit_frac(std::uint64_t total) const {
    return total == 0 ? 0.0
                      : static_cast<double>(hit_bytes) /
                            static_cast<double>(total);
  }
};

class L2Cache {
 public:
  L2Cache(std::uint64_t capacity_bytes, std::uint64_t line_bytes,
          int ways = 16);

  /// Touches [addr, addr+bytes). Missed lines are allocated (reads and
  /// writes both allocate); writes mark lines dirty; evicted dirty lines
  /// are reported as write-back bytes.
  L2Access access(std::uint64_t addr, std::uint64_t bytes, bool is_write);

  void reset();

  std::uint64_t hits() const { return hit_lines_; }
  std::uint64_t misses() const { return miss_lines_; }
  std::uint64_t line_bytes() const { return line_bytes_; }

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
    bool dirty = false;
  };

  std::uint64_t line_bytes_;
  std::uint64_t num_sets_;
  int ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t hit_lines_ = 0;
  std::uint64_t miss_lines_ = 0;
  std::vector<Way> sets_;  // num_sets_ * ways_
};

}  // namespace ascend::sim
