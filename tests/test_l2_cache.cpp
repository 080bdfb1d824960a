// Tests for the L2 cache model (write-allocate, write-back LRU).
#include "sim/l2_cache.hpp"

#include <gtest/gtest.h>

namespace ascend::sim {
namespace {

TEST(L2Cache, ColdReadMisses) {
  L2Cache l2(1 << 20, 512);
  const auto a = l2.access(0x10000, 4096, false);
  EXPECT_EQ(a.hit_bytes, 0u);
  EXPECT_EQ(a.miss_bytes, 4096u);
  EXPECT_EQ(a.writeback_bytes, 0u);
}

TEST(L2Cache, RepeatReadHits) {
  L2Cache l2(1 << 20, 512);
  l2.access(0x10000, 4096, false);
  const auto a = l2.access(0x10000, 4096, false);
  EXPECT_EQ(a.hit_bytes, 4096u);
  EXPECT_EQ(a.miss_bytes, 0u);
}

TEST(L2Cache, WriteThenReadHits) {
  // The cube->vector GM round trip of the paper's kernels: fixpipe writes a
  // tile, the vector core's MTE2 reads it back — on-chip.
  L2Cache l2(1 << 20, 512);
  const auto w = l2.access(0x20000, 8192, true);
  EXPECT_EQ(w.miss_bytes, 8192u);  // write-allocate
  const auto r = l2.access(0x20000, 8192, false);
  EXPECT_EQ(r.hit_bytes, 8192u);
}

TEST(L2Cache, PartialOverlapPartialHit) {
  L2Cache l2(1 << 20, 512);
  l2.access(0, 4096, false);  // lines 0..7
  const auto a = l2.access(0, 8192, false);  // lines 0..15: 8 hit, 8 miss
  EXPECT_EQ(a.hit_bytes, 4096u);
  EXPECT_EQ(a.miss_bytes, 4096u);
}

TEST(L2Cache, DirtyEvictionReportsWriteback) {
  // Tiny direct-mapped-ish cache: 8 KiB, 512 B lines, 1 way -> 16 sets.
  L2Cache l2(8 << 10, 512, /*ways=*/1);
  l2.access(0, 8192, true);  // fill all 16 sets dirty
  // Touch the aliasing range: evicts all 16 dirty lines.
  const auto a = l2.access(8192, 8192, false);
  EXPECT_EQ(a.miss_bytes, 8192u);
  EXPECT_EQ(a.writeback_bytes, 8192u);
  // Re-touching the (now clean) second range evicts nothing.
  const auto b = l2.access(0, 8192, false);
  EXPECT_EQ(b.writeback_bytes, 0u);
}

TEST(L2Cache, CleanEvictionNoWriteback) {
  L2Cache l2(8 << 10, 512, 1);
  l2.access(0, 8192, false);            // clean fill
  const auto a = l2.access(8192, 8192, false);  // evicts clean lines
  EXPECT_EQ(a.writeback_bytes, 0u);
}

TEST(L2Cache, StreamingWriteChargesSteadyStateWritebacks) {
  // Stream 4 MiB of writes through a 64 KiB cache: almost every allocated
  // line evicts an earlier dirty line.
  L2Cache l2(64 << 10, 512, 16);
  std::uint64_t wb = 0;
  for (std::uint64_t off = 0; off < (4 << 20); off += 8192) {
    wb += l2.access(0x40000000 + off, 8192, true).writeback_bytes;
  }
  // All but the resident 64 KiB must have been written back.
  EXPECT_GE(wb, (4u << 20) - (64u << 10) - (64u << 10));
}

TEST(L2Cache, CapacityEviction) {
  L2Cache l2(64 << 10, 512);
  for (std::uint64_t off = 0; off < (1 << 20); off += 4096) {
    l2.access(0x100000 + off, 4096, false);
  }
  EXPECT_EQ(l2.access(0x100000, 4096, false).hit_bytes, 0u);
}

TEST(L2Cache, WorkingSetWithinCapacityStaysResident) {
  L2Cache l2(1 << 20, 512, /*ways=*/16);
  for (int sweep = 0; sweep < 2; ++sweep) {
    std::uint64_t hit = 0, total = 0;
    for (std::uint64_t off = 0; off < (256 << 10); off += 8192) {
      hit += l2.access(0x200000 + off, 8192, false).hit_bytes;
      total += 8192;
    }
    if (sweep == 1) {
      EXPECT_EQ(hit, total);
    }
  }
}

TEST(L2Cache, ResetClears) {
  L2Cache l2(1 << 20, 512);
  l2.access(0, 4096, true);
  l2.reset();
  const auto a = l2.access(0, 4096, false);
  EXPECT_EQ(a.hit_bytes, 0u);
  EXPECT_EQ(a.writeback_bytes, 0u);  // dirty state cleared too
  EXPECT_EQ(l2.misses(), 8u);
}

TEST(L2Cache, UnalignedRangeNormalisesBytes) {
  L2Cache l2(1 << 20, 512);
  const auto a = l2.access(100, 10, false);
  EXPECT_EQ(a.hit_bytes + a.miss_bytes, 10u);
  const auto b = l2.access(0, 512, false);
  EXPECT_EQ(b.hit_bytes, 512u);  // line 0 resident
}

}  // namespace
}  // namespace ascend::sim
