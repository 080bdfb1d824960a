// A warmed kernel launch makes no heap allocation: fiber switches, block
// claiming, sub-core plans, TQue slots, cross-core flags and the timing
// pass's scratch all reuse memory the device already holds. This binary
// replaces the global operator new with a counter, so any allocation on
// the launch path — on the calling thread or a helper carrier — shows.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "ascendc/ascendc.hpp"
#include "kernels/batched_scan.hpp"
#include "kernels/copy_kernel.hpp"
#include "test_helpers.hpp"

namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a new
// expression's pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace ascend {
namespace {

std::size_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// Spins every block past the executor's helper budget, so the launch
/// recruits (and so creates) the device's helper carriers up front: the
/// measured launches below may then wake them without allocating.
void recruit_helpers(acc::Device& dev) {
  (void)acc::launch(
      dev, {.block_dim = 40, .mode = acc::LaunchMode::VectorOnly,
            .name = "spin"},
      [](acc::KernelContext&) {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(200);
        while (std::chrono::steady_clock::now() < until) {
        }
      });
}

TEST(LaunchAlloc, WarmCopyKernelAllocatesNothing) {
  const std::size_t n = 8192;
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  auto x = dev.upload(testing::exact_scan_workload(n, 3));
  auto y = dev.alloc<half>(n);
  recruit_helpers(dev);
  for (int i = 0; i < 3; ++i) {
    (void)kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), n, 0);
  }
  const std::size_t before = allocs();
  const sim::Report r =
      kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), n, 0);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(r.num_ops, 0u);
}

TEST(LaunchAlloc, WarmBatchedScanAllocatesNothing) {
  const std::size_t batch = 16, len = 320;
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  auto x = dev.upload(testing::exact_scan_workload(batch * len, 5));
  auto y = dev.alloc<half>(batch * len);
  recruit_helpers(dev);
  for (int i = 0; i < 3; ++i) {
    (void)kernels::batched_scan_u(dev, x.tensor(), y.tensor(), batch, len);
  }
  const std::size_t before = allocs();
  const sim::Report r =
      kernels::batched_scan_u(dev, x.tensor(), y.tensor(), batch, len);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(r.num_ops, 0u);
}

TEST(LaunchAlloc, TQueDeeperThanItsInlineCapIsRejected) {
  // A TQue's slots live inline; a depth beyond them must fail loudly
  // rather than overrun.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  EXPECT_THROW(
      (void)acc::launch(dev,
                        {.block_dim = 1, .mode = acc::LaunchMode::VectorOnly,
                         .name = "deep_queue"},
                        [](acc::KernelContext& c) {
                          acc::TPipe pipe(c);
                          acc::TQue q(c, acc::TPosition::VECIN);
                          pipe.InitBuffer(q, acc::TQue::kMaxDepth + 1, 64);
                        }),
      Error);
  // The cap itself is fine.
  EXPECT_NO_THROW((void)acc::launch(
      dev,
      {.block_dim = 1, .mode = acc::LaunchMode::VectorOnly,
       .name = "max_queue"},
      [](acc::KernelContext& c) {
        acc::TPipe pipe(c);
        acc::TQue q(c, acc::TPosition::VECIN);
        pipe.InitBuffer(q, acc::TQue::kMaxDepth, 64);
      }));
}

}  // namespace
}  // namespace ascend
