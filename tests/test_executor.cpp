// Host execution engine regression tests: running sub-cores as fibers must
// be observationally invisible — Reports and values match the recorded
// golden runs (tests/golden/executor.txt) for every operator family — and a
// launch that can never finish must be reported, not hang.
#include <algorithm>
#include <cfenv>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ascendc/ascendc.hpp"
#include "core/ascan.hpp"
#include "kernels/copy_kernel.hpp"
#include "kernels/scan_u.hpp"
#include "kernels/scan_ul1.hpp"
#include "kernels/vec_cumsum.hpp"
#include "golden.hpp"
#include "test_helpers.hpp"

namespace ascend {
namespace {

using ascan::ScanAlgo;
using ascan::Session;

/// Distinct integer-valued fp16 keys (unique answer for sorts).
std::vector<half> distinct_keys(std::size_t n) {
  std::vector<half> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = (i * 2654435761u) % n;
    x[i] = half(static_cast<float>(p) - static_cast<float>(n / 2));
  }
  return x;
}

/// Busy-waits, without yielding, past the executor's helper budget.
void spin_past_budget() {
  const auto until = std::chrono::steady_clock::now() +
                     4 * sim::FiberExecutor::kHelperBudget;
  while (std::chrono::steady_clock::now() < until) {
  }
}

int host_cores() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void expect_golden(const std::string& key, const sim::Report& r,
                   const std::string& values_hash) {
  EXPECT_FALSE(r.any_faults()) << key;
  testing::expect_golden("executor.txt", key,
                         testing::golden_report(r) + " values=" + values_hash);
}

// ---------------------------------------------------------------------------
// Golden parity: Reports and values bit-identical to the recorded runs of
// the thread-per-sub-core executors, for every operator family.

TEST(Executor, GoldenSharedBuffers) {
  // One device, one set of GM buffers: every launch sees fixed GM
  // addresses, so the full Report — l2_hit_bytes and fluid-model fields
  // included — is reproducible. scan_u/scan_ul1 take GM views of the
  // Device's constant matrices per call at deterministic (recycled)
  // virtual addresses.
  const std::size_t n = 8192;
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  auto x = dev.upload(testing::exact_scan_workload(n, 31));
  auto y = dev.alloc<half>(n);

  using KernelFn = std::function<sim::Report()>;
  const std::pair<const char*, KernelFn> cases[] = {
      {"shared_buffers.copy", [&] {
         return kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), n, 0);
       }},
      {"shared_buffers.scan_u", [&] {
         return kernels::scan_u(dev, x.tensor(), y.tensor(), n, 128);
       }},
      {"shared_buffers.scan_ul1", [&] {
         return kernels::scan_ul1(dev, x.tensor(), y.tensor(), n, 128);
       }},
      {"shared_buffers.vec_cumsum", [&] {
         return kernels::vec_cumsum(dev, x.tensor(), y.tensor(), n);
       }},
  };
  for (const auto& [key, fn] : cases) {
    const sim::Report r = fn();
    expect_golden(key, r, testing::hash_values(y.host()));
  }
}

TEST(Executor, GoldenEveryScanAlgo) {
  const auto x = testing::exact_scan_workload(4096, 23);
  {  // MCScan (fp32 output path)
    Session s(sim::MachineConfig::ascend_910b4());
    const auto r = s.cumsum(x);
    expect_golden("scan_algo.mcscan", r.report, testing::hash_values(r.values));
  }
  {  // int8 MCScan: the int8 U_s feeds the int8 closed form
    std::vector<std::int8_t> xi(40000);
    for (std::size_t i = 0; i < xi.size(); ++i) {
      xi[i] = static_cast<std::int8_t>(
          static_cast<int>((i * 2654435761u >> 7) % 255) - 127);
    }
    Session s(sim::MachineConfig::ascend_910b4());
    const auto r = s.cumsum_i8(xi);
    expect_golden("scan_algo.mcscan.int8", r.report,
                  testing::hash_values(r.values));
  }
  const std::pair<const char*, ScanAlgo> algos[] = {
      {"scan_algo.scan_u", ScanAlgo::ScanU},
      {"scan_algo.scan_ul1", ScanAlgo::ScanUL1},
      {"scan_algo.vector_baseline", ScanAlgo::VectorBaseline},
  };
  for (const auto& [key, algo] : algos) {
    Session s(sim::MachineConfig::ascend_910b4());
    const auto r = s.cumsum_f16(x, {.algo = algo});
    expect_golden(key, r.report, testing::hash_values(r.values));
  }
}

TEST(Executor, GoldenSort) {
  Session s(sim::MachineConfig::ascend_910b4());
  const auto r = s.sort(distinct_keys(2048));
  expect_golden("sort", r.report,
                testing::hash_values(r.values) + "/" +
                    testing::hash_values(r.indices));
}

TEST(Executor, GoldenBatchedScan) {
  // Both batched schedules on partial tiles: the serving shape (16 rows of
  // 320 fill 3 of a 128x128 tile's rows), a ragged multi-tile shape, and
  // tile 16. Noise values make every rounding show in the hash.
  struct Shape {
    const char* key;
    std::size_t batch, len, tile;
  };
  const Shape shapes[] = {
      {"16x320.s128", 16, 320, 128},
      {"3x40000.s128", 3, 40000, 128},
      {"7x1000.s16", 7, 1000, 16},
  };
  for (const Shape& sh : shapes) {
    const auto x = testing::noise_workload(sh.batch * sh.len, 41);
    for (const bool ul1 : {false, true}) {
      Session s(sim::MachineConfig::ascend_910b4());
      const auto r = s.cumsum_batched(x, sh.batch, sh.len, sh.tile, ul1);
      expect_golden(std::string("cumsum_batched.") + (ul1 ? "ul1." : "u.") +
                        sh.key,
                    r.report, testing::hash_values(r.values));
    }
  }
}

TEST(Executor, GoldenBatchedScanOneRow) {
  // One row on 20 blocks: 19 cube blocks and 39 vector sub-cores own no
  // row, the fixed cost of the smallest serving launch.
  const auto x = testing::noise_workload(320, 59);
  Session s(sim::MachineConfig::ascend_910b4());
  const auto r = s.cumsum_batched(x, 1, 320, 128, false);
  expect_golden("cumsum_batched.u.1x320.s128", r.report,
                testing::hash_values(r.values));
}

TEST(Executor, GoldenReducePartialTile) {
  Session s(sim::MachineConfig::ascend_910b4());
  const auto r = s.reduce(testing::noise_workload(3 * 16384 + 1234, 43));
  expect_golden("reduce.partial_tile", r.report,
                testing::hash_values(r.values));
}

TEST(Executor, GoldenSlotReuseLongThenShortRows) {
  // One Session: the long rows leave non-zero data in every pooled cube
  // slot, which the short rows' partial tiles then reuse.
  Session s(sim::MachineConfig::ascend_910b4());
  const auto long_rows = testing::noise_workload(4 * 20000, 47);
  const auto short_rows = testing::noise_workload(16 * 200, 53);
  const std::pair<const char*, bool> runs[] = {{"u", false}, {"ul1", true}};
  for (const auto& [name, ul1] : runs) {
    const auto r1 = s.cumsum_batched(long_rows, 4, 20000, 128, ul1);
    const auto r2 = s.cumsum_batched(short_rows, 16, 200, 128, ul1);
    expect_golden(std::string("slot_reuse.") + name + ".long", r1.report,
                  testing::hash_values(r1.values));
    expect_golden(std::string("slot_reuse.") + name + ".short", r2.report,
                  testing::hash_values(r2.values));
  }
}

TEST(Executor, GoldenTopPSampleBatch) {
  const std::size_t batch = 4, vocab = 512;
  std::vector<half> probs(batch * vocab);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < vocab; ++i) {
      const std::size_t p = (i * 2654435761u) % vocab;
      probs[b * vocab + i] = half(static_cast<float>(p + 1) / 512.0f);
    }
  }
  Session s(sim::MachineConfig::ascend_910b4());
  const auto r =
      s.top_p_sample_batch(probs, batch, vocab, 0.9, {0.1, 0.4, 0.7, 0.95});
  expect_golden("top_p_sample_batch", r.report, testing::hash_values(r.tokens));
}

TEST(Executor, RepeatedLaunchesStayIdentical) {
  // Repeated launches run on recycled contexts/arenas/stacks/scratch — they
  // must reproduce values and every trace-derived metric exactly.
  // Session::cumsum uploads fresh GM buffers per call, but the
  // virtual-address free list hands each repeat the same addresses, so
  // from the second call on (L2 warm) the Reports are bit-identical.
  Session s(sim::MachineConfig::ascend_910b4());
  const auto x = testing::exact_scan_workload(2048, 5);
  const auto r1 = s.cumsum(x);
  const auto r2 = s.cumsum(x);
  const auto r3 = s.cumsum(x);
  EXPECT_EQ(r1.values, r2.values);
  EXPECT_EQ(r2.values, r3.values);
  EXPECT_EQ(r1.report.num_ops, r3.report.num_ops);
  EXPECT_TRUE(sim::identical(r2.report, r3.report))
      << "repeated Session launches must converge to bit-identical Reports";

  // Device-resident repeats on fixed buffers: no internal GM allocations,
  // so after the first (cold-L2) launch the Reports must be bit-identical.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  auto dx = dev.upload(x);
  auto dy = dev.alloc<half>(x.size());
  (void)kernels::vec_cumsum(dev, dx.tensor(), dy.tensor(), x.size());
  const sim::Report warm2 =
      kernels::vec_cumsum(dev, dx.tensor(), dy.tensor(), x.size());
  const sim::Report warm3 =
      kernels::vec_cumsum(dev, dx.tensor(), dy.tensor(), x.size());
  EXPECT_TRUE(sim::identical(warm2, warm3))
      << "steady-state repeated launches must be bit-identical";
}

// ---------------------------------------------------------------------------
// Carriers and deadlock reporting.

TEST(Executor, HelperThreadsStayBelowHostCores) {
  // A full-width copy launch has 40 vector blocks; the device runs them on
  // at most one carrier per host core, the caller being one of them.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  auto x = dev.upload(testing::exact_scan_workload(8192, 3));
  auto y = dev.alloc<half>(8192);
  (void)kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), 8192, 0);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_LE(dev.engine().helper_threads(), std::max(hw, 1) - 1);
}

TEST(Executor, OneBlockLaunchWakesNoHelper) {
  // However long it runs, a launch with nothing to hand out runs on the
  // calling thread alone.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  (void)acc::launch(dev,
                    {.block_dim = 1, .mode = acc::LaunchMode::Mix,
                     .name = "one_block"},
                    [](acc::KernelContext& c) {
                      spin_past_budget();
                      c.SyncAll();
                    });
  EXPECT_EQ(dev.engine().helper_threads(), 0);
}

TEST(Executor, LongLaunchRecruitsHelpers) {
  if (host_cores() < 2) GTEST_SKIP() << "one host core: no helpers to wake";
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  (void)acc::launch(dev,
                    {.block_dim = 8, .mode = acc::LaunchMode::VectorOnly,
                     .name = "long_blocks"},
                    [](acc::KernelContext&) { spin_past_budget(); });
  EXPECT_GE(dev.engine().helper_threads(), 1);
  EXPECT_LE(dev.engine().helper_threads(), host_cores() - 1);
}

TEST(Executor, FibersNeverMigrate) {
  // Each sub-core records its thread at its start and after every flag
  // wait and SyncAll: a fiber resumes where it started, and all sub-cores
  // of a block run on the thread that claimed the block — whether the
  // launch stays on the caller or recruits helpers part-way.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  const int blocks = dev.config().num_ai_cores;
  const int per_block = 1 + dev.config().vec_per_core;
  for (const bool spin : {false, true}) {
    std::vector<std::vector<std::thread::id>> seen(
        static_cast<std::size_t>(blocks * per_block));
    (void)acc::launch(
        dev,
        {.block_dim = blocks, .mode = acc::LaunchMode::Mix,
         .name = "no_migration"},
        [&](acc::KernelContext& c) {
          const int b = c.GetBlockIdx();
          auto& mine = seen[static_cast<std::size_t>(
              b * per_block + (c.is_cube() ? 0 : 1 + c.GetSubBlockIdx()))];
          mine.push_back(std::this_thread::get_id());
          if (spin) spin_past_budget();
          auto& ready = c.shared().flags("ready", blocks);
          if (c.is_cube()) {
            ready.set(c, static_cast<std::size_t>(b));
          } else {
            ready.wait(c, static_cast<std::size_t>(b));
            mine.push_back(std::this_thread::get_id());
          }
          for (int round = 0; round < 2; ++round) {
            c.SyncAll();
            mine.push_back(std::this_thread::get_id());
          }
        });
    for (int b = 0; b < blocks; ++b) {
      const std::thread::id owner =
          seen[static_cast<std::size_t>(b * per_block)].front();
      for (int i = 0; i < per_block; ++i) {
        for (const std::thread::id t :
             seen[static_cast<std::size_t>(b * per_block + i)]) {
          EXPECT_EQ(t, owner) << "block " << b << " sub-core " << i
                              << (spin ? " (helpers)" : "");
        }
      }
    }
  }
}

TEST(Executor, ReverseCrossBlockDependencyCompletes) {
  // Block 0 waits on a flag only the last block sets: its claimer must
  // keep claiming blocks past the parked one, and a helper holding the
  // last block must count as live while the others idle.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  const int blocks = dev.config().num_vec_cores();
  for (const bool spin : {false, true}) {
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_NO_THROW((void)acc::launch(
          dev,
          {.block_dim = blocks, .mode = acc::LaunchMode::VectorOnly,
           .name = "reverse_dependency"},
          [&](acc::KernelContext& c) {
            auto& last_done = c.shared().flags("last_done", 1);
            if (spin) spin_past_budget();
            if (c.GetBlockIdx() == 0) last_done.wait(c, 0);
            if (c.GetBlockIdx() == blocks - 1) last_done.set(c, 0);
          }))
          << (spin ? "with helpers" : "on the caller");
    }
  }
}

TEST(Executor, DeadlockAfterHelpersJoinedReportsLaunch) {
  // Every block runs past the budget, so helpers join before any sub-core
  // blocks; the deadlock count must include them and still fire.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  try {
    (void)acc::launch(dev,
                      {.block_dim = 8, .mode = acc::LaunchMode::VectorOnly,
                       .name = "late_deadlock"},
                      [](acc::KernelContext& c) {
                        spin_past_budget();
                        c.shared().flags("never_set", 1).wait(c, 0);
                      });
    ADD_FAILURE() << "deadlocked launch returned";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("late_deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
  }
  if (host_cores() >= 2) {
    EXPECT_GE(dev.engine().helper_threads(), 1);
  }
}

/// Whether SSE arithmetic currently rounds up (the x87 side is what
/// fegetround reads).
bool sse_rounds_up() {
  volatile float one = 1.0f;
  volatile float tiny = 1e-30f;
  return one + tiny > 1.0f;
}

TEST(Executor, FpControlStateStaysWithItsFiber) {
  // The cube sub-core switches to upward rounding and parks; the vector
  // sub-cores that run meanwhile, and the carrier after the launch, still
  // round to nearest, and the cube resumes rounding upward.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  bool cube_parked = false;
  int cube_resumed_mode = -1;
  bool cube_resumed_up = false;
  int vec_mode[2] = {-1, -1};
  bool vec_up[2] = {true, true};
  bool vec_after_park[2] = {false, false};
  (void)acc::launch(
      dev, {.block_dim = 1, .mode = acc::LaunchMode::Mix, .name = "fp_state"},
      [&](acc::KernelContext& c) {
        auto& go = c.shared().flags("go", 1);
        if (c.is_cube()) {
          std::fesetround(FE_UPWARD);
          cube_parked = true;
          go.wait(c, 0);
          cube_resumed_mode = std::fegetround();
          cube_resumed_up = sse_rounds_up();
          return;  // finishes still rounding upward
        }
        const int v = c.GetSubBlockIdx();
        vec_after_park[v] = cube_parked;
        vec_mode[v] = std::fegetround();
        vec_up[v] = sse_rounds_up();
        if (v == 0) go.set(c, 0);
      });
  EXPECT_EQ(cube_resumed_mode, FE_UPWARD);
  EXPECT_TRUE(cube_resumed_up);
  for (int v = 0; v < 2; ++v) {
    EXPECT_TRUE(vec_after_park[v]) << v;
    EXPECT_EQ(vec_mode[v], FE_TONEAREST) << v;
    EXPECT_FALSE(vec_up[v]) << v;
  }
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_FALSE(sse_rounds_up());
  std::fesetround(FE_TONEAREST);
}

TEST(Executor, UnsetFlagReportsDeadlock) {
  // Every vector sub-core waits on a flag that no cube core ever sets: the
  // launch can never finish. It must unwind and name itself, not hang.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  for (int blocks : {1, 20}) {
    try {
      (void)acc::launch(
          dev,
          {.block_dim = blocks, .mode = acc::LaunchMode::Mix,
           .name = "never_set"},
          [](acc::KernelContext& c) {
            auto& flags = c.shared().flags("ready", 1);
            if (c.is_vector()) flags.wait(c, 0);
          });
      ADD_FAILURE() << "deadlocked launch of " << blocks << " blocks returned";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("never_set"), std::string::npos) << what;
      EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    }
  }
  // The device stays usable after a reported deadlock.
  auto x = dev.upload(testing::exact_scan_workload(4096, 9));
  auto y = dev.alloc<half>(4096);
  (void)kernels::vec_cumsum(dev, x.tensor(), y.tensor(), 4096);
}

TEST(Executor, BarrierMismatchReportsDeadlock) {
  // Sub-core 0 of the launch skips the SyncAll its siblings wait at and
  // finishes: the remaining carriers all idle with no progress left.
  acc::Device dev(sim::MachineConfig::ascend_910b4());
  EXPECT_THROW(
      (void)acc::launch(dev,
                        {.block_dim = 8, .mode = acc::LaunchMode::VectorOnly,
                         .name = "skipped_sync"},
                        [](acc::KernelContext& c) {
                          if (c.GetBlockIdx() != 0) c.SyncAll();
                        }),
      Error);
}

}  // namespace
}  // namespace ascend
