// Host execution engine regression tests: pooled execution must be
// observationally invisible — bit-identical Reports, values and traces
// versus freshly spawned threads, for every operator family.
#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ascan.hpp"
#include "kernels/copy_kernel.hpp"
#include "kernels/scan_u.hpp"
#include "kernels/scan_ul1.hpp"
#include "kernels/vec_cumsum.hpp"
#include "sim/executor.hpp"
#include "test_helpers.hpp"

namespace ascend {
namespace {

using ascan::ScanAlgo;
using ascan::Session;

sim::MachineConfig cfg_with(sim::ExecutorMode mode) {
  auto cfg = sim::MachineConfig::ascend_910b4();
  cfg.executor = mode;
  return cfg;
}

/// Distinct integer-valued fp16 keys (unique answer for sorts).
std::vector<half> distinct_keys(std::size_t n) {
  std::vector<half> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = (i * 2654435761u) % n;
    x[i] = half(static_cast<float>(p) - static_cast<float>(n / 2));
  }
  return x;
}

// ---------------------------------------------------------------------------
// Pool vs spawn: bit-identical Reports and values for every operator family.

/// Asserts spawn/pool Reports agree bit for bit. GM buffers carry
/// deterministic virtual addresses (gm_space.hpp) and op ids are
/// canonically renumbered before the timing pass, so even the L2- and
/// arbiter-derived fields must be independent of the executor and of host
/// heap/thread state.
void expect_reports_equivalent(const sim::Report& a, const sim::Report& b) {
  EXPECT_EQ(a.time_s, b.time_s) << "simulated time differs across executors";
  EXPECT_TRUE(sim::identical(a, b)) << "Report fields differ across executors";
  EXPECT_FALSE(a.any_faults());
  EXPECT_FALSE(b.any_faults());
}

/// Runs `op` on a spawn-mode and a pool-mode session and asserts the
/// Reports match on every address-independent field (values are asserted
/// inside `op`).
template <typename Op>
void expect_executors_identical(Op&& op) {
  Session spawn(cfg_with(sim::ExecutorMode::Spawn));
  Session pool(cfg_with(sim::ExecutorMode::Pool));
  const sim::Report a = op(spawn);
  const sim::Report b = op(pool);
  expect_reports_equivalent(a, b);
}

TEST(Executor, PoolMatchesSpawnBitExactOnSharedBuffers) {
  // Two devices, one set of GM buffers: every launch sees identical GM
  // addresses, so the full Report — l2_hit_bytes and fluid-model fields
  // included — must match bit for bit between executors. scan_u/scan_ul1
  // upload ScanConstants matrices per call; the deterministic virtual GM
  // allocator hands the pool device the same (recycled) virtual addresses
  // the spawn device's call used, so they qualify too.
  const std::size_t n = 8192;
  acc::Device spawn(cfg_with(sim::ExecutorMode::Spawn));
  acc::Device pool(cfg_with(sim::ExecutorMode::Pool));
  auto x = spawn.upload(testing::exact_scan_workload(n, 31));
  auto y = spawn.alloc<half>(n);
  std::vector<half> va(n);

  using KernelFn = std::function<sim::Report(acc::Device&)>;
  const std::pair<const char*, KernelFn> cases[] = {
      {"copy", [&](acc::Device& d) {
         return kernels::copy_kernel<half>(d, x.tensor(), y.tensor(), n, 0);
       }},
      {"scan_u", [&](acc::Device& d) {
         return kernels::scan_u(d, x.tensor(), y.tensor(), n, 128);
       }},
      {"scan_ul1", [&](acc::Device& d) {
         return kernels::scan_ul1(d, x.tensor(), y.tensor(), n, 128);
       }},
      {"vec_cumsum", [&](acc::Device& d) {
         return kernels::vec_cumsum(d, x.tensor(), y.tensor(), n);
       }},
  };
  for (const auto& [name, fn] : cases) {
    const sim::Report a = fn(spawn);
    va = y.host();
    const sim::Report b = fn(pool);
    EXPECT_TRUE(sim::identical(a, b))
        << name << ": spawn time " << a.time_s << "s vs pool " << b.time_s;
    EXPECT_EQ(va, y.host()) << name << ": values differ across executors";
  }
}

TEST(Executor, PoolMatchesSpawnEveryScanAlgo) {
  const auto x = testing::exact_scan_workload(4096, 23);
  {  // MCScan (fp32 output path)
    std::vector<float> first;
    expect_executors_identical([&](Session& s) {
      auto r = s.cumsum(x);
      if (first.empty()) {
        first = r.values;
      } else {
        EXPECT_EQ(first, r.values) << "MCScan values differ across executors";
      }
      return r.report;
    });
  }
  for (ScanAlgo algo :
       {ScanAlgo::ScanU, ScanAlgo::ScanUL1, ScanAlgo::VectorBaseline}) {
    std::vector<half> first;
    expect_executors_identical([&](Session& s) {
      auto r = s.cumsum_f16(x, {.algo = algo});
      if (first.empty()) {
        first = r.values;
      } else {
        const bool same = first == r.values;
        EXPECT_TRUE(same) << "values differ across executors, algo "
                          << static_cast<int>(algo);
      }
      return r.report;
    });
  }
}

TEST(Executor, PoolMatchesSpawnSort) {
  const auto keys = distinct_keys(2048);
  std::vector<half> values;
  std::vector<std::int32_t> indices;
  expect_executors_identical([&](Session& s) {
    auto r = s.sort(keys);
    if (values.empty()) {
      values = r.values;
      indices = r.indices;
    } else {
      EXPECT_TRUE(values == r.values && indices == r.indices)
          << "sort output differs across executors";
    }
    return r.report;
  });
}

TEST(Executor, PoolMatchesSpawnTopPSampleBatch) {
  const std::size_t batch = 4, vocab = 512;
  std::vector<half> probs(batch * vocab);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < vocab; ++i) {
      const std::size_t p = (i * 2654435761u) % vocab;
      probs[b * vocab + i] = half(static_cast<float>(p + 1) / 512.0f);
    }
  }
  const std::vector<double> u = {0.1, 0.4, 0.7, 0.95};
  std::vector<std::int32_t> tokens;
  expect_executors_identical([&](Session& s) {
    auto r = s.top_p_sample_batch(probs, batch, vocab, 0.9, u);
    if (tokens.empty()) {
      tokens = r.tokens;
    } else {
      EXPECT_EQ(tokens, r.tokens) << "sampled tokens differ across executors";
    }
    return r.report;
  });
}

TEST(Executor, RepeatedLaunchesOnPoolStayIdentical) {
  // Repeated launches run on recycled contexts/arenas/scratch — they must
  // reproduce values and every trace-derived metric exactly. Session::cumsum
  // uploads fresh GM buffers per call, but the virtual-address free list
  // hands each repeat the same addresses, so from the second call on (L2
  // warm) the Reports are bit-identical.
  Session s(cfg_with(sim::ExecutorMode::Pool));
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
  acc::Device dev(cfg_with(sim::ExecutorMode::Pool));
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

TEST(Executor, PoolGrowsToLargestLaunchAndKeepsWorkers) {
  acc::Device dev(cfg_with(sim::ExecutorMode::Pool));
  auto x = dev.alloc<half>(4096, half(1.0f));
  auto y = dev.alloc<half>(4096);
  kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), 4096, 2);
  const int small = dev.engine().pool_workers();
  EXPECT_EQ(small, 2);  // VectorOnly launch of 2 blocks = 2 sub-cores
  kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), 4096, 0);
  const int large = dev.engine().pool_workers();
  EXPECT_EQ(large, dev.config().num_vec_cores());
  kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), 4096, 1);
  EXPECT_EQ(dev.engine().pool_workers(), large) << "pool must never shrink";
}

// ---------------------------------------------------------------------------
// Runtime switches.

TEST(Executor, EnvSwitchSelectsExecutor) {
  ::setenv("ASCAN_EXECUTOR", "spawn", 1);
  EXPECT_EQ(sim::resolve_executor_mode(sim::ExecutorMode::Auto),
            sim::ExecutorMode::Spawn);
  ::setenv("ASCAN_EXECUTOR", "POOL", 1);  // case-insensitive
  EXPECT_EQ(sim::resolve_executor_mode(sim::ExecutorMode::Auto),
            sim::ExecutorMode::Pool);
  ::setenv("ASCAN_EXECUTOR", "bogus", 1);
  EXPECT_THROW(sim::resolve_executor_mode(sim::ExecutorMode::Auto), Error);
  ::unsetenv("ASCAN_EXECUTOR");
  EXPECT_EQ(sim::resolve_executor_mode(sim::ExecutorMode::Auto),
            sim::ExecutorMode::Pool);  // default
  // An explicit MachineConfig field wins over the environment.
  ::setenv("ASCAN_EXECUTOR", "pool", 1);
  EXPECT_EQ(sim::resolve_executor_mode(sim::ExecutorMode::Spawn),
            sim::ExecutorMode::Spawn);
  ::unsetenv("ASCAN_EXECUTOR");
}

}  // namespace
}  // namespace ascend
