// Host-side microbenchmarks (google-benchmark) of the simulator itself:
// how fast the functional+timing machine model executes on the host. These
// are *not* paper figures — they track the cost of running this
// reproduction (useful when extending the simulator).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "core/ascan.hpp"
#include "kernels/copy_kernel.hpp"
#include "kernels/mcscan.hpp"
#include "kernels/scan_u.hpp"
#include "sim/hbm_arbiter.hpp"
#include "sim/l2_cache.hpp"

using namespace ascend;

namespace {

sim::MachineConfig cfg_mode(sim::ExecutorMode mode) {
  auto cfg = sim::MachineConfig::ascend_910b4();
  cfg.executor = mode;
  return cfg;
}

std::vector<half> bench_workload(std::size_t n) {
  std::vector<half> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = half(static_cast<float>((i * 2654435761u) % 7) - 3.0f);
  }
  return x;
}

/// Runs `op` once on a spawn and a pool session and returns whether the
/// simulated time is bit-identical and the values match. Recorded as the
/// `cross_exec_ok` counter so BENCH_sim_host.json carries the determinism
/// evidence from the same run as the throughput numbers.
template <typename Op>
bool cross_executor_identical(Op&& op) {
  ascan::Session spawn(cfg_mode(sim::ExecutorMode::Spawn));
  ascan::Session pool(cfg_mode(sim::ExecutorMode::Pool));
  return op(spawn, pool);
}

}  // namespace

static void BM_L2CacheAccess(benchmark::State& state) {
  sim::L2Cache l2(96ull << 20, 512);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l2.access(addr, 32768, (addr & 1) != 0));
    addr += 32768;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32768);
}
BENCHMARK(BM_L2CacheAccess);

static void BM_HbmArbiterChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::HbmArbiter a(600e9, 800e9);
    double t = 0;
    for (int i = 0; i < flows; ++i) a.add_flow(t, 64e3, 128e9, 1.0, 1.0);
    while (!a.idle()) {
      t = a.next_completion_time();
      benchmark::DoNotOptimize(a.advance_and_pop(t));
    }
  }
}
BENCHMARK(BM_HbmArbiterChurn)->Arg(4)->Arg(60);

static void BM_SimulateScanU(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  acc::Device dev(sim::MachineConfig::single_core());
  auto x = dev.alloc<half>(n, half(0.0f));
  auto y = dev.alloc<half>(n, half(0.0f));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::scan_u(dev, x.tensor(), y.tensor(), n, 128));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulateScanU)->Arg(1 << 16)->Arg(1 << 18);

static void BM_SimulateMcScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  acc::Device dev;
  auto x = dev.alloc<half>(n, half(0.0f));
  auto y = dev.alloc<float>(n, 0.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::mcscan<half, float>(dev, x.tensor(), y.tensor(), n, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulateMcScan)->Arg(1 << 18)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// End-to-end host throughput of the Session API, spawn vs pool executor.
// `launches_per_s` is the headline metric for the persistent-pool engine:
// it counts simulated kernel launches retired per host wall-clock second.
// `items_per_second` (built in) is simulated elements per host second.

static void BM_SessionCumsum(benchmark::State& state, sim::ExecutorMode mode) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto x = bench_workload(n);
  const bool ok = cross_executor_identical([&](ascan::Session& a,
                                               ascan::Session& b) {
    const auto ra = a.cumsum(x);
    const auto rb = b.cumsum(x);
    return ra.report.time_s == rb.report.time_s && ra.values == rb.values;
  });
  if (!ok) {
    state.SkipWithError("spawn/pool cumsum diverged");
    return;
  }
  ascan::Session s(cfg_mode(mode));
  std::int64_t launches = 0;
  for (auto _ : state) {
    const auto r = s.cumsum(x);
    launches += r.report.launches;
    benchmark::DoNotOptimize(r.values.data());
  }
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.counters["cross_exec_ok"] = 1.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_SessionCumsum, spawn, sim::ExecutorMode::Spawn)
    ->Arg(1 << 12)->Arg(1 << 16)->UseRealTime();
BENCHMARK_CAPTURE(BM_SessionCumsum, pool, sim::ExecutorMode::Pool)
    ->Arg(1 << 12)->Arg(1 << 16)->UseRealTime();

static void BM_SessionSort(benchmark::State& state, sim::ExecutorMode mode) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<half> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = (i * 2654435761u) % n;
    keys[i] = half(static_cast<float>(p) - static_cast<float>(n / 2));
  }
  const bool ok = cross_executor_identical([&](ascan::Session& a,
                                               ascan::Session& b) {
    const auto ra = a.sort(keys);
    const auto rb = b.sort(keys);
    return ra.report.time_s == rb.report.time_s && ra.values == rb.values &&
           ra.indices == rb.indices;
  });
  if (!ok) {
    state.SkipWithError("spawn/pool sort diverged");
    return;
  }
  ascan::Session s(cfg_mode(mode));
  std::int64_t launches = 0;
  for (auto _ : state) {
    const auto r = s.sort(keys);
    launches += r.report.launches;
    benchmark::DoNotOptimize(r.values.data());
  }
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.counters["cross_exec_ok"] = 1.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_SessionSort, spawn, sim::ExecutorMode::Spawn)
    ->Arg(1 << 11)->UseRealTime();
BENCHMARK_CAPTURE(BM_SessionSort, pool, sim::ExecutorMode::Pool)
    ->Arg(1 << 11)->UseRealTime();

static void BM_SessionTopPSampleBatch(benchmark::State& state,
                                      sim::ExecutorMode mode) {
  const std::size_t batch = 4;
  const std::size_t vocab = static_cast<std::size_t>(state.range(0));
  std::vector<half> probs(batch * vocab);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < vocab; ++i) {
      const std::size_t p = (i * 2654435761u) % vocab;
      probs[b * vocab + i] = half(static_cast<float>(p + 1) /
                                  static_cast<float>(vocab));
    }
  }
  const std::vector<double> u = {0.1, 0.4, 0.7, 0.95};
  const bool ok = cross_executor_identical([&](ascan::Session& a,
                                               ascan::Session& b) {
    const auto ra = a.top_p_sample_batch(probs, batch, vocab, 0.9, u);
    const auto rb = b.top_p_sample_batch(probs, batch, vocab, 0.9, u);
    return ra.report.time_s == rb.report.time_s && ra.tokens == rb.tokens;
  });
  if (!ok) {
    state.SkipWithError("spawn/pool top_p diverged");
    return;
  }
  ascan::Session s(cfg_mode(mode));
  std::int64_t launches = 0;
  for (auto _ : state) {
    const auto r = s.top_p_sample_batch(probs, batch, vocab, 0.9, u);
    launches += r.report.launches;
    benchmark::DoNotOptimize(r.tokens.data());
  }
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.counters["cross_exec_ok"] = 1.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * vocab));
}
BENCHMARK_CAPTURE(BM_SessionTopPSampleBatch, spawn, sim::ExecutorMode::Spawn)
    ->Arg(512)->UseRealTime();
BENCHMARK_CAPTURE(BM_SessionTopPSampleBatch, pool, sim::ExecutorMode::Pool)
    ->Arg(512)->UseRealTime();

// The purest repeated-launch workload: one full-width kernel relaunched on
// device-resident buffers. This isolates per-launch host overhead (thread
// management + context setup + replay), which is exactly what the pool
// attacks.
static void BM_RepeatedLaunch(benchmark::State& state,
                              sim::ExecutorMode mode) {
  const std::size_t n = 8192;
  acc::Device dev(cfg_mode(mode));
  auto x = dev.alloc<half>(n, half(2.0f));
  auto y = dev.alloc<half>(n);
  std::int64_t launches = 0;
  for (auto _ : state) {
    const auto r = kernels::copy_kernel<half>(dev, x.tensor(), y.tensor(), n, 0);
    launches += r.launches;
    benchmark::DoNotOptimize(r.time_s);
  }
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_RepeatedLaunch, spawn, sim::ExecutorMode::Spawn)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_RepeatedLaunch, pool, sim::ExecutorMode::Pool)
    ->UseRealTime();

BENCHMARK_MAIN();
