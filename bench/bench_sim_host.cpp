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

std::vector<half> bench_workload(std::size_t n) {
  std::vector<half> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = half(static_cast<float>((i * 2654435761u) % 7) - 3.0f);
  }
  return x;
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
// End-to-end host throughput of the Session API. `launches_per_s` is the
// headline metric of the host execution engine: it counts simulated kernel
// launches retired per host wall-clock second. `items_per_second` (built
// in) is simulated elements per host second.

static void BM_SessionCumsum(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto x = bench_workload(n);
  ascan::Session s(sim::MachineConfig::ascend_910b4());
  std::int64_t launches = 0;
  for (auto _ : state) {
    const auto r = s.cumsum(x);
    launches += r.report.launches;
    benchmark::DoNotOptimize(r.values.data());
  }
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SessionCumsum)->Arg(1 << 12)->Arg(1 << 16)->UseRealTime();

// Row-wise scans on the paired ScanU schedule: 16x320 is one serve_small
// launch (each row fills 3 of a 128x128 tile's rows), 1x320 leaves one
// block busy and shows the fixed cost of a launch, and 256x2048 is the
// paper_suite shape.
static void BM_SessionCumsumBatched(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto len = static_cast<std::size_t>(state.range(1));
  const auto x = bench_workload(batch * len);
  ascan::Session s(sim::MachineConfig::ascend_910b4());
  std::int64_t launches = 0;
  for (auto _ : state) {
    const auto r = s.cumsum_batched(x, batch, len);
    launches += r.report.launches;
    benchmark::DoNotOptimize(r.values.data());
  }
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * len));
}
BENCHMARK(BM_SessionCumsumBatched)
    ->Args({16, 320})
    ->Args({1, 320})
    ->Args({256, 2048})
    ->UseRealTime();

static void BM_SessionSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<half> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = (i * 2654435761u) % n;
    keys[i] = half(static_cast<float>(p) - static_cast<float>(n / 2));
  }
  ascan::Session s(sim::MachineConfig::ascend_910b4());
  std::int64_t launches = 0;
  for (auto _ : state) {
    const auto r = s.sort(keys);
    launches += r.report.launches;
    benchmark::DoNotOptimize(r.values.data());
  }
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SessionSort)->Arg(1 << 11)->UseRealTime();

static void BM_SessionTopPSampleBatch(benchmark::State& state) {
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
  ascan::Session s(sim::MachineConfig::ascend_910b4());
  std::int64_t launches = 0;
  for (auto _ : state) {
    const auto r = s.top_p_sample_batch(probs, batch, vocab, 0.9, u);
    launches += r.report.launches;
    benchmark::DoNotOptimize(r.tokens.data());
  }
  state.counters["launches_per_s"] = benchmark::Counter(
      static_cast<double>(launches), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * vocab));
}
BENCHMARK(BM_SessionTopPSampleBatch)->Arg(512)->UseRealTime();

// The purest repeated-launch workload: one full-width kernel relaunched on
// device-resident buffers. This isolates per-launch host overhead (carrier
// dispatch, fiber switches, context setup and replay).
static void BM_RepeatedLaunch(benchmark::State& state) {
  const std::size_t n = 8192;
  acc::Device dev(sim::MachineConfig::ascend_910b4());
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
BENCHMARK(BM_RepeatedLaunch)->UseRealTime();

BENCHMARK_MAIN();
