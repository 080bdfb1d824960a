// Per-layer probes of the traced run: the kernel layer and the ascendc
// runtime timed directly on device-resident buffers, and the sim counters
// of a workload's summed Report.
#include "ascendc/ascendc.hpp"
#include "kernels/batched_scan.hpp"
#include "kernels/copy_kernel.hpp"
#include "kernels/mcscan.hpp"
#include "kernels/radix_sort.hpp"
#include "kernels/sampling.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace k = ascend::kernels;
using ascend::acc::Device;

namespace {

/// Median wall milliseconds of `reps` calls of `f`, each recorded as a
/// span named `name`.
template <typename F>
double median_ms(const char* name, int reps, F&& f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    Tracer::get().span(name, t0, t1, static_cast<std::uint64_t>(r));
    ms.push_back(secs(t1 - t0) * 1e3);
  }
  return median(ms);
}

}  // namespace

void run_layer_probes(const Options& opt, RunResult& out) {
  auto& m = out.metrics;
  Device dev;
  auto rng = input_rng(opt.seed, 7, 0);

  {  // The paper_suite shapes of the same kernels.
    const std::size_t n = 1u << 22;
    auto x = dev.upload(bits_f16(rng, n));
    auto y = dev.alloc<float>(n);
    k::mcscan<half, float>(dev, x.tensor(), y.tensor(), n);  // warm-up
    m["kernels.mcscan_ms"] = single_metric(median_ms("kernels.mcscan", 5, [&] {
      k::mcscan<half, float>(dev, x.tensor(), y.tensor(), n);
    }), "ms", 5);
  }
  {
    const std::size_t batch = 256, len = 2048;
    auto x = dev.upload(bits_f16(rng, batch * len));
    auto y = dev.alloc<half>(batch * len);
    k::batched_scan_u(dev, x.tensor(), y.tensor(), batch, len);
    m["kernels.batched_scan_ms"] = single_metric(
        median_ms("kernels.batched_scan", 5, [&] {
          k::batched_scan_u(dev, x.tensor(), y.tensor(), batch, len);
        }), "ms", 5);
  }
  {
    const std::size_t n = 65536;
    auto keys = dev.upload(rng.uniform_f16(n, -10.0, 10.0));
    auto out_keys = dev.alloc<half>(n);
    auto out_idx = dev.alloc<std::int32_t>(n);
    k::radix_sort_f16(dev, keys.tensor(), out_keys.tensor(), out_idx.tensor(), n);
    m["kernels.radix_sort_ms"] = single_metric(
        median_ms("kernels.radix_sort", 5, [&] {
          k::radix_sort_f16(dev, keys.tensor(), out_keys.tensor(),
                            out_idx.tensor(), n);
        }), "ms", 5);
  }
  {
    const std::size_t vocab = 16384;
    auto probs = dev.upload(exact_probs_f16(rng, vocab));
    k::top_p_sample(dev, probs.tensor(), vocab, 0.9, 0.5);
    m["kernels.top_p_ms"] = single_metric(median_ms("kernels.top_p", 5, [&] {
      k::top_p_sample(dev, probs.tensor(), vocab, 0.9, 0.5);
    }), "ms", 5);
  }

  // ascendc: one full-width launch of a tiny copy (8 KiB), so the fixed
  // host cost of a launch dominates, and one request-sized GM allocation.
  {
    const std::size_t n = 4096;
    auto x = dev.upload(bits_f16(rng, n));
    auto y = dev.alloc<half>(n);
    k::copy_kernel<half>(dev, x.tensor(), y.tensor(), n);
    constexpr int kReps = 400;
    std::vector<double> us;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      k::copy_kernel<half>(dev, x.tensor(), y.tensor(), n);
      us.push_back(secs(Clock::now() - t0) * 1e6);
    }
    m["ascendc.launch_us_p50"] = single_metric(median(us), "us", us.size());
  }
  {  // An allocation and its release, timed 100 at a time (one is shorter
     // than the clock's resolution).
    constexpr int kReps = 200, kBatch = 100;
    std::vector<double> us;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        auto buf = dev.alloc<half>(320);
      }
      us.push_back(secs(Clock::now() - t0) * 1e6 / kBatch);
    }
    m["ascendc.alloc_us_p50"] = single_metric(median(us), "us", us.size());
  }
}

void add_sim_metrics(const ascend::sim::Report& total, std::uint64_t ops,
                     double host_s, RunResult& out) {
  auto& m = out.metrics;
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  const double trace_ops = static_cast<double>(total.num_ops);
  const double gm = static_cast<double>(total.gm_read_bytes) +
                    static_cast<double>(total.gm_write_bytes);
  m["ascendc.launches_per_op"] =
      single_metric(total.launches / n, "launches/op", ops);
  m["sim.trace_ops_per_op"] = single_metric(trace_ops / n, "ops/op", ops);
  m["sim.host_ns_per_trace_op"] =
      single_metric(trace_ops > 0 ? host_s * 1e9 / trace_ops : 0.0, "ns", ops);
  m["sim.gm_bytes_per_op"] = single_metric(gm / n, "B/op", ops);
  // L2 hits counted against all GM traffic (reads and write-allocates).
  m["sim.l2_hit_share"] = single_metric(
      gm > 0 ? static_cast<double>(total.l2_hit_bytes) / gm : 0.0, "share", ops);
  m["sim.hbm_busy_share"] = single_metric(
      total.time_s > 0 ? total.hbm_busy_s / total.time_s : 0.0, "share", ops);
  m["sim.cube_busy_us"] = single_metric(total.cube_busy_s / n * 1e6, "us", ops);
  m["sim.vec_busy_us"] = single_metric(total.vec_busy_s / n * 1e6, "us", ops);
  m["sim.mte_busy_us"] = single_metric(total.mte_busy_s / n * 1e6, "us", ops);
}

}  // namespace perfbench
