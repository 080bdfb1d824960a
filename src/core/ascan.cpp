#include "core/ascan.hpp"

#include "kernels/batched_scan.hpp"
#include "kernels/copy_kernel.hpp"
#include "kernels/mcscan.hpp"
#include "kernels/radix_sort.hpp"
#include "kernels/reduce.hpp"
#include "kernels/sampling.hpp"
#include "kernels/scan_u.hpp"
#include "kernels/segmented_scan.hpp"
#include "kernels/scan_ul1.hpp"
#include "kernels/sort_baseline.hpp"
#include "kernels/split.hpp"
#include "kernels/topk.hpp"
#include "kernels/vec_cumsum.hpp"

namespace ascan {

namespace k = ascend::kernels;
using ascend::Error;

Session::Session(MachineConfig cfg) : dev_(cfg) {}

// ---------------------------------------------------------------------------
// Resilient execution: bounded retries with simulated backoff, then core
// exclusion (see RetryPolicy in the header for the state machine).

Report Session::run_resilient(const char* what,
                              const std::function<Report()>& attempt) {
  (void)what;
  last_stats_ = RetryStats{};
  // Whatever happens, fold this call's stats into the lifetime totals —
  // the per-device degradation view of a multi-Session serving cluster.
  const auto accumulate = [this](bool failed) {
    cumulative_stats_.calls++;
    if (failed) cumulative_stats_.failures++;
    cumulative_stats_.attempts += last_stats_.attempts;
    cumulative_stats_.retries += last_stats_.retries;
    cumulative_stats_.excluded_cores += last_stats_.excluded_cores;
    cumulative_stats_.backoff_s += last_stats_.backoff_s;
  };
  try {
    Report r = resilient_loop(attempt);
    accumulate(false);
    total_ += r;
    return r;
  } catch (...) {
    accumulate(true);
    throw;
  }
}

Report Session::resilient_loop(const std::function<Report()>& attempt) {
  Report penalty;  // simulated cost of failed attempts + backoff
  int attempts_at_level = 0;
  double backoff = retry_.backoff_s;
  // Deterministic anti-stampede jitter (see RetryPolicy::backoff_jitter):
  // a pure splitmix64 hash of (seed, call ordinal, retry ordinal), so the
  // same policy yields the same delays on every run.
  const auto jittered = [this](double b) {
    if (retry_.backoff_jitter <= 0) return b;
    const auto mix64 = [](std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return x ^ (x >> 31);
    };
    std::uint64_t h = mix64(retry_.jitter_seed ^ 0x6a09e667f3bcc909ull);
    h = mix64(h ^ cumulative_stats_.calls);
    h = mix64(h ^ last_stats_.retries);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    return b * (1.0 + retry_.backoff_jitter * (2.0 * u - 1.0));
  };
  for (;;) {
    ++attempts_at_level;
    ++last_stats_.attempts;
    try {
      Report r = attempt();
      r += penalty;
      r.retries = last_stats_.retries;
      r.excluded_cores = last_stats_.excluded_cores;
      r.backoff_s = last_stats_.backoff_s;
      return r;
    } catch (const ascend::sim::FaultError& e) {
      penalty += e.attempt_report();
      last_stats_.last_fault = e.kind();
      if (e.retryable() && attempts_at_level < retry_.max_attempts) {
        ++last_stats_.retries;
        const double applied = jittered(backoff);
        penalty.time_s += applied;
        last_stats_.backoff_s += applied;
        backoff *= 2;
        continue;
      }
      // Retries exhausted (or the fault is not retryable on this core set,
      // e.g. an uncorrectable ECC page): degrade gracefully by taking the
      // core offline and relaunching with blocks-1.
      if (last_stats_.excluded_cores <
              static_cast<std::uint32_t>(retry_.max_core_exclusions) &&
          dev_.config().num_ai_cores > 1) {
        exclude_core();
        ++last_stats_.excluded_cores;
        ++last_stats_.retries;
        const double applied = jittered(backoff);
        penalty.time_s += applied;
        last_stats_.backoff_s += applied;
        backoff *= 2;
        attempts_at_level = 0;
        continue;
      }
      throw;  // out of options — the typed error reaches the caller
    }
  }
}

void Session::exclude_core() {
  MachineConfig cfg = dev_.config();
  ASCAN_ASSERT(cfg.num_ai_cores > 1, "cannot exclude the last AI core");
  cfg.num_ai_cores -= 1;
  // The injector (and its launch ordinal, which the deterministic fault
  // sequence is keyed on) survives the device swap.
  auto injector = dev_.fault_injector();
  dev_ = ascend::acc::Device(cfg);
  dev_.set_fault_injector(std::move(injector));
}

// ---------------------------------------------------------------------------
// Operators. Each validates its arguments (typed ascend::Error on misuse),
// then runs its kernel(s) under run_resilient: the attempt lambda
// is re-invoked verbatim on retry, which is safe because kernels fully
// overwrite their outputs and never modify their inputs.

ValueResult<float> Session::cumsum(const std::vector<half>& x,
                                   const ScanOptions& opt) {
  ASCAN_CHECK(!x.empty(), "cumsum: empty input");
  ASCAN_CHECK(opt.algo == ScanAlgo::MCScan,
              "fp32-output cumsum is the MCScan path; use cumsum_f16 for "
              "the single-core algorithms");
  ASCAN_CHECK(opt.blocks <= config().num_ai_cores,
              "cumsum: " << opt.blocks << " blocks exceed "
                         << config().num_ai_cores << " online AI cores");
  auto in = dev_.upload(x);
  auto out = dev_.alloc<float>(x.size());
  ValueResult<float> r;
  r.report = run_resilient("cumsum", [&] {
    return k::mcscan<half, float>(
        dev_, in.tensor(), out.tensor(), x.size(),
        {.s = opt.tile, .blocks = opt.blocks, .exclusive = opt.exclusive});
  });
  r.values = std::move(out.host());
  return r;
}

ValueResult<half> Session::cumsum_f16(const std::vector<half>& x,
                                      const ScanOptions& opt) {
  ASCAN_CHECK(!x.empty(), "cumsum_f16: empty input");
  auto in = dev_.upload(x);
  auto out = dev_.alloc<half>(x.size());
  ValueResult<half> r;
  r.report = run_resilient("cumsum_f16", [&]() -> Report {
    switch (opt.algo) {
      case ScanAlgo::ScanU:
        ASCAN_CHECK(!opt.exclusive, "exclusive scan is MCScan-only (§4.3)");
        return k::scan_u(dev_, in.tensor(), out.tensor(), x.size(), opt.tile);
      case ScanAlgo::ScanUL1:
        ASCAN_CHECK(!opt.exclusive, "exclusive scan is MCScan-only (§4.3)");
        return k::scan_ul1(dev_, in.tensor(), out.tensor(), x.size(),
                           opt.tile);
      case ScanAlgo::VectorBaseline:
        ASCAN_CHECK(!opt.exclusive, "exclusive scan is MCScan-only (§4.3)");
        return k::vec_cumsum(dev_, in.tensor(), out.tensor(), x.size());
      case ScanAlgo::MCScan:
      default:
        throw Error("MCScan emits fp32; call cumsum() instead");
    }
  });
  r.values = std::move(out.host());
  return r;
}

ValueResult<std::int32_t> Session::cumsum_i8(const std::vector<std::int8_t>& x,
                                             const ScanOptions& opt) {
  ASCAN_CHECK(!x.empty(), "cumsum_i8: empty input");
  ASCAN_CHECK(opt.algo == ScanAlgo::MCScan,
              "int8 scans run on the MCScan path (§4.3)");
  auto in = dev_.upload(x);
  auto out = dev_.alloc<std::int32_t>(x.size());
  ValueResult<std::int32_t> r;
  r.report = run_resilient("cumsum_i8", [&] {
    return k::mcscan<std::int8_t, std::int32_t>(
        dev_, in.tensor(), out.tensor(), x.size(),
        {.s = opt.tile, .blocks = opt.blocks, .exclusive = opt.exclusive});
  });
  r.values = std::move(out.host());
  return r;
}

ValueResult<half> Session::cumsum_batched(const std::vector<half>& x,
                                          std::size_t batch, std::size_t len,
                                          std::size_t tile,
                                          bool use_ul1_schedule) {
  ASCAN_CHECK(!x.empty(), "cumsum_batched: empty input");
  ASCAN_CHECK(batch > 0, "cumsum_batched: batch must be > 0");
  ASCAN_CHECK(len > 0, "cumsum_batched: len must be > 0");
  ASCAN_CHECK(x.size() == batch * len, "cumsum_batched: shape mismatch");
  auto in = dev_.upload(x);
  auto out = dev_.alloc<half>(x.size());
  ValueResult<half> r;
  r.report = run_resilient("cumsum_batched", [&] {
    return use_ul1_schedule
               ? k::batched_scan_ul1(dev_, in.tensor(), out.tensor(), batch,
                                     len, {.s = tile})
               : k::batched_scan_u(dev_, in.tensor(), out.tensor(), batch,
                                   len, {.s = tile});
  });
  r.values = std::move(out.host());
  return r;
}

ValueResult<half> Session::clone(const std::vector<half>& x) {
  ASCAN_CHECK(!x.empty(), "clone: empty input");
  auto in = dev_.upload(x);
  auto out = dev_.alloc<half>(x.size());
  ValueResult<half> r;
  r.report = run_resilient("clone", [&] {
    return k::copy_kernel<half>(dev_, in.tensor(), out.tensor(), x.size());
  });
  r.values = std::move(out.host());
  return r;
}

SplitResult Session::split(const std::vector<half>& x,
                           const std::vector<std::int8_t>& mask,
                           std::size_t tile) {
  ASCAN_CHECK(!x.empty(), "split: empty input");
  ASCAN_CHECK(x.size() == mask.size(), "split: mask length mismatch");
  auto in = dev_.upload(x);
  auto m = dev_.upload(mask);
  auto vals = dev_.alloc<half>(x.size());
  auto idx = dev_.alloc<std::int32_t>(x.size());
  SplitResult r;
  r.report = run_resilient("split", [&] {
    auto sr = k::split_ind<half>(dev_, in.tensor(), {}, m.tensor(),
                                 vals.tensor(), idx.tensor(), x.size(),
                                 {.s = tile});
    r.num_true = sr.num_true;
    return sr.report;
  });
  r.values = std::move(vals.host());
  r.indices = std::move(idx.host());
  return r;
}

MaskedSelectResult Session::masked_select(const std::vector<half>& x,
                                          const std::vector<std::int8_t>& mask,
                                          std::size_t tile, bool baseline) {
  ASCAN_CHECK(!x.empty(), "masked_select: empty input");
  ASCAN_CHECK(x.size() == mask.size(), "masked_select: mask length mismatch");
  auto in = dev_.upload(x);
  auto m = dev_.upload(mask);
  auto out = dev_.alloc<half>(x.size());
  MaskedSelectResult r;
  std::size_t num_true = 0;
  r.report = run_resilient("masked_select", [&] {
    const auto sr =
        baseline ? k::masked_select_baseline(dev_, in.tensor(), m.tensor(),
                                             out.tensor(), x.size())
                 : k::compress(dev_, in.tensor(), m.tensor(), out.tensor(),
                               x.size(), {.s = tile});
    num_true = sr.num_true;
    return sr.report;
  });
  out.host().resize(num_true);
  r.values = std::move(out.host());
  return r;
}

SortResult Session::sort(const std::vector<half>& keys, bool descending,
                         SortAlgo algo, std::size_t tile) {
  ASCAN_CHECK(!keys.empty(), "sort: empty input");
  auto in = dev_.upload(keys);
  auto vals = dev_.alloc<half>(keys.size());
  auto idx = dev_.alloc<std::int32_t>(keys.size());
  SortResult r;
  r.report = run_resilient("sort", [&] {
    return algo == SortAlgo::Radix
               ? k::radix_sort_f16(dev_, in.tensor(), vals.tensor(),
                                   idx.tensor(), keys.size(),
                                   {.s = tile, .descending = descending})
               : k::sort_baseline_f16(dev_, in.tensor(), vals.tensor(),
                                      idx.tensor(), keys.size(), descending);
  });
  r.values = std::move(vals.host());
  r.indices = std::move(idx.host());
  return r;
}

TopKResult Session::topk(const std::vector<half>& x, std::size_t k,
                         bool baseline, std::size_t tile) {
  ASCAN_CHECK(!x.empty(), "topk: empty input");
  ASCAN_CHECK(k > 0 && k <= x.size(), "topk: k=" << k << " out of range for "
                                                 << x.size() << " elements");
  auto in = dev_.upload(x);
  auto vals = dev_.alloc<half>(k);
  auto idx = dev_.alloc<std::int32_t>(k);
  TopKResult r;
  r.report = run_resilient("topk", [&] {
    return baseline
               ? k::topk_baseline_f16(dev_, in.tensor(), vals.tensor(),
                                      idx.tensor(), x.size(), k)
               : k::topk_f16(dev_, in.tensor(), vals.tensor(), idx.tensor(),
                             x.size(), k, {.s = tile});
  });
  r.values = std::move(vals.host());
  r.indices = std::move(idx.host());
  return r;
}

SampleResult Session::top_p_sample(const std::vector<half>& probs, double p,
                                   double u, bool baseline_ops,
                                   std::size_t tile) {
  ASCAN_CHECK(!probs.empty(), "top_p_sample: empty input");
  auto in = dev_.upload(probs);
  SampleResult r;
  r.report = run_resilient("top_p_sample", [&] {
    const auto tr = k::top_p_sample(dev_, in.tensor(), probs.size(), p, u,
                                    {.s = tile,
                                     .use_baseline_ops = baseline_ops});
    r.index = tr.token;
    r.nucleus = tr.nucleus;
    return tr.report;
  });
  return r;
}

SampleResult Session::multinomial(const std::vector<half>& weights, double u,
                                  std::size_t tile) {
  ASCAN_CHECK(!weights.empty(), "multinomial: empty input");
  auto in = dev_.upload(weights);
  SampleResult r;
  r.report = run_resilient("multinomial", [&] {
    const auto wr =
        k::weighted_sample(dev_, in.tensor(), weights.size(), u, {.s = tile});
    r.index = wr.index;
    return wr.report;
  });
  return r;
}

Session::BatchSampleResult Session::top_p_sample_batch(
    const std::vector<half>& probs, std::size_t batch, std::size_t vocab,
    double p, const std::vector<double>& u, std::size_t tile) {
  ASCAN_CHECK(!probs.empty(), "top_p_sample_batch: empty input");
  ASCAN_CHECK(batch > 0, "top_p_sample_batch: batch must be > 0");
  ASCAN_CHECK(vocab > 0, "top_p_sample_batch: vocab must be > 0");
  ASCAN_CHECK(probs.size() == batch * vocab,
              "top_p_sample_batch: shape mismatch");
  ASCAN_CHECK(u.size() == batch, "top_p_sample_batch: one variate per row");
  ASCAN_CHECK(p > 0.0 && p <= 1.0,
              "top_p_sample_batch: p=" << p << " outside (0, 1]");
  for (std::size_t b = 0; b < batch; ++b) {
    ASCAN_CHECK(u[b] >= 0.0 && u[b] < 1.0,
                "top_p_sample_batch: u[" << b << "]=" << u[b]
                                         << " outside [0, 1)");
  }
  BatchSampleResult r;
  auto in = dev_.upload(probs);
  r.report = run_resilient("top_p_sample_batch", [&] {
    Report rep;
    r.tokens.clear();
    r.tokens.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const auto tr = k::top_p_sample(dev_, in.tensor().sub(b * vocab, vocab),
                                      vocab, p, u[b], {.s = tile});
      r.tokens.push_back(tr.token);
      rep += tr.report;
    }
    return rep;
  });
  return r;
}

ValueResult<float> Session::segmented_cumsum(
    const std::vector<half>& x, const std::vector<std::int8_t>& flags) {
  ASCAN_CHECK(!x.empty(), "segmented_cumsum: empty input");
  ASCAN_CHECK(x.size() == flags.size(), "segmented_cumsum: shape mismatch");
  auto in = dev_.upload(x);
  auto f = dev_.upload(flags);
  auto out = dev_.alloc<float>(x.size());
  ValueResult<float> r;
  r.report = run_resilient("segmented_cumsum", [&] {
    return k::segmented_scan(dev_, in.tensor(), f.tensor(), out.tensor(),
                             x.size(), {});
  });
  r.values = std::move(out.host());
  return r;
}

ValueResult<float> Session::reduce(const std::vector<half>& x,
                                   bool use_cube) {
  ASCAN_CHECK(!x.empty(), "reduce: empty input");
  auto in = dev_.upload(x);
  ValueResult<float> r;
  float value = 0;
  r.report = run_resilient("reduce", [&] {
    const auto rr = use_cube ? k::reduce_cube(dev_, in.tensor(), x.size(), {})
                             : k::reduce_vector(dev_, in.tensor(), x.size());
    value = rr.value;
    return rr.report;
  });
  r.values = {value};
  return r;
}

}  // namespace ascan
