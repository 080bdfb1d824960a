// paper_suite: one caller thread runs a fixed list of the paper's
// operators back to back through ascan::Session, pass after pass. Each
// input is regenerated from (seed, op) before its call and each output is
// checked after it, both outside the timed call.
#include <algorithm>
#include <cstdio>

#include "check.hpp"
#include "core/ascan.hpp"
#include "kernels/mcscan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ascan::Report;
using ascan::Session;

enum class Kind { Cumsum, CumsumBatched, Sort, Split, TopP, Reduce };

struct SuiteOp {
  const char* name;  ///< metric / span suffix
  Kind kind;
  std::size_t batch;  ///< rows (CumsumBatched, TopP); 1 otherwise
  std::size_t len;    ///< elements per row
  std::size_t elems() const { return batch * len; }
};

// Sizes: the two MCScan sizes straddle the modelled 96 MiB L2 (fp16 in +
// fp32 out = 6 bytes per element: 24 MiB fits, 120 MiB does not); the
// others are sized so that no op kind takes more than about half of a
// pass's host time. 2048-element 0/1 rows keep fp16 prefix sums exact.
constexpr SuiteOp kOps[] = {
    {"cumsum_hbm", Kind::Cumsum, 1, 20u << 20},
    {"cumsum_l2", Kind::Cumsum, 1, 1u << 22},
    {"cumsum_batched", Kind::CumsumBatched, 256, 2048},
    {"sort", Kind::Sort, 1, 65536},
    {"split", Kind::Split, 1, 1u << 21},
    {"top_p", Kind::TopP, 2, 16384},
    {"reduce", Kind::Reduce, 1, 1u << 22},
};
constexpr std::size_t kNumOps = std::size(kOps);
constexpr double kTopP = 0.9;
/// on_time_share limit for one whole pass (host wall seconds).
constexpr double kPassLimitS = 4.0;
constexpr int kSetups = 3;
constexpr int kSimPasses = 3;  ///< also the minimum number of passes

struct Input {
  std::vector<half> x;
  std::vector<std::int8_t> mask;
  std::vector<double> u;
  bool descending = false;
};

Input make_input(const SuiteOp& op, std::uint64_t seed, std::size_t idx) {
  auto rng = input_rng(seed, 1, idx);
  Input in;
  switch (op.kind) {
    case Kind::Cumsum:
    case Kind::CumsumBatched:
      in.x = bits_f16(rng, op.elems());
      break;
    case Kind::Sort:
      in.x = rng.uniform_f16(op.len, -10.0, 10.0);
      in.descending = rng.bernoulli(0.5);
      break;
    case Kind::Split:
      in.x = rng.uniform_f16(op.len, -1.0, 1.0);
      in.mask = rng.mask_i8(op.len, 0.5);
      break;
    case Kind::TopP:
      for (std::size_t b = 0; b < op.batch; ++b) {
        const auto row = exact_probs_f16(rng, op.len);
        in.x.insert(in.x.end(), row.begin(), row.end());
        in.u.push_back(rng.next_double());
      }
      break;
    case Kind::Reduce:
      in.x = rng.uniform_f16(op.len, 0.0, 1.0);
      break;
  }
  return in;
}

/// The result of one Session call, checked by verify() after the timed
/// call returns.
struct Call {
  Report report;
  std::vector<float> f32;
  std::vector<half> f16;
  std::vector<std::int32_t> idx;
  std::size_t num_true = 0;
};

Call call(Session& s, const SuiteOp& op, const Input& in) {
  Call c;
  switch (op.kind) {
    case Kind::Cumsum: {
      auto r = s.cumsum(in.x);
      c.report = r.report;
      c.f32 = std::move(r.values);
      break;
    }
    case Kind::CumsumBatched: {
      auto r = s.cumsum_batched(in.x, op.batch, op.len);
      c.report = r.report;
      c.f16 = std::move(r.values);
      break;
    }
    case Kind::Sort: {
      auto r = s.sort(in.x, in.descending);
      c.report = r.report;
      c.f16 = std::move(r.values);
      c.idx = std::move(r.indices);
      break;
    }
    case Kind::Split: {
      auto r = s.split(in.x, in.mask);
      c.report = r.report;
      c.f16 = std::move(r.values);
      c.idx = std::move(r.indices);
      c.num_true = r.num_true;
      break;
    }
    case Kind::TopP: {
      auto r = s.top_p_sample_batch(in.x, op.batch, op.len, kTopP, in.u);
      c.report = r.report;
      c.idx = std::move(r.tokens);
      break;
    }
    case Kind::Reduce: {
      auto r = s.reduce(in.x);
      c.report = r.report;
      c.f32 = std::move(r.values);
      break;
    }
  }
  return c;
}

bool verify(const SuiteOp& op, const Input& in, const Call& c) {
  switch (op.kind) {
    case Kind::Cumsum:
      return check_cumsum_f32(in.x, c.f32);
    case Kind::CumsumBatched:
      for (std::size_t b = 0; b < op.batch; ++b) {
        const std::span<const half> x(in.x.data() + b * op.len, op.len);
        const std::span<const half> y(c.f16.data() + b * op.len, op.len);
        if (c.f16.size() != in.x.size() || !check_cumsum_f16(x, y)) return false;
      }
      return true;
    case Kind::Sort:
      return check_sort(in.x, in.descending, c.f16, c.idx);
    case Kind::Split:
      return check_split(in.x, in.mask, c.f16, c.idx, c.num_true);
    case Kind::TopP:
      if (c.idx.size() != op.batch) return false;
      for (std::size_t b = 0; b < op.batch; ++b) {
        const std::span<const half> row(in.x.data() + b * op.len, op.len);
        if (!check_top_p(row, kTopP, in.u[b], c.idx[b])) return false;
      }
      return true;
    case Kind::Reduce:
      return c.f32.size() == 1 && check_reduce(in.x, c.f32[0]);
  }
  return false;
}

}  // namespace

RunResult run_paper_suite(const Options& opt) {
  RunResult out;
  Tracer& tracer = Tracer::get();

  // Set-up: build the Session and make one warm-up call of every op,
  // kSetups times; the last Session is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Session> session;
  for (int rep = 0; rep < kSetups; ++rep) {
    session.reset();
    const auto t0 = Clock::now();
    session = std::make_unique<Session>();
    double t = secs(Clock::now() - t0);
    for (std::size_t i = 0; i < kNumOps; ++i) {
      const Input in = make_input(kOps[i], opt.seed, i);
      const auto c0 = Clock::now();
      const Call c = call(*session, kOps[i], in);
      t += secs(Clock::now() - c0);
      ++out.attempted;
      if (!verify(kOps[i], in, c)) ++out.mismatches;
    }
    setup_s.push_back(t);
  }

  // Measurement: whole passes until the window is used up. Host noise on
  // a shared machine comes in episodes of seconds, so each op kind's time
  // is taken as its median over the passes and the throughput metrics
  // describe the pass made of those medians.
  std::vector<std::vector<double>> op_s(kNumOps), op_cpu_s(kNumOps);
  std::vector<double> pass_ms;
  // Simulated time depends on the device's history (L2 contents, GM
  // addresses), so it is summed over the first kSimPasses passes only:
  // the same calls in the same order in every run.
  Report sim_total;
  double sim_host_s = 0;
  std::uint64_t attempts = 0, calls = 0;
  const auto window0 = Clock::now();
  for (int pass = 0; pass < kSimPasses || secs(Clock::now() - window0) < opt.seconds;
       ++pass) {
    double busy = 0;
    for (std::size_t i = 0; i < kNumOps; ++i) {
      const Input in = make_input(kOps[i], opt.seed, i);
      const double cpu0 = process_cpu_s();
      const auto t0 = Clock::now();
      const Call c = call(*session, kOps[i], in);
      const auto t1 = Clock::now();
      op_cpu_s[i].push_back(process_cpu_s() - cpu0);
      op_s[i].push_back(secs(t1 - t0));
      busy += secs(t1 - t0);
      tracer.span(std::string("core.") + kOps[i].name, t0, t1, calls);
      ++out.attempted;
      ++calls;
      attempts += session->last_retry_stats().attempts;
      if (!verify(kOps[i], in, c)) ++out.mismatches;
      if (pass < kSimPasses) {
        sim_total += c.report;
        sim_host_s += secs(t1 - t0);
      }
    }
    pass_ms.push_back(busy * 1e3);
  }

  const double ops = static_cast<double>(kNumOps);
  const double sim_ops = ops * kSimPasses;
  double pass_s = 0, pass_cpu_s = 0, pass_elems = 0;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    pass_s += median(op_s[i]);
    pass_cpu_s += median(op_cpu_s[i]);
    pass_elems += static_cast<double>(kOps[i].elems());
  }
  const std::size_t passes = pass_ms.size();
  auto& m = out.metrics;
  m["setup_s"] = median_metric(setup_s, "s");
  m["sim_device_us"] = single_metric(sim_total.time_s / sim_ops * 1e6, "us",
                                    static_cast<std::size_t>(sim_ops));
  m["ops_per_s"] = single_metric(ops / pass_s, "1/s", passes);
  m["elems_per_s"] = single_metric(pass_elems / pass_s, "1/s", passes);
  m["cpu_ms_per_op"] = single_metric(pass_cpu_s / ops * 1e3, "ms", passes);
  // A pass is this workload's request: its latency, the time to its first
  // result (the first op), and whether it met kPassLimitS.
  m["latency_p50_ms"] = median_metric(pass_ms, "ms");
  m["latency_p90_ms"] = single_metric(percentile(pass_ms, 0.9), "ms", passes);
  std::vector<double> first_ms = op_s[0];
  for (auto& v : first_ms) v *= 1e3;
  m["ttfc_p50_ms"] = median_metric(first_ms, "ms");
  const auto on_time = std::count_if(pass_ms.begin(), pass_ms.end(),
                                     [](double v) { return v <= kPassLimitS * 1e3; });
  m["on_time_share"] = single_metric(
      static_cast<double>(on_time) / static_cast<double>(passes), "share", passes);

  if (opt.trace) {
    for (std::size_t i = 0; i < kNumOps; ++i) {
      auto d = tracer.durations(std::string("core.") + kOps[i].name);
      for (auto& v : d) v *= 1e3;
      m[std::string("core.") + kOps[i].name + "_ms_p50"] = median_metric(d, "ms");
    }
    m["core.attempts_per_call"] = single_metric(
        static_cast<double>(attempts) / static_cast<double>(calls), "attempts/call",
        calls);
    add_sim_metrics(sim_total, static_cast<std::uint64_t>(sim_ops), sim_host_s, out);
    m["trace.ops_per_s"] = m["ops_per_s"];

    // Session overhead: the same cumsum through Session and straight into
    // the kernel layer on device-resident buffers.
    const Input in = make_input(kOps[1], opt.seed, 1);
    auto x = session->device().upload(in.x);
    auto y = session->device().alloc<float>(in.x.size());
    std::vector<double> via_session, via_kernel;
    for (int r = 0; r < 5; ++r) {
      auto t0 = Clock::now();
      session->cumsum(in.x);
      via_session.push_back(secs(Clock::now() - t0));
      t0 = Clock::now();
      ascend::kernels::mcscan<half, float>(session->device(), x.tensor(),
                                           y.tensor(), in.x.size());
      via_kernel.push_back(secs(Clock::now() - t0));
    }
    m["core.session_overhead_ms"] = single_metric(
        (median(via_session) - median(via_kernel)) * 1e3, "ms", via_session.size());
  }
  return out;
}

}  // namespace perfbench
