// serve_small and cluster_mixed: requests from one process, one thread
// submitting and one collecting. Phase A is an open loop of Poisson
// arrivals at a fixed rate; phase B drains fixed-size bursts queued at
// once. Rates, burst sizes and latency limits are constants, never
// calibrated to the host, so a faster commit meets the same load.
#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <thread>

#include "check.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ascan::serve;

// --- Workload definitions -----------------------------------------------------

/// Request `idx` of stream `stream`: everything needed to submit it and,
/// regenerated, to check its response.
struct Spec {
  Request req;
  double limit_s = 0;  ///< on-time limit from the scheduled send
  bool streamed = false;
  /// Enters latency_p50_ms / latency_p90_ms. On cluster_mixed only the
  /// gold rows do: one op at one size, so the percentiles do not fall
  /// between the latencies of different kinds, where they jump.
  bool timed = true;
};

/// Request `idx` of stream `stream` under `seed`.
using MakeFn = Spec (*)(std::uint64_t seed, std::uint64_t stream, std::uint64_t idx);

struct Workload {
  double rate;        ///< phase A arrivals per second
  double open_share;  ///< share of a round given to phase A
  std::size_t burst;  ///< phase B requests queued at once
  MakeFn make_open;   ///< phase A requests
  MakeFn make_burst;  ///< phase B requests
  /// Set-up traffic: each group is queued at once and awaited.
  std::vector<std::vector<Spec>> (*warmup)(std::uint64_t seed);
};

// serve_small: cumsum rows of 128-320 0/1 elements sharing one GroupKey.
constexpr double kSmallLimitS = 5e-3;

Spec small_row(ascend::Rng& rng, std::size_t n) {
  return {Request::cumsum(bits_f16(rng, n)), kSmallLimitS, false};
}

Spec small_request(std::uint64_t seed, std::uint64_t stream, std::uint64_t idx) {
  auto rng = input_rng(seed, stream, idx);
  return small_row(rng, 128 + 64 * rng.next_below(4));
}

/// One row of each length alone, then one full batch.
std::vector<std::vector<Spec>> small_warmup(std::uint64_t seed) {
  std::vector<std::vector<Spec>> w;
  auto rng = input_rng(seed, 5, 0);
  for (std::size_t n = 128; n <= 320; n += 64) w.push_back({small_row(rng, n)});
  w.emplace_back();
  for (std::uint64_t i = 0; i < 16; ++i) w.back().push_back(small_request(seed, 5, i));
  return w;
}

// cluster_mixed: gold-tier short rows with a deadline, long streamed bulk
// rows (tile 16: one step per 256 elements), segmented rows, and a few
// radix sorts and top-p draws that occupy a device for tens of ms each.
constexpr double kGoldDeadlineS = 5e-3;
constexpr double kBulkLimitS = 250e-3;
constexpr std::size_t kLongSteps = 12;
constexpr std::size_t kSortN = 16384;
constexpr std::size_t kVocab = 8192;

enum MixKind { kGold, kLong, kSegmented, kSort, kTopP, kMixKinds };

Spec mixed_of_kind(int kind, ascend::Rng& rng) {
  switch (kind) {
    case kGold: {
      Spec s{Request::cumsum(bits_f16(rng, 256)), kGoldDeadlineS, false};
      s.req.with_slo(SloTier::Gold, kGoldDeadlineS);
      return s;
    }
    case kLong: {
      Spec s{Request::cumsum(bits_f16(rng, 256 * kLongSteps), 16, false,
                             Priority::Bulk),
             kBulkLimitS, true};
      s.req.with_slo(SloTier::Bronze);
      return s;
    }
    case kSegmented: {
      auto x = bits_f16(rng, 1024);
      auto f = rng.mask_i8(1024, 0.05);
      f[0] = 1;
      Spec s{Request::segmented_cumsum(std::move(x), std::move(f)), kBulkLimitS,
             false};
      s.req.with_slo(SloTier::Bronze);
      return s;
    }
    case kSort: {
      auto keys = rng.uniform_f16(kSortN, -10.0, 10.0);
      Spec s{Request::sort(std::move(keys), rng.bernoulli(0.5)), kBulkLimitS, false};
      s.req.with_slo(SloTier::Bronze);
      return s;
    }
    default: {
      auto probs = exact_probs_f16(rng, kVocab);
      Spec s{Request::top_p(std::move(probs), 0.9, rng.next_double(), 128,
                            Priority::Bulk),
             kBulkLimitS, false};
      s.req.with_slo(SloTier::Bronze);
      return s;
    }
  }
}

/// Every block of 40 consecutive burst requests holds exactly 24 gold rows,
/// 10 long rows, 4 segmented rows, one sort and one top-p draw, in a seeded
/// order: a burst's mix, and so its work, does not vary with the seed.
constexpr int kBlock[] = {kGold, kGold, kGold, kGold, kGold, kGold, kGold, kGold,
                          kGold, kGold, kGold, kGold, kGold, kGold, kGold, kGold,
                          kGold, kGold, kGold, kGold, kGold, kGold, kGold, kGold,
                          kLong, kLong, kLong, kLong, kLong, kLong, kLong, kLong,
                          kLong, kLong, kSegmented, kSegmented, kSegmented,
                          kSegmented, kSort, kTopP};

/// The open loop sends the same rows without the sort and the top-p draw,
/// the first 38 kinds of kBlock. With them, each device spent ~30% of its
/// time in ops no request can join; gold p90 fell inside the wait behind
/// them and moved 1.5 times as much as the host's speed, and when a
/// neighbour took CPU time the queue ran away (p50 14-300 ms in 3 of 10
/// runs). At 1% of the arrivals they left p90 where waiting rows thin out
/// (2.4-48 ms over five runs). They still block the queue in the bursts.
constexpr std::uint64_t kOpenKinds = std::size(kBlock) - 2;

/// Request `idx` of a stream whose blocks are the first `n` kinds of kBlock.
Spec mixed_request(std::uint64_t n, std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t idx) {
  auto order = input_rng(seed, stream, ~(idx / n));
  int block[std::size(kBlock)];
  std::copy(std::begin(kBlock), std::end(kBlock), block);
  for (std::uint64_t i = n - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(block[i], block[order.next_below(i + 1)]);
  }
  auto rng = input_rng(seed, stream, idx);
  Spec s = mixed_of_kind(block[idx % n], rng);
  s.timed = block[idx % n] == kGold;
  return s;
}

Spec mixed_open(std::uint64_t seed, std::uint64_t stream, std::uint64_t idx) {
  return mixed_request(kOpenKinds, seed, stream, idx);
}

Spec mixed_burst(std::uint64_t seed, std::uint64_t stream, std::uint64_t idx) {
  return mixed_request(std::size(kBlock), seed, stream, idx);
}

/// One request of every kind.
std::vector<std::vector<Spec>> mixed_warmup(std::uint64_t seed) {
  std::vector<std::vector<Spec>> w;
  for (int kind = 0; kind < kMixKinds; ++kind) {
    auto rng = input_rng(seed, 5, static_cast<std::uint64_t>(kind));
    w.push_back({});
    w.back().push_back(mixed_of_kind(kind, rng));
  }
  return w;
}

// serve_small's open loop runs at a sixth of the drain rate: at a third
// (8,000 rps), a neighbour taking CPU time halved the drain rate and the
// queue ran away (p50 300-600 ms in 2 of 5 runs).
constexpr Workload kServeSmall{4000.0, 0.5, 10000, small_request, small_request,
                               small_warmup};
// Two thirds of each round open loop: gold rows are 60% of the arrivals,
// and their p90 needs the samples.
constexpr Workload kClusterMixed{300.0, 2.0 / 3.0, 1000, mixed_open, mixed_burst,
                                 mixed_warmup};

bool check_response(const Request& req, const Response& r) {
  switch (req.kind) {
    case OpKind::Cumsum:
      return check_cumsum_f16(req.x, r.values_f16);
    case OpKind::SegmentedCumsum:
      return check_segmented(req.x, req.flags, r.values_f32);
    case OpKind::Sort:
      return check_sort(req.x, req.descending, r.sorted_values, r.indices);
    case OpKind::TopP:
      return check_top_p(req.x, req.p, req.u, r.token);
  }
  return false;
}

// --- Load generation --------------------------------------------------------------

/// One request of a phase as the client saw it.
struct Record {
  double sched = 0;      ///< scheduled send, seconds from phase start
  double sent = 0;       ///< actual submit() call
  double submit_s = 0;   ///< duration of the submit() call
  double ready = 0;      ///< collector saw the future ready
  double limit_s = 0;    ///< on-time limit (Spec::limit_s)
  bool streamed = false;
  bool timed = true;
  std::atomic<double> first_chunk{-1};  ///< first streamed chunk
  Response resp;
};

/// Records of one phase; Record times are seconds from `start`.
struct Phase {
  Clock::time_point start;
  std::vector<Record> rec;
};

/// Submits request i = make(i) for i < n at `sched` offsets (all at once
/// when `sched` is empty) from one thread while a second collects the
/// futures in order. A scheduled request is generated just before its
/// send time, so the generator never holds the phase's inputs.
template <typename Front, typename Make>
Phase drive(Front& front, std::size_t n, const std::vector<double>& sched,
            Make&& make) {
  Phase ph{Clock::now(), std::vector<Record>(n)};
  std::vector<Record>& rec = ph.rec;
  std::vector<std::future<Response>> futs(n);
  std::atomic<std::size_t> published{0};
  const auto start = ph.start;

  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = published.load(std::memory_order_acquire); p <= i;
           p = published.load(std::memory_order_acquire)) {
        published.wait(p, std::memory_order_acquire);
      }
      rec[i].resp = futs[i].get();
      rec[i].ready = secs(Clock::now() - start);
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    Record& r = rec[i];
    Spec spec = make(i);
    r.sched = sched.empty() ? 0.0 : sched[i];
    r.limit_s = spec.limit_s;
    r.streamed = spec.streamed;
    r.timed = spec.timed;
    if (!sched.empty()) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(r.sched)));
    }
    if (spec.streamed) {
      spec.req.on_chunk = [&r, start](const StreamChunk&) {
        double none = -1;
        r.first_chunk.compare_exchange_strong(none, secs(Clock::now() - start));
      };
    }
    const auto t0 = Clock::now();
    futs[i] = front.submit(std::move(spec.req));
    const auto t1 = Clock::now();
    r.sent = secs(t0 - start);
    r.submit_s = secs(t1 - t0);
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  collector.join();
  return ph;
}

/// Queues pre-generated `specs` at once.
template <typename Front>
Phase drive_burst(Front& front, std::vector<Spec> specs) {
  return drive(front, specs.size(), {},
               [&](std::size_t i) { return std::move(specs[i]); });
}

std::vector<Spec> make_specs(MakeFn make, std::uint64_t seed, std::uint64_t stream,
                             std::size_t n) {
  std::vector<Spec> s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.push_back(make(seed, stream, i));
  return s;
}

/// Checks every Ok response of a phase against its regenerated input and
/// counts non-Ok ones as failed.
void tally(MakeFn make, std::uint64_t seed, std::uint64_t stream,
           const std::vector<Record>& rec, RunResult& out) {
  for (std::size_t i = 0; i < rec.size(); ++i) {
    ++out.attempted;
    if (!rec[i].resp.ok()) {
      ++out.failed;
      continue;
    }
    const Spec s = make(seed, stream, i);
    if (!check_response(s.req, rec[i].resp)) ++out.mismatches;
  }
}

MetricsSnapshot snapshot(Engine& e) { return e.metrics(); }
MetricsSnapshot snapshot(Cluster& c) { return c.metrics(); }

constexpr BatchPolicy kPolicy{.max_batch = 16, .max_wait_s = 500e-6};

template <typename Front>
std::unique_ptr<Front> make_front() {
  if constexpr (std::is_same_v<Front, Engine>) {
    EngineOptions o;
    o.policy = kPolicy;
    o.max_queue = 16384;  // deeper than any burst: host stalls reject nothing
    return std::make_unique<Engine>(std::move(o));
  } else {
    ClusterOptions o;
    o.policy = kPolicy;
    o.num_devices = 2;
    o.max_queue = 4096;
    return std::make_unique<Cluster>(std::move(o));
  }
}

/// Serving counters summed over the rounds of a run.
struct Counters {
  std::uint64_t batches = 0, batched_requests = 0, steps = 0, admits = 0;
  std::uint64_t preemptions = 0, deadline_misses = 0;
  std::uint64_t routed = 0, spilled = 0, steals = 0;
  std::vector<double> device_completed;
};

/// Sets up a fresh front end (timed into `setup_s`) and serves the
/// workload's warm-up traffic, checking every response.
template <typename Front>
std::unique_ptr<Front> set_up(const Workload& w, const Options& opt,
                              std::vector<double>& setup_s, RunResult& out) {
  auto warm = w.warmup(opt.seed);
  const auto t0 = Clock::now();
  auto front = make_front<Front>();
  std::vector<Phase> served;
  for (auto& group : warm) served.push_back(drive_burst(*front, std::move(group)));
  setup_s.push_back(secs(Clock::now() - t0));
  warm = w.warmup(opt.seed);  // regenerated to check the responses
  for (std::size_t g = 0; g < warm.size(); ++g) {
    for (std::size_t i = 0; i < warm[g].size(); ++i) {
      ++out.attempted;
      const Response& r = served[g].rec[i].resp;
      if (!r.ok()) {
        ++out.failed;
      } else if (!check_response(warm[g][i].req, r)) {
        ++out.mismatches;
      }
    }
  }
  return front;
}

// A run is kRounds rounds, each on a fresh front end: set-up, then phase
// A (open loop) for the workload's share of the round, then phase B
// (bursts) for the rest. Thread placement on the host differs from one
// front end to the next and moves throughput by ~10%; medians over several
// front ends repeat where one front end's figures do not.
constexpr int kRounds = 5;

template <typename Front>
RunResult run_serving(const Workload& w, const Options& opt) {
  RunResult out;
  auto& m = out.metrics;
  const double round_s = opt.seconds / kRounds;
  std::vector<double> setup_s, ops_rate, elem_rate, cpu_per_op;
  // Latency samples pooled over the rounds (tail diagnostics) and each
  // round's percentiles (the gated medians).
  std::vector<double> lat_ms, late_ms, submit_us, queue_ms, gather, exec, fulfil;
  std::vector<double> round_p50, round_p90, round_ttfc;
  std::size_t sent = 0, on_time = 0;
  std::uint64_t drained = 0;
  double drain_s = 0;
  ascan::Report drain_total;
  Counters c;

  for (std::uint64_t round = 0; round < kRounds; ++round) {
    auto front = set_up<Front>(w, opt, setup_s, out);

    // Phase A: open loop at a fixed rate. Latency runs from the scheduled
    // send to the engine's completion stamp (actual send +
    // Timing::total_s), so a late generator counts.
    const std::uint64_t stream_a = 10 + round;
    const MetricsSnapshot s0 = snapshot(*front);
    const auto sched =
        poisson_schedule(mix(opt.seed) ^ round, w.rate, round_s * w.open_share);
    {
      std::vector<double> round_lat, ttfc_ms;
      const Phase a = drive(*front, sched.size(), sched, [&](std::size_t i) {
        return w.make_open(opt.seed, stream_a, i);
      });
      bool any_streamed = false;
      for (const auto& r : a.rec) any_streamed |= r.streamed;
      for (std::size_t id = 0; id < a.rec.size(); ++id) {
        const Record& r = a.rec[id];
        ++sent;
        late_ms.push_back((r.sent - r.sched) * 1e3);
        submit_us.push_back(r.submit_s * 1e6);
        if (!r.resp.ok()) continue;
        const Timing& t = r.resp.timing;
        const double lat = r.sent - r.sched + t.total_s;
        if (r.timed) round_lat.push_back(lat * 1e3);
        if (lat <= r.limit_s) ++on_time;
        // A response that did not stream (no callback, or a stolen batch)
        // has one chunk: the whole response.
        const double fc = r.first_chunk.load();
        if (r.streamed || !any_streamed) {
          ttfc_ms.push_back((fc >= 0 ? fc - r.sched : lat) * 1e3);
        }
        queue_ms.push_back(t.queue_s * 1e3);
        gather.push_back(t.batch_s * 1e3);
        exec.push_back(t.execute_s * 1e3);
        fulfil.push_back(std::max(0.0, r.ready - r.sent - t.total_s) * 1e3);
        if (opt.trace) {  // spans from the client's clocks and the Timing
          Tracer& tr = Tracer::get();
          const auto at = [&](double sec) {
            return a.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(sec));
          };
          tr.span("serve.submit", at(r.sent), at(r.sent + r.submit_s), id);
          tr.span("serve.queue", at(r.sent), at(r.sent + t.queue_s), id);
          tr.span("serve.gather", at(r.sent + t.queue_s),
                  at(r.sent + t.queue_s + t.batch_s), id);
          tr.span("serve.execute", at(r.sent + t.queue_s + t.batch_s),
                  at(r.sent + t.total_s), id);
        }
      }
      round_p50.push_back(percentile(round_lat, 0.5));
      round_p90.push_back(percentile(round_lat, 0.9));
      round_ttfc.push_back(percentile(ttfc_ms, 0.5));
      lat_ms.insert(lat_ms.end(), round_lat.begin(), round_lat.end());
      // Checked outside the phase, then dropped.
      tally(w.make_open, opt.seed, stream_a, a.rec, out);
    }
    const MetricsSnapshot s1 = snapshot(*front);

    // Phase B: bursts queued at once until the round is used up. Each
    // burst is checked after its timed drain, then dropped.
    std::map<std::pair<int, std::uint64_t>, ascan::Report> launches;
    const auto window0 = Clock::now();
    const double drain_window_s = round_s * (1 - w.open_share);
    for (std::uint64_t b = 0; b < 1 || secs(Clock::now() - window0) < drain_window_s;
         ++b) {
      const std::uint64_t stream = 1000 * (round + 1) + b;
      auto specs = make_specs(w.make_burst, opt.seed, stream, w.burst);
      double elems = 0;
      for (const auto& s : specs) elems += static_cast<double>(s.req.x.size());
      const double cpu0 = process_cpu_s();
      const Phase burst = drive_burst(*front, std::move(specs));
      const double cpu = process_cpu_s() - cpu0;
      double end = 0;
      for (const auto& r : burst.rec) end = std::max(end, r.ready);
      const auto n = static_cast<double>(burst.rec.size());
      ops_rate.push_back(n / end);
      elem_rate.push_back(elems / end);
      cpu_per_op.push_back(cpu / n * 1e3);
      for (const auto& r : burst.rec) {
        // Members of one launch share its Report; keep the most complete.
        auto& rep = launches[{r.resp.device, r.resp.launch_id}];
        if (r.resp.report.time_s > rep.time_s) rep = r.resp.report;
      }
      drained += burst.rec.size();
      drain_s += end;
      tally(w.make_burst, opt.seed, stream, burst.rec, out);
    }
    for (const auto& [key, rep] : launches) drain_total += rep;
    const MetricsSnapshot s2 = snapshot(*front);

    c.batches += s2.batches - s1.batches;
    c.batched_requests += s2.batched_requests - s1.batched_requests;
    c.steps += static_cast<std::uint64_t>(s2.sim_steps - s1.sim_steps);
    c.admits += s2.continuation_admits - s1.continuation_admits;
    c.preemptions += s1.preemptions - s0.preemptions;
    c.deadline_misses += s1.deadline_misses - s0.deadline_misses;
    c.routed += (s2.routed_affinity - s0.routed_affinity) +
                (s2.routed_spill - s0.routed_spill);
    c.spilled += s2.routed_spill - s0.routed_spill;
    c.steals += s2.steals - s0.steals;
    if constexpr (std::is_same_v<Front, Cluster>) {
      const auto devices = front->per_device_metrics();
      c.device_completed.resize(devices.size());
      for (std::size_t d = 0; d < devices.size(); ++d) {
        c.device_completed[d] += static_cast<double>(devices[d].completed);
      }
    }
    front->shutdown(ShutdownMode::Drain);
    // The first front end's whole life is the program's footprint; later
    // rounds repeat it on fresh front ends, and what they add measures the
    // allocator's history of the destroyed ones.
    if (round == 0) m["peak_rss_mb"] = single_metric(peak_rss_mb(), "MB");
  }

  m["setup_s"] = median_metric(setup_s, "s");
  m["sim_device_us"] = single_metric(
      drain_total.time_s / static_cast<double>(drained) * 1e6, "us", drained);
  m["ops_per_s"] = median_metric(ops_rate, "1/s");
  m["elems_per_s"] = median_metric(elem_rate, "1/s");
  m["cpu_ms_per_op"] = median_metric(cpu_per_op, "ms");
  m["latency_p50_ms"] = median_metric(round_p50, "ms");
  m["latency_p90_ms"] = median_metric(round_p90, "ms");
  m["ttfc_p50_ms"] = median_metric(round_ttfc, "ms");
  m["on_time_share"] = single_metric(
      static_cast<double>(on_time) / static_cast<double>(sent), "share", sent);

  if (opt.trace) {
    m["serve.submit_us_p50"] = median_metric(submit_us, "us");
    m["serve.queue_ms_p50"] = median_metric(queue_ms, "ms");
    m["serve.queue_ms_p90"] =
        single_metric(percentile(queue_ms, 0.9), "ms", queue_ms.size());
    m["serve.gather_ms_p50"] = median_metric(gather, "ms");
    m["serve.execute_ms_p50"] = median_metric(exec, "ms");
    m["serve.fulfil_ms_p50"] = median_metric(fulfil, "ms");
    m["serve.latency_p99_ms"] =
        single_metric(percentile(lat_ms, 0.99), "ms", lat_ms.size());
    m["serve.latency_p999_ms"] =
        single_metric(percentile(lat_ms, 0.999), "ms", lat_ms.size());
    m["serve.gen_late_ms_p99"] =
        single_metric(percentile(late_ms, 0.99), "ms", late_ms.size());
    const double batches = static_cast<double>(c.batches);
    m["serve.occupancy"] = single_metric(
        static_cast<double>(c.batched_requests) / batches, "req/launch", c.batches);
    m["serve.steps_per_launch"] =
        single_metric(static_cast<double>(c.steps) / batches, "steps/launch", c.batches);
    m["serve.continuation_admits"] =
        single_metric(static_cast<double>(c.admits), "count");
    m["serve.preemptions"] = single_metric(static_cast<double>(c.preemptions), "count");
    m["serve.deadline_misses"] =
        single_metric(static_cast<double>(c.deadline_misses), "count");
    m["cluster.spill_share"] = single_metric(
        c.routed ? static_cast<double>(c.spilled) / static_cast<double>(c.routed) : 0.0,
        "share", c.routed);
    m["cluster.steals"] = single_metric(static_cast<double>(c.steals), "count");
    double max_load = 1, mean_load = 1;
    if (!c.device_completed.empty()) {
      max_load = *std::max_element(c.device_completed.begin(), c.device_completed.end());
      mean_load = 0;
      for (double v : c.device_completed) mean_load += v;
      mean_load /= static_cast<double>(c.device_completed.size());
    }
    m["cluster.load_max_over_mean"] = single_metric(
        max_load / mean_load, "ratio", std::max<std::size_t>(1, c.device_completed.size()));
    add_sim_metrics(drain_total, drained, drain_s, out);
    m["trace.ops_per_s"] = median_metric(ops_rate, "1/s");
  }
  return out;
}

}  // namespace

RunResult run_serve_small(const Options& opt) {
  return run_serving<Engine>(kServeSmall, opt);
}

RunResult run_cluster_mixed(const Options& opt) {
  return run_serving<Cluster>(kClusterMixed, opt);
}

}  // namespace perfbench
