// Closed-loop serving load generator: request throughput and latency
// percentiles of the serve::Engine versus offered load (client count), for
// several batching policies. The headline claim this reproduces: at
// saturating load, dynamic batching amortises the fixed per-launch host
// cost (see BENCH_sim_host.json) and serves >= 2x the request throughput
// of batch_size = 1.
//
// A second scenario measures the streaming / continuous-batching path:
// long streamed cumsum rows plus short interactive requests of the same
// GroupKey, once with continuation admission on and once boundary-only.
// Headlines: time-to-first-chunk is a fraction of the full-response
// latency, and continuation admission cuts the interactive queue wait.
//
// A third scenario measures the SLO / preemption path: saturating bulk
// load (long multi-step cumsum launches) against deadline-bearing
// interactive traffic of a different GroupKey, once with tile-boundary
// preemption on and once off. Headline: preemption strictly lowers the
// interactive deadline-miss rate and p99 at the same offered load.
//
//   bench_serve [--quick] [--stream] [--slo] [--json PATH]
//   bench_serve --slo-stress SECONDS [--seed S]
//
// --stream runs only the streaming scenario (the perf_smoke_stream test).
// --slo runs only the SLO / preemption scenario.
// --slo-stress runs a seeded randomized deadline/tier/preemption soak for
// SECONDS wall seconds and exits nonzero on any invariant violation (CI
// runs this for 30 s per push).
// --json writes the full sweep as one JSON object (tools/run_serve_bench.sh
// puts it at BENCH_serve.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "kernels/vec_ref.hpp"
#include "serve/engine.hpp"

using namespace ascend;
using namespace ascend::bench;
using namespace ascan::serve;

namespace {

struct PolicyCase {
  const char* name;
  BatchPolicy policy;
};

struct RunResult {
  std::string policy;
  int clients = 0;
  std::uint64_t requests = 0;
  double wall_s = 0;
  double rps = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double avg_occupancy = 0;
  std::uint64_t rejected = 0;
  vecref::VerifyStats verify;  ///< every Ok response checked bit-for-bit
};

/// Row `i` of client `c`'s closed loop, drawn from that client's stream.
/// Mixed row lengths exercise the zero-padding path; all requests share a
/// GroupKey so they stay coalescible. 0/1 rows are the exact-comparison
/// corpus.
std::vector<ascan::half> client_row(Rng& rng, int c, std::uint64_t i) {
  const std::size_t n = 128 + 64 * ((i + static_cast<std::uint64_t>(c)) % 4);
  std::vector<ascan::half> x(n);
  for (auto& v : x) v = ascan::half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
  return x;
}

Rng client_rng(int c) { return Rng(100 + static_cast<std::uint64_t>(c)); }

/// Closed loop: each client thread submits, waits for the future, repeats.
/// Offered load is therefore bounded by `clients` outstanding requests.
RunResult run_load(const PolicyCase& pc, int clients,
                   std::uint64_t requests_per_client) {
  Engine engine({.policy = pc.policy});
  // Responses are kept and checked after the wall clock stops.
  std::vector<std::vector<Response>> responses(
      static_cast<std::size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng = client_rng(c);
      auto& out = responses[static_cast<std::size_t>(c)];
      out.reserve(requests_per_client);
      for (std::uint64_t i = 0; i < requests_per_client; ++i) {
        out.push_back(
            engine.submit(Request::cumsum(client_row(rng, c, i))).get());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Every Ok response is checked bit-for-bit against the SIMD host
  // reference on inputs regenerated from the client's seed, so the
  // throughput figures certify correct answers, not just resolved futures.
  vecref::VerifyStats verify;
  for (int c = 0; c < clients; ++c) {
    Rng rng = client_rng(c);
    const auto& out = responses[static_cast<std::size_t>(c)];
    for (std::uint64_t i = 0; i < requests_per_client; ++i) {
      const auto input = client_row(rng, c, i);
      if (out[i].ok()) vecref::verify_cumsum(input, out[i].values_f16, verify);
    }
  }
  engine.shutdown(ShutdownMode::Drain);

  const auto m = engine.metrics();
  RunResult r;
  r.policy = pc.name;
  r.clients = clients;
  r.requests = m.completed;
  r.wall_s = wall;
  r.rps = wall > 0 ? static_cast<double>(m.completed) / wall : 0;
  r.p50_us = m.total_latency.percentile(0.50) * 1e6;
  r.p95_us = m.total_latency.percentile(0.95) * 1e6;
  r.p99_us = m.total_latency.percentile(0.99) * 1e6;
  r.avg_occupancy = m.avg_batch_occupancy;
  r.rejected = m.rejected_capacity;
  r.verify = verify;
  return r;
}

/// One streaming-scenario measurement: long streamed bulk rows and short
/// interactive requests of the same GroupKey served concurrently.
struct StreamResult {
  std::string mode;  ///< "continuous" | "boundary_only"
  std::uint64_t long_requests = 0, short_requests = 0;
  double ttfc_us = 0;          ///< mean client time-to-first-chunk (long rows)
  double full_latency_us = 0;  ///< mean client full-response latency
  double interactive_queue_us = 0;  ///< mean interactive queue wait
  std::uint64_t continuation_admits = 0;
  std::uint64_t stream_chunks = 0;
};

/// Long streamed rows (12 steps at tile 16) from bulk clients while
/// interactive clients submit single-step rows with the same GroupKey. The
/// only difference between the two modes is BatchPolicy::continuous: with
/// it on, the short rows join the in-flight launch between steps instead of
/// waiting for it to finish.
StreamResult run_stream_scenario(bool continuous, int long_clients,
                                 int short_clients,
                                 std::uint64_t long_per_client,
                                 std::uint64_t short_per_client) {
  constexpr std::size_t kTile = 16;
  constexpr std::size_t kLongLen = kTile * kTile * 12;
  constexpr std::size_t kShortLen = kTile * kTile;
  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 200e-6,
                            .continuous = continuous}});
  std::mutex mu;
  double ttfc_sum = 0, full_sum = 0, queue_sum = 0;
  std::uint64_t ttfc_n = 0, queue_n = 0;

  const auto fill = [](Rng& rng, std::size_t n) {
    std::vector<ascan::half> x(n);
    for (auto& v : x) v = ascan::half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
    return x;
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < long_clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(500 + static_cast<std::uint64_t>(c));
      for (std::uint64_t i = 0; i < long_per_client; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        double first = -1;
        Request r = Request::cumsum(fill(rng, kLongLen), kTile, false,
                                    Priority::Bulk);
        r.on_chunk = [&](const StreamChunk&) {
          if (first < 0) {
            first = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
          }
        };
        engine.submit(std::move(r)).get();
        const double total = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        std::lock_guard<std::mutex> lk(mu);
        full_sum += total;
        if (first >= 0) {
          ttfc_sum += first;
          ++ttfc_n;
        }
      }
    });
  }
  for (int c = 0; c < short_clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(900 + static_cast<std::uint64_t>(c));
      for (std::uint64_t i = 0; i < short_per_client; ++i) {
        const auto resp = engine.submit(Request::cumsum(fill(rng, kShortLen),
                                                        kTile))
                              .get();
        std::lock_guard<std::mutex> lk(mu);
        queue_sum += resp.timing.queue_s;
        ++queue_n;
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.shutdown(ShutdownMode::Drain);

  const auto m = engine.metrics();
  StreamResult r;
  r.mode = continuous ? "continuous" : "boundary_only";
  r.long_requests =
      static_cast<std::uint64_t>(long_clients) * long_per_client;
  r.short_requests =
      static_cast<std::uint64_t>(short_clients) * short_per_client;
  r.ttfc_us = ttfc_n ? ttfc_sum / static_cast<double>(ttfc_n) * 1e6 : 0;
  r.full_latency_us =
      r.long_requests ? full_sum / static_cast<double>(r.long_requests) * 1e6
                      : 0;
  r.interactive_queue_us =
      queue_n ? queue_sum / static_cast<double>(queue_n) * 1e6 : 0;
  r.continuation_admits = m.continuation_admits;
  r.stream_chunks = m.stream_chunks;
  return r;
}

std::string stream_json(const std::vector<StreamResult>& runs) {
  std::ostringstream os;
  os << "  \"streaming\": {\n"
     << "    \"workload\": \"streamed cumsum rows of 3072 fp16 elements "
        "(tile 16, 12 steps) + interactive 256-element rows, same "
        "GroupKey\",\n"
     << "    \"modes\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    os << "      {\"mode\": \"" << r.mode
       << "\", \"long_requests\": " << r.long_requests
       << ", \"short_requests\": " << r.short_requests
       << ", \"time_to_first_chunk_us\": " << r.ttfc_us
       << ", \"full_latency_us\": " << r.full_latency_us
       << ", \"interactive_queue_us\": " << r.interactive_queue_us
       << ", \"continuation_admits\": " << r.continuation_admits
       << ", \"stream_chunks\": " << r.stream_chunks << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }";
  return os.str();
}

// ---------------------------------------------------------------------------
// SLO / preemption scenario.

struct SloResult {
  std::string mode;  ///< "preemption" | "no_preemption"
  std::uint64_t interactive_requests = 0;
  std::uint64_t deadline_misses = 0;
  double miss_rate = 0;
  double interactive_p50_us = 0, interactive_p99_us = 0;
  double bulk_mean_us = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t preempted_tiles_resumed = 0;
};

double percentile_of(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[idx];
}

/// Saturating bulk load — long multi-step cumsum launches (tile 16) kept
/// continuously in flight by closed-loop bulk clients — against
/// interactive clients submitting short gold-tier rows of a *different*
/// GroupKey (tile 64) with a per-request deadline. The only difference
/// between the two modes is BatchPolicy::preemption: with it on, a queued
/// interactive deadline parks the bulk launch at the next tile boundary
/// instead of waiting out its remaining steps.
SloResult run_slo_scenario(bool preemption, double deadline_s,
                           int bulk_clients, int inter_clients,
                           std::uint64_t bulk_per, std::uint64_t inter_per) {
  constexpr std::size_t kTile = 16;
  constexpr std::size_t kBulkLen = kTile * kTile * 48;  // 48 tile boundaries
  constexpr std::size_t kInterLen = 256;  // tile 64: one step, distinct key
  // Aging limit far above the deadline scale: the scenario measures the
  // preemption lever in isolation (the no-starvation interplay is pinned
  // by tests/test_slo.cpp).
  Engine engine({.policy = {.max_batch = 4,
                            .max_wait_s = 100e-6,
                            .aging_factor = 1e6,
                            .preemption = preemption,
                            .preempt_slack_s = deadline_s}});
  std::mutex mu;
  std::vector<double> inter_lat;
  double bulk_sum = 0;
  std::uint64_t misses = 0;

  const auto fill = [](Rng& rng, std::size_t n) {
    std::vector<ascan::half> x(n);
    for (auto& v : x) v = ascan::half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
    return x;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < bulk_clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(1500 + static_cast<std::uint64_t>(c));
      for (std::uint64_t i = 0; i < bulk_per; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        engine
            .submit(Request::cumsum(fill(rng, kBulkLen), kTile, false,
                                    Priority::Bulk))
            .get();
        const double total = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        std::lock_guard<std::mutex> lk(mu);
        bulk_sum += total;
      }
    });
  }
  for (int c = 0; c < inter_clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(1900 + static_cast<std::uint64_t>(c));
      for (std::uint64_t i = 0; i < inter_per; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto resp =
            engine
                .submit(Request::cumsum(fill(rng, kInterLen), 64)
                            .with_slo(SloTier::Gold, deadline_s))
                .get();
        const double total = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        std::lock_guard<std::mutex> lk(mu);
        inter_lat.push_back(total);
        if (resp.deadline_missed) ++misses;
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.shutdown(ShutdownMode::Drain);

  const auto m = engine.metrics();
  SloResult r;
  r.mode = preemption ? "preemption" : "no_preemption";
  r.interactive_requests = inter_lat.size();
  r.deadline_misses = misses;
  r.miss_rate = inter_lat.empty()
                    ? 0
                    : static_cast<double>(misses) /
                          static_cast<double>(inter_lat.size());
  r.interactive_p50_us = percentile_of(inter_lat, 0.50) * 1e6;
  r.interactive_p99_us = percentile_of(inter_lat, 0.99) * 1e6;
  const auto bulk_total =
      static_cast<double>(bulk_clients) * static_cast<double>(bulk_per);
  r.bulk_mean_us = bulk_total > 0 ? bulk_sum / bulk_total * 1e6 : 0;
  r.preemptions = m.preemptions;
  r.preempted_tiles_resumed = m.preempted_tiles_resumed;
  return r;
}

/// One uncontended long bulk launch, to scale the scenario deadline to
/// whatever this host actually simulates the launch at.
double calibrate_bulk_wall_s() {
  Engine engine({.policy = {.max_batch = 1, .max_wait_s = 0}});
  Rng rng(7);
  std::vector<ascan::half> x(16 * 16 * 48);
  for (auto& v : x) v = ascan::half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
  const auto t0 = std::chrono::steady_clock::now();
  engine.submit(Request::cumsum(std::move(x), 16, false, Priority::Bulk))
      .get();
  const double w = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  engine.shutdown(ShutdownMode::Drain);
  return w;
}

std::string slo_json(const std::vector<SloResult>& runs, double deadline_s) {
  std::ostringstream os;
  os << "  \"slo\": {\n"
     << "    \"workload\": \"bulk cumsum rows of 12288 fp16 elements "
        "(tile 16, 48 boundaries) + gold-tier 256-element rows, distinct "
        "GroupKey\",\n"
     << "    \"deadline_us\": " << deadline_s * 1e6 << ",\n"
     << "    \"modes\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    os << "      {\"mode\": \"" << r.mode
       << "\", \"interactive_requests\": " << r.interactive_requests
       << ", \"deadline_misses\": " << r.deadline_misses
       << ", \"miss_rate\": " << r.miss_rate
       << ", \"interactive_p50_us\": " << r.interactive_p50_us
       << ", \"interactive_p99_us\": " << r.interactive_p99_us
       << ", \"bulk_mean_us\": " << r.bulk_mean_us
       << ", \"preemptions\": " << r.preemptions
       << ", \"preempted_tiles_resumed\": " << r.preempted_tiles_resumed
       << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }";
  return os.str();
}

// ---------------------------------------------------------------------------
// Seeded SLO soak (CI): randomized tiers, deadlines and lengths under
// full preemption for a fixed wall duration. Every future must resolve
// Ok; the process exits nonzero on any violation.

int run_slo_stress(double seconds, std::uint64_t seed) {
  std::printf("slo stress: %.0f s, seed %llu\n", seconds,
              static_cast<unsigned long long>(seed));
  Engine engine({.policy = {.max_batch = 4,
                            .max_wait_s = 100e-6,
                            .aging_factor = 16.0,
                            .preempt_slack_s = 0},  // adaptive horizon
                 .max_queue = 512});
  std::atomic<std::uint64_t> served{0};
  std::atomic<bool> violated{false};
  const auto t_end =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < 6; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 1000003ull + static_cast<std::uint64_t>(c));
      while (std::chrono::steady_clock::now() < t_end) {
        Request r = [&] {
          if (rng.bernoulli(0.3)) {  // long preemptible bulk launch
            const std::size_t n = 16 * 16 * (8 + rng.next_below(40));
            std::vector<ascan::half> x(n);
            for (auto& v : x) v = ascan::half(rng.bernoulli(0.5) ? 1.f : 0.f);
            return Request::cumsum(std::move(x), 16, false, Priority::Bulk);
          }
          std::vector<ascan::half> x(64 + 64 * rng.next_below(8));
          for (auto& v : x) v = ascan::half(rng.bernoulli(0.5) ? 1.f : 0.f);
          return Request::cumsum(std::move(x), 64);
        }();
        if (rng.bernoulli(0.7)) {
          const auto tier = static_cast<SloTier>(rng.next_below(3));
          r.with_slo(tier, 100e-6 * static_cast<double>(1 + rng.next_below(50)));
        }
        const auto resp = engine.submit(std::move(r)).get();
        if (!resp.ok()) {
          std::fprintf(stderr, "slo stress: request failed: %s\n",
                       resp.reason.c_str());
          violated.store(true);
          return;
        }
        served.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.shutdown(ShutdownMode::Drain);
  const auto m = engine.metrics();
  std::printf("slo stress: served %llu (misses %llu, preemptions %llu, "
              "parked tiles resumed %llu)\n",
              static_cast<unsigned long long>(served.load()),
              static_cast<unsigned long long>(m.deadline_misses),
              static_cast<unsigned long long>(m.preemptions),
              static_cast<unsigned long long>(m.preempted_tiles_resumed));
  if (m.admitted != m.completed) {
    std::fprintf(stderr, "slo stress: admitted %llu != completed %llu\n",
                 static_cast<unsigned long long>(m.admitted),
                 static_cast<unsigned long long>(m.completed));
    violated.store(true);
  }
  return violated.load() ? 1 : 0;
}

std::string to_json(const std::vector<RunResult>& runs, double no_batching_rps,
                    double batched_rps,
                    const std::vector<StreamResult>& stream_runs,
                    const std::vector<SloResult>& slo_runs,
                    double slo_deadline_s) {
  std::ostringstream os;
  os << "{\n  \"bench\": \"serve_closed_loop\",\n"
     << "  \"machine\": \"simulated Ascend 910B4\",\n"
     << "  \"workload\": \"cumsum rows of 128..320 fp16 elements\",\n"
     << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    os << "    {\"policy\": \"" << r.policy << "\", \"clients\": " << r.clients
       << ", \"requests\": " << r.requests << ", \"wall_s\": " << r.wall_s
       << ", \"rps\": " << r.rps << ", \"p50_us\": " << r.p50_us
       << ", \"p95_us\": " << r.p95_us << ", \"p99_us\": " << r.p99_us
       << ", \"avg_occupancy\": " << r.avg_occupancy
       << ", \"rejected\": " << r.rejected
       << ", \"verified\": " << r.verify.requests
       << ", \"mismatches\": " << r.verify.mismatches << "}"
       << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  vecref::VerifyStats all;
  for (const auto& r : runs) all.merge(r.verify);
  os << "  ],\n  \"verify\": {\"note\": \"every Ok response compared "
        "bit-for-bit against the SIMD host reference (kernels/vec_ref)\", "
        "\"requests\": "
     << all.requests << ", \"elements\": " << all.elements
     << ", \"mismatches\": " << all.mismatches << ", \"bit_exact\": "
     << (all.clean() ? "true" : "false") << "},\n"
     << "  \"headline\": {\"no_batching_rps\": " << no_batching_rps
     << ", \"batched_rps\": " << batched_rps << ", \"ratio\": "
     << (no_batching_rps > 0 ? batched_rps / no_batching_rps : 0) << "},\n"
     << stream_json(stream_runs) << ",\n"
     << slo_json(slo_runs, slo_deadline_s) << "\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = BenchArgs::parse(argc, argv);
  std::string json_path;
  bool stream_only = false;
  bool slo_only = false;
  double stress_seconds = 0;
  std::uint64_t stress_seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::string(argv[i]) == "--stream") stream_only = true;
    if (std::string(argv[i]) == "--slo") slo_only = true;
    if (std::string(argv[i]) == "--slo-stress" && i + 1 < argc) {
      stress_seconds = std::atof(argv[i + 1]);
    }
    if (std::string(argv[i]) == "--seed" && i + 1 < argc) {
      stress_seed = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
    }
  }
  if (stress_seconds > 0) return run_slo_stress(stress_seconds, stress_seed);

  std::vector<StreamResult> stream_runs;
  const auto run_streaming = [&] {
    print_header("Streaming / continuous batching",
                 "long streamed rows + interactive same-key traffic");
    const int long_clients = args.quick ? 2 : 4;
    const int short_clients = args.quick ? 2 : 4;
    const std::uint64_t long_per = args.quick ? 6 : 16;
    const std::uint64_t short_per = args.quick ? 40 : 150;
    Table st({"mode", "ttfc us", "full us", "inter q us", "cont admits",
              "chunks"});
    for (bool continuous : {true, false}) {
      const auto r = run_stream_scenario(continuous, long_clients,
                                         short_clients, long_per, short_per);
      stream_runs.push_back(r);
      st.add_row({r.mode, r.ttfc_us, r.full_latency_us,
                  r.interactive_queue_us,
                  static_cast<std::int64_t>(r.continuation_admits),
                  static_cast<std::int64_t>(r.stream_chunks)});
    }
    st.print(std::cout);
    const auto& cont = stream_runs[0];
    const auto& bound = stream_runs[1];
    std::printf("\nstreaming: first chunk after %.0f us vs %.0f us full "
                "response (%.1fx earlier); continuation admission cuts "
                "interactive queue wait %.0f us -> %.0f us\n",
                cont.ttfc_us, cont.full_latency_us,
                cont.ttfc_us > 0 ? cont.full_latency_us / cont.ttfc_us : 0.0,
                bound.interactive_queue_us, cont.interactive_queue_us);
  };

  std::vector<SloResult> slo_runs;
  double slo_deadline_s = 0;
  const auto run_slo = [&] {
    print_header("SLO tiers / tile-boundary preemption",
                 "saturating bulk load vs gold-tier deadline traffic");
    // Scale the deadline to this host: a third of one uncontended bulk
    // launch. Without preemption an interactive arrival mid-launch waits
    // out the remaining steps and blows through it; with preemption it
    // waits at most one tile step.
    const double bulk_wall = calibrate_bulk_wall_s();
    slo_deadline_s = std::max(200e-6, bulk_wall / 3.0);
    const int bulk_clients = 2;
    const int inter_clients = args.quick ? 2 : 4;
    const std::uint64_t bulk_per = args.quick ? 8 : 24;
    const std::uint64_t inter_per = args.quick ? 60 : 200;
    Table st({"mode", "inter p50 us", "inter p99 us", "miss rate",
              "bulk mean us", "preemptions"});
    for (bool preemption : {true, false}) {
      const auto r = run_slo_scenario(preemption, slo_deadline_s,
                                      bulk_clients, inter_clients, bulk_per,
                                      inter_per);
      slo_runs.push_back(r);
      st.add_row({r.mode, r.interactive_p50_us, r.interactive_p99_us,
                  r.miss_rate, r.bulk_mean_us,
                  static_cast<std::int64_t>(r.preemptions)});
    }
    st.print(std::cout);
    const auto& on = slo_runs[0];
    const auto& off = slo_runs[1];
    std::printf("\nslo: deadline %.0f us; preemption cuts interactive p99 "
                "%.0f us -> %.0f us and miss rate %.1f%% -> %.1f%% "
                "(%llu parks)\n",
                slo_deadline_s * 1e6, off.interactive_p99_us,
                on.interactive_p99_us, off.miss_rate * 100,
                on.miss_rate * 100,
                static_cast<unsigned long long>(on.preemptions));
  };

  if (stream_only) {
    run_streaming();
    return 0;
  }
  if (slo_only) {
    run_slo();
    return 0;
  }

  print_header("Serving throughput",
               "closed-loop load vs batching policy (serve::Engine)");

  const PolicyCase cases[] = {
      {"no_batching", {.max_batch = 1, .max_wait_s = 0}},
      {"batch8_200us", {.max_batch = 8, .max_wait_s = 200e-6}},
      {"batch16_500us", {.max_batch = 16, .max_wait_s = 500e-6}},
      {"batch32_1ms", {.max_batch = 32, .max_wait_s = 1e-3}},
  };
  const std::vector<int> client_counts =
      args.quick ? std::vector<int>{1, 16} : std::vector<int>{1, 4, 16, 32};
  const std::uint64_t per_client = args.quick ? 100 : 400;

  Table table({"policy", "clients", "req/s", "p50 us", "p95 us", "p99 us",
               "occupancy"});
  std::vector<RunResult> runs;
  double no_batching_rps = 0, batched_rps = 0;
  for (const auto& pc : cases) {
    for (int clients : client_counts) {
      const auto r = run_load(pc, clients, per_client);
      runs.push_back(r);
      table.add_row({r.policy, static_cast<std::int64_t>(r.clients), r.rps,
                     r.p50_us, r.p95_us, r.p99_us, r.avg_occupancy});
      const bool saturating = clients == client_counts.back();
      if (saturating && r.policy == "no_batching") no_batching_rps = r.rps;
      if (saturating) batched_rps = std::max(batched_rps, r.rps);
    }
  }
  table.print(std::cout);
  std::printf("\nheadline: batched %.0f req/s vs no-batching %.0f req/s "
              "(%.1fx) at saturating load\n",
              batched_rps, no_batching_rps,
              no_batching_rps > 0 ? batched_rps / no_batching_rps : 0.0);
  vecref::VerifyStats all_verify;
  for (const auto& r : runs) all_verify.merge(r.verify);
  std::printf("verify: %llu responses (%llu elements) checked against the "
              "SIMD host reference, %llu bit mismatches%s\n",
              static_cast<unsigned long long>(all_verify.requests),
              static_cast<unsigned long long>(all_verify.elements),
              static_cast<unsigned long long>(all_verify.mismatches),
              all_verify.clean() ? "" : "  ** BIT-EXACTNESS BROKEN **");
  if (!all_verify.clean()) return 1;

  run_streaming();
  run_slo();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << to_json(runs, no_batching_rps, batched_rps, stream_runs, slo_runs,
                   slo_deadline_s);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
