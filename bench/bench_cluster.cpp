// Multi-device cluster serving benchmark: throughput scaling and tail
// latency of serve::Cluster versus a single-device serve::Engine.
//
//   bench_cluster [--quick] [--chaos] [--json PATH] [--ref-rps RPS]
//   bench_cluster --stress SECONDS [--seed S]
//
// Two claims are measured:
//
//  * Capacity scaling — a 4-device cluster sustains >= 3x the simulated
//    serving capacity of one device. The host running this bench has one
//    core, so *wall-clock* throughput cannot scale with device count;
//    capacity is therefore measured in simulated device time: every
//    response carries (device, launch_id, report.time_s), launches are
//    deduplicated per device, and capacity = completed requests divided by
//    the busiest device's summed simulated launch time. Single device and
//    cluster are measured with the identical formula. --ref-rps (the
//    saturating batched wall-clock figure from BENCH_serve.json) is
//    recorded alongside for context.
//
//  * Work stealing cuts the bulk tail — a hot-key burst (every request
//    sharing one GroupKey) pins the whole backlog on its affinity device;
//    with stealing enabled, idle siblings take formed bulk batches and the
//    simulated completion-time p99 of the burst drops. Simulated
//    completion of a request = prefix sum of its device's unique launch
//    times up to and including its own launch.
//
// --chaos adds a third scenario: a closed-loop load where a seeded
// persistent fault kills 1 of 4 devices mid-run. Every request records the
// bad device's health state at submit time, so per-request wall latency
// (Response::timing.total_s) splits into before / during / after the
// quarantine. Reported: availability (Ok fraction — the failover machinery
// should hold it at 1.0), failover latency (requests resumed on another
// device from their tile checkpoint), and the phase p50/p99 showing the
// tail spike while faulted batches re-dispatch and its recovery once
// placement stops offering the dead device.
//
// --stress SECONDS runs a seeded multi-client mixed workload (all four op
// kinds, invalid requests sprinkled in) against a 4-device cluster for the
// given wall time, then verifies every future resolved and the merged
// metrics agree with the futures' testimony. Nonzero exit on violation —
// this is the CI cluster stress job.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kernels/vec_ref.hpp"
#include "serve/cluster.hpp"

using namespace ascend;
using namespace ascend::bench;
using namespace ascan::serve;

namespace {

std::vector<ascan::half> bit_row(Rng& rng, std::size_t n) {
  std::vector<ascan::half> x(n);
  for (auto& v : x) v = ascan::half(rng.bernoulli(0.5) ? 1.0f : 0.0f);
  return x;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Simulated-time reconstruction from response (device, launch_id) tags.

struct DeviceSim {
  std::uint64_t served = 0;    ///< Ok responses this device produced
  std::uint64_t launches = 0;  ///< unique coalesced launches
  double busy_s = 0;           ///< summed simulated launch time
};

/// Per-device simulated busy time, deduplicating batched launches that
/// several responses share.
std::map<int, DeviceSim> device_sim(const std::vector<Response>& rs) {
  std::map<int, std::map<std::uint64_t, double>> uniq;
  std::map<int, DeviceSim> out;
  for (const auto& r : rs) {
    if (!r.ok() || r.launch_id == 0) continue;
    uniq[r.device][r.launch_id] = r.report.time_s;
    out[r.device].served++;
  }
  for (const auto& [dev, launches] : uniq) {
    auto& d = out[dev];
    d.launches = launches.size();
    for (const auto& [id, t] : launches) d.busy_s += t;
  }
  return out;
}

/// Simulated completion time of every Ok response: devices run their own
/// launches back to back (concurrently with each other), so a request
/// finishes at the prefix sum of its device's launch times up to and
/// including its own launch_id.
std::vector<double> sim_completions(const std::vector<Response>& rs) {
  std::map<int, std::map<std::uint64_t, double>> uniq;
  for (const auto& r : rs) {
    if (r.ok() && r.launch_id != 0) uniq[r.device][r.launch_id] = r.report.time_s;
  }
  std::map<int, std::map<std::uint64_t, double>> finish;
  for (const auto& [dev, launches] : uniq) {
    double acc = 0;
    for (const auto& [id, t] : launches) {
      acc += t;
      finish[dev][id] = acc;
    }
  }
  std::vector<double> out;
  out.reserve(rs.size());
  for (const auto& r : rs) {
    if (r.ok() && r.launch_id != 0) out.push_back(finish[r.device][r.launch_id]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Capacity scaling: closed-loop mixed-key load, single device vs cluster.

struct CapacityResult {
  std::string name;
  std::uint64_t completed = 0;
  double wall_s = 0;
  double wall_rps = 0;
  double busiest_sim_s = 0;
  double sim_capacity_rps = 0;
  std::uint64_t steals = 0;
  std::uint64_t stolen_requests = 0;
  std::map<int, DeviceSim> devices;
  std::vector<MetricsSnapshot> shards;
  vecref::VerifyStats verify;  ///< every Ok response checked bit-for-bit
};

/// Saturating open loop: `total` requests are submitted as fast as the
/// submitter threads can go, then every future is harvested. The backlog
/// stays deep enough that each device forms full batches — the capacity
/// question is "how fast can the fleet chew through a saturating queue",
/// not "how well does it idle". Mixed row lengths and tiles spread the
/// traffic over eight GroupKeys so affinity placement has something to
/// distribute.
struct DriveResult {
  std::vector<Response> responses;
  double wall_s = 0;
  vecref::VerifyStats verify;
};

DriveResult drive(const std::function<std::future<Response>(Request)>& submit,
                  std::size_t total, std::uint64_t seed) {
  constexpr int kSubmitters = 4;
  std::vector<std::future<Response>> futs(total);
  std::vector<std::vector<ascan::half>> inputs(total);
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < kSubmitters; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + static_cast<std::uint64_t>(c) * 7919);
      for (std::size_t i = static_cast<std::size_t>(c); i < total;
           i += kSubmitters) {
        const std::size_t n = 128 + 64 * (i % 4);
        const std::size_t tile = (i % 2 != 0) ? 64 : 128;
        inputs[i] = bit_row(rng, n);
        futs[i] = submit(
            Request::cumsum(inputs[i], tile, false, Priority::Bulk));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Response> rs;
  rs.reserve(total);
  for (auto& f : futs) rs.push_back(f.get());
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Verify after the clock stops: every Ok response bit-compared against
  // the SIMD host reference (0/1 rows: the exact-comparison corpus). The
  // counters certify the throughput numbers are for correct answers; the
  // check itself stays outside the measured wall time.
  DriveResult out;
  out.wall_s = wall;
  for (std::size_t i = 0; i < total; ++i) {
    if (rs[i].ok()) {
      vecref::verify_cumsum(inputs[i], rs[i].values_f16, out.verify);
    }
  }
  out.responses = std::move(rs);
  return out;
}

CapacityResult finish_capacity(std::string name, DriveResult d) {
  CapacityResult out;
  out.name = std::move(name);
  out.wall_s = d.wall_s;
  out.verify = d.verify;
  const auto& rs = d.responses;
  out.devices = device_sim(rs);
  for (const auto& [dev, load] : out.devices) {
    out.completed += load.served;
    out.busiest_sim_s = std::max(out.busiest_sim_s, load.busy_s);
  }
  out.wall_rps =
      d.wall_s > 0 ? static_cast<double>(out.completed) / d.wall_s : 0;
  out.sim_capacity_rps =
      out.busiest_sim_s > 0
          ? static_cast<double>(out.completed) / out.busiest_sim_s
          : 0;
  return out;
}

CapacityResult run_capacity_single(const BatchPolicy& policy,
                                   std::size_t total) {
  Engine engine({.policy = policy, .max_queue = 4 * total});
  auto d = drive(
      [&](Request r) { return engine.submit(std::move(r)); }, total, 100);
  engine.shutdown(ShutdownMode::Drain);
  auto out = finish_capacity("single_device", std::move(d));
  out.shards.push_back(engine.metrics());
  return out;
}

/// The monolithic control for the cluster row: the same four devices, but
/// served by ONE engine through one shared submission queue — the
/// configuration whose global host front end made the original cluster row
/// lose to a single device. Cluster-vs-this isolates what sharding the
/// front end (placement + per-device queues + stealing) is worth at equal
/// host parallelism; a cluster row below this one means the cluster front
/// end's own overhead regressed.
CapacityResult run_capacity_fleet_shared(const BatchPolicy& policy,
                                         std::size_t total) {
  Engine engine(
      {.policy = policy, .max_queue = 4 * total, .num_workers = 4});
  auto d = drive(
      [&](Request r) { return engine.submit(std::move(r)); }, total, 100);
  engine.shutdown(ShutdownMode::Drain);
  auto out = finish_capacity("fleet4_shared_queue", std::move(d));
  out.shards.push_back(engine.metrics());
  return out;
}

/// Wall-clock rps on a time-shared host is noisy; repeat the closed-loop
/// drive and keep the fastest run (the one least perturbed by unrelated
/// scheduling), merging the bit-exactness counters from every repeat so
/// the verification corpus still covers all of them.
template <typename Fn>
CapacityResult best_of(int reps, Fn&& run) {
  CapacityResult best = run();
  vecref::VerifyStats all = best.verify;
  for (int i = 1; i < reps; ++i) {
    CapacityResult r = run();
    all.merge(r.verify);
    if (r.wall_rps > best.wall_rps) best = std::move(r);
  }
  best.verify = all;
  return best;
}

CapacityResult run_capacity_cluster(const BatchPolicy& policy,
                                    std::size_t total) {
  Cluster cluster({.policy = policy,
                   .num_devices = 4,
                   .max_queue = 4 * total,
                   .steal_min_backlog = 8,
                   .steal_poll_s = 50e-6,
                   .spill_margin = 2});
  auto d = drive(
      [&](Request r) { return cluster.submit(std::move(r)); }, total, 100);
  cluster.shutdown(ShutdownMode::Drain);
  auto out = finish_capacity("cluster4_stealing", std::move(d));
  out.shards = cluster.per_device_metrics();
  const auto m = cluster.metrics();
  out.steals = m.steals;
  out.stolen_requests = m.stolen_requests;
  return out;
}

// ---------------------------------------------------------------------------
// Hot-key burst: one GroupKey's backlog, affinity-only vs work stealing.

struct BurstResult {
  std::string name;
  std::uint64_t completed = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  std::uint64_t steals = 0;
  std::uint64_t stolen_requests = 0;
  std::map<int, DeviceSim> devices;
};

BurstResult run_burst(bool stealing, int reqs) {
  Cluster cluster({.policy = {.max_batch = 8, .max_wait_s = 100e-6},
                   .num_devices = 4,
                   .max_queue = 2048,
                   .work_stealing = stealing,
                   .steal_min_backlog = 8,
                   .steal_poll_s = 50e-6,
                   // Placement stays pinned to the affinity device so work
                   // stealing is the only rebalancing mechanism measured.
                   .spill_margin = 1u << 20});
  Rng rng(42);
  std::vector<std::future<Response>> futs;
  futs.reserve(static_cast<std::size_t>(reqs));
  for (int i = 0; i < reqs; ++i) {
    futs.push_back(cluster.submit(
        Request::cumsum(bit_row(rng, 256), 128, false, Priority::Bulk)));
  }
  std::vector<Response> rs;
  rs.reserve(futs.size());
  for (auto& f : futs) rs.push_back(f.get());
  cluster.shutdown(ShutdownMode::Drain);

  BurstResult out;
  out.name = stealing ? "work_stealing" : "affinity_only";
  out.devices = device_sim(rs);
  for (const auto& [dev, d] : out.devices) out.completed += d.served;
  const auto done = sim_completions(rs);
  out.p50_us = percentile(done, 0.50) * 1e6;
  out.p95_us = percentile(done, 0.95) * 1e6;
  out.p99_us = percentile(done, 0.99) * 1e6;
  const auto m = cluster.metrics();
  out.steals = m.steals;
  out.stolen_requests = m.stolen_requests;
  return out;
}

// ---------------------------------------------------------------------------
// Chaos: a seeded persistent fault kills one device mid-run. Availability,
// failover latency, and the latency tail before / during / after the
// cluster quarantines the dead device.

struct ChaosPhase {
  std::uint64_t requests = 0;
  double p50_us = 0, p99_us = 0;
};

struct ChaosResult {
  std::uint64_t submitted = 0, ok = 0, failed = 0, rejected = 0;
  double availability = 0;
  int bad_device = -1;
  std::uint64_t failovers = 0, tiles_resumed = 0, health_transitions = 0,
                 canary_probes = 0, shed_brownout = 0, resumed_responses = 0;
  double failover_p50_us = 0, failover_max_us = 0;
  ChaosPhase before, during, after;
};

ChaosResult run_chaos(int reqs) {
  // One quarter of the traffic is a long multi-step shape (2048 elements at
  // tile 16: eight stepwise launches per batch), so faulted batches carry
  // mid-scan tile checkpoints. Kill that shape's affinity device — the
  // victim is guaranteed a steady share of checkpointable load. It serves
  // its first launches cleanly, then every launch faults: a hard device
  // death mid-run, not a transient blip.
  constexpr std::size_t kLongN = 2048, kLongTile = 16;
  Rng key_rng(1);
  const int kBad = static_cast<int>(
      group_key_hash(group_key(Request::cumsum(bit_row(key_rng, kLongN),
                                               kLongTile, false,
                                               Priority::Bulk))) %
      4);
  std::vector<sim::FaultPlan> plans(4);
  plans[static_cast<std::size_t>(kBad)] = sim::FaultPlan::dead_from_launch(6);
  HealthPolicy hp;
  hp.window = 8;
  // React on the very first fault, so no faulted batch is ever retried
  // locally on the dead device (a persistent fault makes that retry a
  // guaranteed loss).
  hp.min_samples = 1;
  // Keep the device down: this scenario measures the before/during/after
  // cut, not half-open readmission (canaries would blur the "after" tail).
  hp.quarantine_hold_s = 3600;
  Cluster cluster({.policy = {.max_batch = 8, .max_wait_s = 100e-6},
                   .num_devices = 4,
                   .max_queue = 2048,
                   .retry = {.max_attempts = 2, .backoff_s = 1e-6},
                   .device_fault_plans = plans,
                   // Stealing off and spill pinned so quarantine-driven
                   // placement is the only rebalancing mechanism measured.
                   .work_stealing = false,
                   .spill_margin = 1u << 20,
                   .health = hp});

  struct Sample {
    double us = 0;
    int phase = 0;  ///< 0 before, 1 during (faulting, not yet out), 2 after
    int resumed_from = -1;
    Status status = Status::Failed;
  };
  std::vector<Sample> samples(static_cast<std::size_t>(reqs));
  constexpr int kClients = 4;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(2026 + static_cast<std::uint64_t>(c) * 7919);
      for (std::size_t i = next.fetch_add(1);
           i < static_cast<std::size_t>(reqs); i = next.fetch_add(1)) {
        const bool long_shape = i % 4 == 3;
        const std::size_t n = long_shape ? kLongN : 128 + 64 * (i % 4);
        const std::size_t tile = long_shape ? kLongTile
                                 : (i % 2 != 0) ? 64
                                                : 128;
        const auto h = cluster.device_health(kBad);
        const int phase = h == HealthState::Healthy        ? 0
                          : h == HealthState::Quarantined ? 2
                                                          : 1;
        auto fut = cluster.submit(
            Request::cumsum(bit_row(rng, n), tile, false, Priority::Bulk));
        const Response r = fut.get();
        samples[i] = {r.timing.total_s * 1e6, phase, r.resumed_from, r.status};
      }
    });
  }
  for (auto& t : clients) t.join();
  cluster.shutdown(ShutdownMode::Drain);

  ChaosResult out;
  out.bad_device = kBad;
  out.submitted = static_cast<std::uint64_t>(reqs);
  std::vector<double> lat[3], failover_lat;
  for (const auto& s : samples) {
    switch (s.status) {
      case Status::Ok: out.ok++; break;
      case Status::Rejected: out.rejected++; break;
      default: out.failed++; break;
    }
    if (s.status != Status::Ok) continue;
    lat[s.phase].push_back(s.us);
    if (s.resumed_from >= 0) failover_lat.push_back(s.us);
  }
  out.availability =
      reqs > 0 ? static_cast<double>(out.ok) / static_cast<double>(reqs) : 0;
  out.resumed_responses = failover_lat.size();
  out.failover_p50_us = percentile(failover_lat, 0.50);
  out.failover_max_us =
      failover_lat.empty()
          ? 0
          : *std::max_element(failover_lat.begin(), failover_lat.end());
  const auto phase_of = [&](int i) {
    ChaosPhase p;
    p.requests = lat[i].size();
    p.p50_us = percentile(lat[i], 0.50);
    p.p99_us = percentile(lat[i], 0.99);
    return p;
  };
  out.before = phase_of(0);
  out.during = phase_of(1);
  out.after = phase_of(2);
  const auto m = cluster.metrics();
  out.failovers = m.failovers;
  out.tiles_resumed = m.tiles_resumed;
  out.health_transitions = m.health_transitions;
  out.canary_probes = m.canary_probes;
  out.shed_brownout = m.shed_brownout;
  return out;
}

// ---------------------------------------------------------------------------
// Stress mode: seeded mixed workload, every-future-resolves verification.

Request random_request(Rng& rng) {
  const auto prio = rng.bernoulli(0.3) ? Priority::Interactive : Priority::Bulk;
  const std::size_t n = 32 + 16 * rng.next_below(4);
  switch (rng.next_below(4)) {
    case 0:
      return Request::cumsum(bit_row(rng, n), rng.bernoulli(0.5) ? 64 : 128,
                             rng.bernoulli(0.25), prio);
    case 1: {
      auto x = bit_row(rng, n);
      auto f = rng.mask_i8(n, 0.1);
      f[0] = 1;
      return Request::segmented_cumsum(std::move(x), std::move(f), prio);
    }
    case 2:
      return Request::sort(rng.uniform_f16(n, -10.0, 10.0), rng.bernoulli(0.5),
                           ascan::SortAlgo::Radix, prio);
    default:
      return Request::top_p(rng.token_probs_f16(128), 0.9, rng.next_double(),
                            128, prio);
  }
}

int run_stress(double seconds, std::uint64_t seed) {
  std::printf("cluster stress: %.0f s, seed %llu, 4 devices\n", seconds,
              static_cast<unsigned long long>(seed));
  Cluster cluster({.policy = {.max_batch = 8, .max_wait_s = 200e-6},
                   .num_devices = 4,
                   .max_queue = 128,
                   .interactive_reserve = 16,
                   .steal_min_backlog = 4,
                   .spill_margin = 2});
  constexpr int kClients = 4;
  std::atomic<std::uint64_t> submitted{0}, ok{0}, rejected{0}, cancelled{0},
      failed{0}, unresolved{0};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(seed + static_cast<std::uint64_t>(c) * 7919);
      std::deque<std::future<Response>> pending;
      const auto harvest = [&](std::future<Response>& f) {
        if (f.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          unresolved++;  // a dangling future: the bug this mode hunts
          return;
        }
        switch (f.get().status) {
          case Status::Ok: ok++; break;
          case Status::Rejected: rejected++; break;
          case Status::Cancelled: cancelled++; break;
          case Status::Failed: failed++; break;
        }
      };
      while (std::chrono::steady_clock::now() < deadline) {
        Request r = random_request(rng);
        if (rng.bernoulli(0.02)) r.x.clear();  // sprinkle invalid requests
        pending.push_back(cluster.submit(std::move(r)));
        submitted++;
        if (pending.size() > 512) {  // bound the resident future backlog
          harvest(pending.front());
          pending.pop_front();
        }
      }
      for (auto& f : pending) harvest(f);
    });
  }
  for (auto& t : clients) t.join();
  cluster.shutdown(ShutdownMode::Drain);

  const auto m = cluster.metrics();
  const std::uint64_t resolved = ok + rejected + cancelled + failed;
  std::printf("submitted %llu  ok %llu  rejected %llu  cancelled %llu  "
              "failed %llu  unresolved %llu\n",
              static_cast<unsigned long long>(submitted.load()),
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(cancelled.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<unsigned long long>(unresolved.load()));
  std::printf("merged metrics: submitted %llu  admitted %llu  completed %llu  "
              "steals %llu  stolen %llu  spills %llu\n",
              static_cast<unsigned long long>(m.submitted),
              static_cast<unsigned long long>(m.admitted),
              static_cast<unsigned long long>(m.completed),
              static_cast<unsigned long long>(m.steals),
              static_cast<unsigned long long>(m.stolen_requests),
              static_cast<unsigned long long>(m.routed_spill));

  bool pass = true;
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::printf("VIOLATION: %s\n", what);
      pass = false;
    }
  };
  expect(unresolved.load() == 0, "every future resolves");
  expect(resolved == submitted.load(), "every submission accounted for");
  expect(m.submitted == submitted.load(), "metrics saw every submission");
  expect(m.rejected_capacity + m.rejected_invalid + m.rejected_shutdown ==
             rejected.load(),
         "rejection counters match futures");
  expect(m.admitted == m.completed + m.failed + m.cancelled,
         "no admitted request vanished");
  expect(m.completed == ok.load(), "completion counter matches futures");
  std::printf("stress: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

// ---------------------------------------------------------------------------

void devices_json(std::ostringstream& os, const CapacityResult& r) {
  os << "[";
  bool first = true;
  for (const auto& [dev, d] : r.devices) {
    const auto* shard =
        static_cast<std::size_t>(dev) < r.shards.size()
            ? &r.shards[static_cast<std::size_t>(dev)]
            : nullptr;
    os << (first ? "" : ", ") << "{\"device\": " << dev
       << ", \"served\": " << d.served << ", \"launches\": " << d.launches
       << ", \"sim_busy_s\": " << d.busy_s << ", \"occupancy\": "
       << (shard ? shard->avg_batch_occupancy : 0.0) << "}";
    first = false;
  }
  os << "]";
}

std::string to_json(const CapacityResult& single, const CapacityResult& fleet,
                    const CapacityResult& cluster, const BurstResult& affinity,
                    const BurstResult& stealing, double ref_rps,
                    unsigned host_cores, const ChaosResult* chaos) {
  const double sim_ratio =
      single.sim_capacity_rps > 0
          ? cluster.sim_capacity_rps / single.sim_capacity_rps
          : 0;
  // A 1-core host time-slices the cluster's device workers against each
  // other and the submitters, so a single device with the whole core to
  // itself can win on wall clock no matter how lean the front end is. The
  // single-device ordering is therefore asserted only when the host can
  // actually run the fleet concurrently; the fleet4_shared_queue ordering
  // has no such excuse (same devices, same thread count) and is asserted
  // everywhere — with a small tolerance, since both sides are wall clock.
  const bool host_parallel = host_cores >= 4 /*devices*/ + 1;
  std::ostringstream os;
  os << "{\n  \"bench\": \"cluster_serving\",\n"
     << "  \"machine\": \"4x simulated Ascend 910B4, " << host_cores
     << " host core(s)\",\n"
     << "  \"note\": \"wall-clock rps cannot scale with device count on a "
        "single-core host; capacity is completed requests / busiest device's "
        "summed simulated launch time, measured identically for every row; "
        "wall_rps rows are best-of-N closed-loop runs\",\n"
     << "  \"throughput\": {\n";
  for (const auto* r : {&single, &fleet, &cluster}) {
    os << "    \"" << r->name << "\": {\"completed\": " << r->completed
       << ", \"wall_s\": " << r->wall_s << ", \"wall_rps\": " << r->wall_rps
       << ", \"busiest_sim_s\": " << r->busiest_sim_s
       << ", \"sim_capacity_rps\": " << r->sim_capacity_rps
       << ", \"steals\": " << r->steals
       << ", \"stolen_requests\": " << r->stolen_requests
       << ", \"verified\": " << r->verify.requests
       << ", \"mismatches\": " << r->verify.mismatches
       << ", \"devices\": ";
    devices_json(os, *r);
    os << "},\n";
  }
  os << "    \"capacity_ratio\": " << sim_ratio
     << ",\n    \"ref_saturating_wall_rps\": " << ref_rps
     << ",\n    \"sim_capacity_vs_ref\": "
     << (ref_rps > 0 ? cluster.sim_capacity_rps / ref_rps : 0)
     << ",\n    \"ordering\": {\"note\": \"expected orderings: cluster sim "
        "capacity must scale (>= 3x one device); cluster wall rps must hold "
        "within 10% of the same four devices behind one shared-queue engine "
        "(sharded front end vs shared front end, equal host parallelism — "
        "asserted at exit alongside bit_exact in full runs); and cluster "
        "wall rps must beat one device outright when the host has cores to "
        "run the fleet concurrently (annotated, not asserted, when "
        "host_limited)\", "
        "\"host_limited\": "
     << (host_parallel ? "false" : "true")
     << ", \"cluster_over_fleet_wall_ratio\": "
     << (fleet.wall_rps > 0 ? cluster.wall_rps / fleet.wall_rps : 0)
     << ", \"cluster_over_single_wall_ratio\": "
     << (single.wall_rps > 0 ? cluster.wall_rps / single.wall_rps : 0)
     << ", \"cluster_wall_holds_vs_shared_queue_fleet\": "
     << (cluster.wall_rps >= 0.90 * fleet.wall_rps ? "true" : "false")
     << ", \"cluster_wall_ge_single\": "
     << (cluster.wall_rps >= single.wall_rps ? "true" : "false")
     << ", \"cluster_sim_capacity_ge_3x\": "
     << (sim_ratio >= 3.0 ? "true" : "false") << ", \"bit_exact\": "
     << (single.verify.clean() && fleet.verify.clean() &&
                 cluster.verify.clean()
             ? "true"
             : "false")
     << "}\n  },\n"
     << "  \"hot_key_burst\": {\n";
  for (const auto* b : {&affinity, &stealing}) {
    os << "    \"" << b->name << "\": {\"completed\": " << b->completed
       << ", \"bulk_p50_us\": " << b->p50_us
       << ", \"bulk_p95_us\": " << b->p95_us
       << ", \"bulk_p99_us\": " << b->p99_us << ", \"steals\": " << b->steals
       << ", \"stolen_requests\": " << b->stolen_requests
       << ", \"devices_used\": " << b->devices.size() << "},\n";
  }
  os << "    \"p99_improvement\": "
     << (stealing.p99_us > 0 ? affinity.p99_us / stealing.p99_us : 0)
     << "\n  }";
  if (chaos) {
    const auto phase = [&os](const char* name, const ChaosPhase& p,
                             const char* trail) {
      os << "      \"" << name << "\": {\"requests\": " << p.requests
         << ", \"p50_us\": " << p.p50_us << ", \"p99_us\": " << p.p99_us
         << "}" << trail << "\n";
    };
    os << ",\n  \"chaos\": {\n"
       << "    \"note\": \"persistent fault kills device " << chaos->bad_device
       << " mid-run; phases tagged by that device's health state at submit "
          "time; latency is wall-clock Response::timing.total_s\",\n"
       << "    \"requests\": " << chaos->submitted
       << ",\n    \"ok\": " << chaos->ok
       << ",\n    \"failed\": " << chaos->failed
       << ",\n    \"rejected\": " << chaos->rejected
       << ",\n    \"availability\": " << chaos->availability
       << ",\n    \"bad_device\": " << chaos->bad_device
       << ",\n    \"failovers\": " << chaos->failovers
       << ",\n    \"tiles_resumed\": " << chaos->tiles_resumed
       << ",\n    \"health_transitions\": " << chaos->health_transitions
       << ",\n    \"canary_probes\": " << chaos->canary_probes
       << ",\n    \"shed_brownout\": " << chaos->shed_brownout
       << ",\n    \"failover_latency_us\": {\"resumed_responses\": "
       << chaos->resumed_responses << ", \"p50\": " << chaos->failover_p50_us
       << ", \"max\": " << chaos->failover_max_us << "},\n"
       << "    \"phases\": {\n";
    phase("before_quarantine", chaos->before, ",");
    phase("during_failover", chaos->during, ",");
    phase("after_quarantine", chaos->after, "");
    os << "    }\n  }";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = BenchArgs::parse(argc, argv);
  std::string json_path;
  double stress_s = 0, ref_rps = 0;
  std::uint64_t seed = 1;
  bool chaos_on = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos_on = true;
    } else if (std::strcmp(argv[i], "--stress") == 0 && i + 1 < argc) {
      stress_s = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--ref-rps") == 0 && i + 1 < argc) {
      ref_rps = std::atof(argv[i + 1]);
    }
  }
  if (stress_s > 0) return run_stress(stress_s, seed);

  print_header("Cluster serving",
               "4-device capacity scaling and work-stealing tail latency");

  const BatchPolicy policy{.max_batch = 32, .max_wait_s = 1e-3};
  const std::size_t total = args.quick ? 1600 : 6400;
  const int burst_reqs = args.quick ? 128 : 256;

  const int reps = args.quick ? 1 : 3;
  const auto single =
      best_of(reps, [&] { return run_capacity_single(policy, total); });
  const auto fleet =
      best_of(reps, [&] { return run_capacity_fleet_shared(policy, total); });
  const auto cluster =
      best_of(reps, [&] { return run_capacity_cluster(policy, total); });
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());

  Table cap({"run", "completed", "wall req/s", "sim capacity req/s",
             "busiest sim ms", "steals"});
  for (const auto* r : {&single, &fleet, &cluster}) {
    cap.add_row({r->name, static_cast<std::int64_t>(r->completed), r->wall_rps,
                 r->sim_capacity_rps, r->busiest_sim_s * 1e3,
                 static_cast<std::int64_t>(r->steals)});
  }
  cap.print(std::cout);
  const double ratio = single.sim_capacity_rps > 0
                           ? cluster.sim_capacity_rps / single.sim_capacity_rps
                           : 0;
  std::printf("\ncapacity: cluster %.0f req/s vs single device %.0f req/s "
              "(%.2fx, simulated device time)\n",
              cluster.sim_capacity_rps, single.sim_capacity_rps, ratio);
  vecref::VerifyStats all_verify = single.verify;
  all_verify.merge(fleet.verify);
  all_verify.merge(cluster.verify);
  std::printf("verify: %llu responses (%llu elements) checked against the "
              "SIMD host reference, %llu bit mismatches%s\n",
              static_cast<unsigned long long>(all_verify.requests),
              static_cast<unsigned long long>(all_verify.elements),
              static_cast<unsigned long long>(all_verify.mismatches),
              all_verify.clean() ? "" : "  ** BIT-EXACTNESS BROKEN **");
  // Sharded front end vs the same fleet behind one shared-queue engine:
  // equal device fleet, equal host thread count, so this ordering holds on
  // any host up to scheduler noise — both front ends are lock-free now, so
  // the two rows are legitimately close, and the exit-status assert uses a
  // 10% wall-clock band to flag only real regressions (a reintroduced
  // global bottleneck in the cluster front end, not a bad scheduler draw).
  // Quick mode is a smoke run (1 rep, small corpus): numbers are printed
  // but only bit-exactness and future resolution are load-bearing.
  const bool shard_win =
      args.quick || cluster.wall_rps >= 0.90 * fleet.wall_rps;
  if (!shard_win) {
    std::printf("FAIL: cluster wall rps %.0f more than 10%% below the "
                "shared-queue fleet's %.0f — the sharded front end lost to "
                "the single shared-queue engine it exists to beat\n",
                cluster.wall_rps, fleet.wall_rps);
  }
  if (cluster.wall_rps < single.wall_rps) {
    if (host_cores >= 5) {
      std::printf("WARNING: cluster wall rps %.0f below single-device %.0f "
                  "on a %u-core host — host hot-path overhead is eating the "
                  "fleet's headroom\n",
                  cluster.wall_rps, single.wall_rps, host_cores);
    } else {
      std::printf("note: cluster wall rps %.0f vs single-device %.0f — "
                  "host-limited (%u core(s) time-slicing %d device workers; "
                  "see ordering.host_limited)\n",
                  cluster.wall_rps, single.wall_rps, host_cores, 4);
    }
  }
  if (ratio < 3.0) {
    std::printf("WARNING: sim capacity ratio %.2fx below the 3x scaling "
                "claim\n", ratio);
  }
  if (ref_rps > 0) {
    std::printf("reference: BENCH_serve.json saturating batched wall rate "
                "%.0f req/s (cluster sim capacity = %.1fx)\n",
                ref_rps, cluster.sim_capacity_rps / ref_rps);
  }

  const auto affinity = run_burst(/*stealing=*/false, burst_reqs);
  const auto stealing = run_burst(/*stealing=*/true, burst_reqs);
  Table tail({"hot-key burst", "devices", "p50 us", "p95 us", "p99 us",
              "steals", "stolen"});
  for (const auto* b : {&affinity, &stealing}) {
    tail.add_row({b->name, static_cast<std::int64_t>(b->devices.size()),
                  b->p50_us, b->p95_us, b->p99_us,
                  static_cast<std::int64_t>(b->steals),
                  static_cast<std::int64_t>(b->stolen_requests)});
  }
  tail.print(std::cout);
  std::printf("\ntail: stealing cuts the burst's simulated bulk p99 from "
              "%.0f us to %.0f us (%.2fx)\n",
              affinity.p99_us, stealing.p99_us,
              stealing.p99_us > 0 ? affinity.p99_us / stealing.p99_us : 0.0);

  ChaosResult chaos;
  if (chaos_on) {
    chaos = run_chaos(args.quick ? 256 : 512);
    Table ct({"chaos phase", "requests", "p50 us", "p99 us"});
    const std::pair<const char*, const ChaosPhase*> phases[] = {
        {"before quarantine", &chaos.before},
        {"during failover", &chaos.during},
        {"after quarantine", &chaos.after}};
    for (const auto& [name, p] : phases) {
      ct.add_row({name, static_cast<std::int64_t>(p->requests), p->p50_us,
                  p->p99_us});
    }
    ct.print(std::cout);
    std::printf("\nchaos: device %d died mid-run; availability %.4f "
                "(%llu/%llu ok), %llu failovers, %llu tile-checkpoint "
                "resumes, %llu responses finished on another device "
                "(p50 %.0f us, max %.0f us)\n",
                chaos.bad_device, chaos.availability,
                static_cast<unsigned long long>(chaos.ok),
                static_cast<unsigned long long>(chaos.submitted),
                static_cast<unsigned long long>(chaos.failovers),
                static_cast<unsigned long long>(chaos.tiles_resumed),
                static_cast<unsigned long long>(chaos.resumed_responses),
                chaos.failover_p50_us, chaos.failover_max_us);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << to_json(single, fleet, cluster, affinity, stealing, ref_rps,
                   host_cores, chaos_on ? &chaos : nullptr);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_verify.clean() && shard_win ? 0 : 1;
}
