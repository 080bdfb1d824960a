// Cluster serving tests: multi-device placement and work stealing must be
// observationally invisible — bit-exact results versus a single-device
// Engine on the same stream — while the cluster-only machinery (affinity
// routing, spill, bulk-batch stealing, device-parallel shutdown,
// per-device metrics shards) is exercised and asserted directly.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ascan.hpp"
#include "serve/batcher.hpp"
#include "serve/cluster.hpp"
#include "test_helpers.hpp"

namespace ascend {
namespace {

using ascan::Session;
using namespace ascan::serve;
using testing::exact_scan_workload;

std::vector<std::int8_t> seg_flags(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto f = rng.mask_i8(n, 0.05);
  f[0] = 1;
  return f;
}

/// One reference case: a request plus its expected response computed with
/// direct Session calls (no serving layer).
struct Expected {
  Request req;
  Response direct;
};

Expected make_case(std::size_t i, Session& ref) {
  Rng rng(5000 + i);
  Expected e;
  switch (i % 4) {
    case 0: {
      const std::size_t n = 64 + 32 * (i % 5);
      auto x = exact_scan_workload(n, 10 + i);
      auto r = ref.cumsum_batched(x, 1, n);
      e.direct.values_f16 = std::move(r.values);
      e.req = Request::cumsum(std::move(x), 128, false,
                              i % 3 ? Priority::Bulk : Priority::Interactive);
      break;
    }
    case 1: {
      const std::size_t n = 96 + 16 * (i % 3);
      auto x = exact_scan_workload(n, 20 + i);
      auto f = seg_flags(n, 30 + i);
      auto r = ref.segmented_cumsum(x, f);
      e.direct.values_f32 = std::move(r.values);
      e.req = Request::segmented_cumsum(std::move(x), std::move(f));
      break;
    }
    case 2: {
      auto x = rng.uniform_f16(128 + (i % 4) * 64, -100.0, 100.0);
      auto r = ref.sort(x, i % 8 == 2);
      e.direct.sorted_values = std::move(r.values);
      e.direct.indices = std::move(r.indices);
      e.req = Request::sort(std::move(x), i % 8 == 2);
      break;
    }
    default: {
      auto probs = rng.token_probs_f16(256);
      const double u = rng.next_double();
      e.direct.token = ref.top_p_sample(probs, 0.9, u).index;
      e.req = Request::top_p(std::move(probs), 0.9, u);
      break;
    }
  }
  return e;
}

void expect_matches(const Response& got, const Expected& e, std::size_t i) {
  ASSERT_EQ(got.status, Status::Ok) << "case " << i << ": " << got.reason;
  ASSERT_EQ(got.values_f16.size(), e.direct.values_f16.size()) << "case " << i;
  for (std::size_t j = 0; j < got.values_f16.size(); ++j) {
    ASSERT_EQ(static_cast<float>(got.values_f16[j]),
              static_cast<float>(e.direct.values_f16[j]))
        << "case " << i << " index " << j;
  }
  ASSERT_EQ(got.values_f32, e.direct.values_f32) << "case " << i;
  ASSERT_EQ(got.sorted_values.size(), e.direct.sorted_values.size());
  for (std::size_t j = 0; j < got.sorted_values.size(); ++j) {
    ASSERT_EQ(static_cast<float>(got.sorted_values[j]),
              static_cast<float>(e.direct.sorted_values[j]))
        << "case " << i << " index " << j;
  }
  ASSERT_EQ(got.indices, e.direct.indices) << "case " << i;
  ASSERT_EQ(got.token, e.direct.token) << "case " << i;
}

// ---------------------------------------------------------------------------
// Tentpole: the serving device must not matter. Whatever device the
// placement hash, a spill or a steal lands a request on, the result is
// bit-exact with a single-device engine / direct Session execution.

TEST(ServeCluster, BitExactVersusDirectSession) {
  Session ref(sim::MachineConfig::ascend_910b4());
  constexpr std::size_t kCases = 24;
  std::vector<Expected> cases;
  cases.reserve(kCases);
  for (std::size_t i = 0; i < kCases; ++i) cases.push_back(make_case(i, ref));

  Cluster cluster({.policy = {.max_batch = 8, .max_wait_s = 300e-6},
                   .num_devices = 4,
                   .steal_min_backlog = 2});
  std::vector<std::future<Response>> futs;
  futs.reserve(kCases);
  for (const auto& c : cases) futs.push_back(cluster.submit(c.req));
  for (std::size_t i = 0; i < kCases; ++i) {
    const Response r = futs[i].get();
    expect_matches(r, cases[i], i);
    EXPECT_GE(r.device, 0);
    EXPECT_LT(r.device, 4);
    EXPECT_GE(r.launch_id, 1u);
  }
  cluster.shutdown(ShutdownMode::Drain);
  const auto m = cluster.metrics();
  EXPECT_EQ(m.completed, kCases);
  EXPECT_EQ(m.failed + m.cancelled + m.rejected_capacity, 0u);
  EXPECT_EQ(m.routed_affinity + m.routed_spill, kCases);
}

TEST(ServeCluster, DeterministicAcrossRunsForTheSameStream) {
  // Same seeded stream through two independent clusters: whatever batch
  // compositions and steal interleavings each run produces, the values
  // must be identical (placement is a pure hash; kernels are deterministic
  // and batching-invariant).
  Session ref;
  constexpr std::size_t kCases = 16;
  std::vector<Expected> cases;
  for (std::size_t i = 0; i < kCases; ++i) cases.push_back(make_case(i, ref));

  auto run = [&] {
    Cluster cluster({.policy = {.max_batch = 8, .max_wait_s = 200e-6},
                     .num_devices = 3,
                     .steal_min_backlog = 2});
    std::vector<std::future<Response>> futs;
    for (const auto& c : cases) futs.push_back(cluster.submit(c.req));
    std::vector<Response> rs;
    rs.reserve(kCases);
    for (auto& f : futs) rs.push_back(f.get());
    return rs;
  };
  const auto a = run();
  const auto b = run();
  for (std::size_t i = 0; i < kCases; ++i) {
    ASSERT_EQ(a[i].status, Status::Ok) << a[i].reason;
    ASSERT_EQ(b[i].status, Status::Ok) << b[i].reason;
    EXPECT_EQ(a[i].values_f16.size(), b[i].values_f16.size());
    for (std::size_t j = 0; j < a[i].values_f16.size(); ++j) {
      ASSERT_EQ(static_cast<float>(a[i].values_f16[j]),
                static_cast<float>(b[i].values_f16[j]));
    }
    EXPECT_EQ(a[i].values_f32, b[i].values_f32);
    EXPECT_EQ(a[i].indices, b[i].indices);
    EXPECT_EQ(a[i].token, b[i].token);
  }
}

// ---------------------------------------------------------------------------
// Placement: GroupKey affinity is deterministic, spill only on imbalance.

TEST(ServeCluster, AffinityKeepsOneKeyOnOneDevice) {
  // Distinct-shape interactive requests, far batching deadline so nothing
  // executes while we look: every request of one GroupKey must land on the
  // same device (the deterministic hash target), with zero spills while
  // the cluster is idle enough.
  Cluster cluster({.policy = {.max_batch = 64, .max_wait_s = 0.2},
                   .num_devices = 4,
                   .max_queue = 512,
                   .work_stealing = false,
                   .spill_margin = 1 << 20});
  const auto x64 = exact_scan_workload(64);
  const auto x128 = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(cluster.submit(Request::cumsum(x64, 64)));
    futs.push_back(cluster.submit(Request::cumsum(x128, 128)));
  }
  cluster.shutdown(ShutdownMode::Drain);
  std::set<int> dev64, dev128;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto r = futs[i].get();
    ASSERT_TRUE(r.ok()) << r.reason;
    (i % 2 ? dev128 : dev64).insert(r.device);
  }
  EXPECT_EQ(dev64.size(), 1u);   // one key, one device
  EXPECT_EQ(dev128.size(), 1u);
  const auto m = cluster.metrics();
  EXPECT_EQ(m.routed_affinity, futs.size());
  EXPECT_EQ(m.routed_spill, 0u);
}

TEST(ServeCluster, OverloadedAffinityTargetSpillsToLeastLoaded) {
  // Tiny spill margin and a far deadline: the second same-key bulk request
  // already sees the target 1 deeper than an idle sibling and spills.
  Cluster cluster({.policy = {.max_batch = 64, .max_wait_s = 0.2},
                   .num_devices = 4,
                   .max_queue = 512,
                   .work_stealing = false,
                   .spill_margin = 1});
  const auto x = exact_scan_workload(96);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 12; ++i) {
    futs.push_back(
        cluster.submit(Request::cumsum(x, 128, false, Priority::Bulk)));
  }
  cluster.shutdown(ShutdownMode::Drain);
  std::set<int> devices;
  for (auto& f : futs) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.reason;
    devices.insert(r.device);
  }
  EXPECT_GT(devices.size(), 1u);  // load balancing engaged
  const auto m = cluster.metrics();
  EXPECT_GT(m.routed_spill, 0u);
  EXPECT_EQ(m.routed_affinity + m.routed_spill, 12u);
}

// ---------------------------------------------------------------------------
// Work stealing: a hot device's bulk backlog is drained by idle siblings;
// interactive requests are never stolen.

TEST(ServeCluster, WorkStealingDrainsBulkBacklog) {
  // Every request shares one GroupKey and a huge spill margin pins them to
  // the affinity device — without stealing, one device does all the work.
  Cluster cluster({.policy = {.max_batch = 4, .max_wait_s = 50e-6},
                   .num_devices = 4,
                   .max_queue = 512,
                   .steal_min_backlog = 4,
                   .steal_poll_s = 50e-6,
                   .spill_margin = 1 << 20});
  const auto x = exact_scan_workload(256);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(
        cluster.submit(Request::cumsum(x, 128, false, Priority::Bulk)));
  }
  std::set<int> devices;
  for (auto& f : futs) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.reason;
    devices.insert(r.device);
  }
  cluster.shutdown(ShutdownMode::Drain);
  const auto m = cluster.metrics();
  EXPECT_EQ(m.completed, 64u);
  EXPECT_EQ(m.routed_spill, 0u);  // placement never moved the key...
  EXPECT_GE(m.steals, 1u);        // ...stealing moved the work
  EXPECT_GE(m.stolen_requests, 1u);
  EXPECT_GE(m.steals_suffered, 1u);
  EXPECT_GT(devices.size(), 1u);
  // The victim's shard saw the thefts; a thief's shard recorded its gains.
  std::uint64_t suffered = 0, gained = 0;
  for (const auto& d : cluster.per_device_metrics()) {
    suffered += d.steals_suffered;
    gained += d.steals;
  }
  EXPECT_EQ(suffered, m.steals_suffered);
  EXPECT_EQ(gained, m.steals);
}

TEST(ServeCluster, StealBulkNeverTakesInteractive) {
  // Batcher-level guarantee the cluster relies on: only the bulk lane is
  // stealable, and only once it is at least min_backlog deep.
  const BatchPolicy policy{.max_batch = 8, .max_wait_s = 1.0};
  const auto now = Clock::now();
  const auto x = exact_scan_workload(32);
  Batcher q;
  auto push = [&](Priority prio, std::uint64_t seq) {
    Pending p;
    p.req = Request::cumsum(x, 128, false, prio);
    p.enqueued = now;
    p.seq = seq;
    q.push(std::move(p));
  };
  push(Priority::Interactive, 0);
  push(Priority::Interactive, 1);
  push(Priority::Bulk, 2);
  EXPECT_TRUE(q.steal_bulk(policy, 2).empty());  // bulk backlog 1 < 2
  push(Priority::Bulk, 3);
  auto stolen = q.steal_bulk(policy, 2);
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0].seq, 2u);
  EXPECT_EQ(stolen[1].seq, 3u);
  EXPECT_EQ(q.size(), 2u);  // both interactive requests still queued
  EXPECT_EQ(q.bulk_size(), 0u);
}

// ---------------------------------------------------------------------------
// Heterogeneous devices: skewed core counts change per-device timing, never
// values. (Integer-valued scan workloads are exact under any partitioning;
// top-p is excluded because its row partitioning follows the core count.)

TEST(ServeCluster, HeterogeneousDevicesAgreeBitExactly) {
  const auto base = sim::MachineConfig::ascend_910b4();
  Cluster cluster({.policy = {.max_batch = 4, .max_wait_s = 100e-6},
                   .num_devices = 4,
                   .device_machines = {base, base.with_ai_cores(8),
                                       base.with_ai_cores(4),
                                       base.with_ai_cores(2)},
                   .steal_min_backlog = 2,
                   .spill_margin = 1});  // spread across the skewed devices
  // Precompute references first: submission must be a tight burst so the
  // backlog (and thus spill/steal pressure) actually builds.
  Session ref;
  std::vector<std::vector<half>> inputs;
  std::vector<std::vector<float>> want;
  for (int i = 0; i < 24; ++i) {
    auto x = exact_scan_workload(64 + 32 * (i % 4), 700 + i);
    auto r = ref.cumsum_batched(x, 1, x.size());
    std::vector<float> w(r.values.size());
    std::transform(r.values.begin(), r.values.end(), w.begin(),
                   [](half h) { return static_cast<float>(h); });
    want.push_back(std::move(w));
    inputs.push_back(std::move(x));
  }
  std::vector<std::future<Response>> futs;
  for (const auto& x : inputs) {
    futs.push_back(
        cluster.submit(Request::cumsum(x, 128, false, Priority::Bulk)));
  }
  std::set<int> devices;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto r = futs[i].get();
    ASSERT_TRUE(r.ok()) << r.reason;
    devices.insert(r.device);
    ASSERT_EQ(r.values_f16.size(), want[i].size());
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      ASSERT_EQ(static_cast<float>(r.values_f16[j]), want[i][j])
          << "case " << i << " index " << j << " device " << r.device;
    }
  }
  EXPECT_GT(devices.size(), 1u);  // the skewed devices actually served
}

// ---------------------------------------------------------------------------
// Shutdown: device-parallel, idempotent, never a dangling future.

TEST(ServeCluster, CancelShutdownResolvesEveryFuture) {
  Cluster cluster({.policy = {.max_batch = 64, .max_wait_s = 1.0},
                   .num_devices = 3,
                   .max_queue = 512});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 30; ++i) {
    futs.push_back(cluster.submit(
        Request::cumsum(x, 128, false,
                        i % 2 ? Priority::Bulk : Priority::Interactive)));
  }
  cluster.shutdown(ShutdownMode::Cancel);
  EXPECT_TRUE(cluster.stopped());
  std::size_t completed = 0, cancelled = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);  // resolved, not dangling
    const auto r = f.get();
    ASSERT_TRUE(r.status == Status::Ok || r.status == Status::Cancelled);
    (r.ok() ? completed : cancelled)++;
  }
  EXPECT_EQ(completed + cancelled, 30u);
  EXPECT_GT(cancelled, 0u);
  const auto m = cluster.metrics();
  EXPECT_EQ(m.cancelled, cancelled);
  EXPECT_EQ(m.completed, completed);

  // Idempotent; post-shutdown submissions reject with a reason.
  cluster.shutdown(ShutdownMode::Drain);
  const auto late = cluster.submit(Request::cumsum(x)).get();
  EXPECT_EQ(late.status, Status::Rejected);
  EXPECT_NE(late.reason.find("shutting down"), std::string::npos);
}

TEST(ServeCluster, ClusterWideAdmissionBound) {
  // One hot key, far deadline: the cluster-level cap binds on the summed
  // backlog even though each device's own queue is far from its limit.
  Cluster cluster({.policy = {.max_batch = 64, .max_wait_s = 0.2},
                   .num_devices = 4,
                   .max_queue = 8,
                   .interactive_reserve = 2,
                   .work_stealing = false,
                   .spill_margin = 1 << 20});
  const auto x = exact_scan_workload(64);
  std::vector<std::future<Response>> admitted;
  std::size_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    auto f =
        cluster.submit(Request::cumsum(x, 128, false, Priority::Bulk));
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const auto r = f.get();
      ASSERT_EQ(r.status, Status::Rejected);
      EXPECT_NE(r.reason.find("cluster queue full"), std::string::npos)
          << r.reason;
      rejected++;
    } else {
      admitted.push_back(std::move(f));
    }
  }
  EXPECT_EQ(admitted.size(), 6u);  // max_queue - interactive_reserve
  EXPECT_EQ(rejected, 4u);
  // The reserve keeps the interactive lane open cluster-wide.
  auto hi = cluster.submit(Request::cumsum(x));
  EXPECT_NE(hi.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  cluster.shutdown(ShutdownMode::Drain);
  for (auto& f : admitted) EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(hi.get().ok());
  EXPECT_EQ(cluster.metrics().rejected_capacity, rejected);
}

// ---------------------------------------------------------------------------
// Metrics: per-shard views, merged view, stable JSON schema.

TEST(ServeCluster, PerDeviceAndMergedMetricsAgree) {
  Cluster cluster({.policy = {.max_batch = 8, .max_wait_s = 100e-6},
                   .num_devices = 4});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 20; ++i) {
    futs.push_back(cluster.submit(Request::cumsum(x, 16u << (i % 4))));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  cluster.shutdown(ShutdownMode::Drain);

  const auto parts = cluster.per_device_metrics();
  ASSERT_EQ(parts.size(), 4u);
  std::uint64_t completed = 0;
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(parts[static_cast<std::size_t>(d)].device, d);
    completed += parts[static_cast<std::size_t>(d)].completed;
  }
  const auto m = cluster.metrics();
  EXPECT_EQ(m.device, -1);  // merged view is not one device's
  EXPECT_EQ(m.completed, completed);
  EXPECT_EQ(m.completed, 20u);
  EXPECT_EQ(m.submitted, 20u);  // front end + shards, counted once

  const std::string j = cluster.metrics_json();
  for (const char* key :
       {"\"merged\"", "\"devices\"", "\"cluster\"", "\"routed_affinity\"",
        "\"steals\"", "\"admission\"", "\"latency\"", "\"simulated\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  }
}

// ---------------------------------------------------------------------------
// Device health: the per-device state machine (serve/health.hpp), brownout
// shedding, half-open readmission, and shutdown racing a quarantine drain.

TEST(ServeClusterHealth, HealthMonitorWalksTheStateMachine) {
  HealthPolicy hp;
  hp.window = 4;
  hp.min_samples = 2;
  hp.quarantine_hold_s = 0;  // promote on the very next tick
  hp.canary_batches = 2;
  HealthMonitor mon(2, hp);
  EXPECT_EQ(mon.state(0), HealthState::Healthy);
  EXPECT_TRUE(mon.placeable(0));
  EXPECT_EQ(mon.placeable_count(), 2u);

  // Clean traffic never transitions; a retried success scores retry_weight.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(mon.record(0, false, 0).has_value());
  EXPECT_EQ(mon.score(0), 0.0);
  EXPECT_FALSE(mon.record(1, false, 3).has_value());
  EXPECT_EQ(mon.score(1), hp.retry_weight);

  // Faults walk Healthy -> Degraded -> Quarantined (two records: one fault
  // in the window of 4 cleans is exactly the degraded threshold, two are
  // the quarantine threshold).
  auto t1 = mon.record(0, true, 0);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->from, HealthState::Healthy);
  EXPECT_EQ(t1->to, HealthState::Degraded);
  EXPECT_TRUE(mon.placeable(0));  // degraded still takes traffic
  auto t2 = mon.record(0, true, 0);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->to, HealthState::Quarantined);
  EXPECT_FALSE(mon.placeable(0));
  EXPECT_EQ(mon.placeable_count(), 1u);
  EXPECT_FALSE(mon.try_admit_canary(0));  // not probing yet

  // Hold elapses -> Probing, with a bounded canary budget.
  std::vector<HealthTransition> promoted;
  mon.tick(&promoted);
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_EQ(promoted[0].device, 0);
  EXPECT_EQ(promoted[0].to, HealthState::Probing);
  EXPECT_FALSE(mon.placeable(0));  // probing is canaries-only
  EXPECT_TRUE(mon.try_admit_canary(0));
  EXPECT_TRUE(mon.try_admit_canary(0));
  EXPECT_FALSE(mon.try_admit_canary(0));  // budget of 2 exhausted

  // A faulting canary re-quarantines; clean canaries readmit with a reset
  // window (stale quarantine-era faults must not re-degrade instantly).
  auto t3 = mon.record(0, true, 0, 1);
  ASSERT_TRUE(t3.has_value());
  EXPECT_EQ(t3->to, HealthState::Quarantined);
  mon.tick(nullptr);
  EXPECT_TRUE(mon.has_canary_slot());
  ASSERT_TRUE(mon.try_admit_canary(0));
  // An untagged outcome is a straggler from a pre-quarantine launch: it
  // must neither advance nor reset the readmission count, and it leaves
  // the reserved canary slot in flight.
  EXPECT_FALSE(mon.record(0, false, 0).has_value());
  EXPECT_FALSE(mon.record(0, true, 0).has_value());  // even a faulting one
  EXPECT_EQ(mon.state(0), HealthState::Probing);
  // A canary that survived only through retries is released but does not
  // count clean (the consecutive-clean count restarts).
  EXPECT_FALSE(mon.record(0, false, 2, 1).has_value());
  ASSERT_TRUE(mon.try_admit_canary(0));
  EXPECT_FALSE(mon.record(0, false, 0, 1).has_value());  // 1 of 2 clean
  ASSERT_TRUE(mon.try_admit_canary(0));
  auto t4 = mon.record(0, false, 0, 1);
  ASSERT_TRUE(t4.has_value());
  EXPECT_EQ(t4->from, HealthState::Probing);
  EXPECT_EQ(t4->to, HealthState::Healthy);
  EXPECT_EQ(mon.score(0), 0.0);  // clean slate
  EXPECT_EQ(mon.placeable_count(), 2u);
  EXPECT_FALSE(mon.has_canary_slot());  // nobody probing any more
}

TEST(ServeClusterHealth, BrownoutShedsBulkAndKeepsInteractiveLane) {
  using sim::FaultPlan;
  const auto x = exact_scan_workload(256, 41);
  // With 2 devices and a 0.75 floor, losing one device browns the cluster
  // out. The key's affinity target is the device we kill.
  const int bad =
      static_cast<int>(group_key_hash(group_key(Request::cumsum(x))) % 2);
  std::vector<FaultPlan> plans(2);
  plans[static_cast<std::size_t>(bad)] = FaultPlan::dead_from_launch(0);
  HealthPolicy hp;
  hp.window = 4;
  hp.min_samples = 1;
  hp.quarantine_hold_s = 3600;  // stays quarantined for the whole test
  Cluster cluster({.policy = {.max_batch = 4, .max_wait_s = 50e-6},
                   .num_devices = 2,
                   .retry = {.max_attempts = 2, .backoff_s = 1e-6},
                   .device_fault_plans = plans,
                   .work_stealing = false,
                   .spill_margin = 1 << 20,
                   .health = hp,
                   .brownout_min_healthy = 0.75});
  EXPECT_FALSE(cluster.in_brownout());

  // Two faulted launches quarantine the bad device; both requests still
  // complete via failover to the healthy sibling.
  for (int i = 0; i < 2; ++i) {
    const auto r = cluster.submit(Request::cumsum(x)).get();
    ASSERT_TRUE(r.ok()) << r.reason;
    EXPECT_NE(r.device, bad);
  }
  ASSERT_EQ(cluster.device_health(bad), HealthState::Quarantined);
  ASSERT_TRUE(cluster.in_brownout());

  // Brownout: bulk work is shed with a typed reason; the interactive lane
  // keeps serving on the surviving device.
  const auto bulk =
      cluster.submit(Request::cumsum(x, 128, false, Priority::Bulk)).get();
  EXPECT_EQ(bulk.status, Status::Rejected);
  EXPECT_NE(bulk.reason.find("brownout"), std::string::npos) << bulk.reason;
  const auto inter = cluster.submit(Request::cumsum(x)).get();
  EXPECT_TRUE(inter.ok()) << inter.reason;
  EXPECT_NE(inter.device, bad);

  cluster.shutdown(ShutdownMode::Drain);
  const auto m = cluster.metrics();
  EXPECT_GE(m.shed_brownout, 1u);
  EXPECT_GE(m.failovers, 1u);
  EXPECT_GE(m.health_transitions, 2u);
  // Shed requests are capacity rejections too (one admission accounting).
  EXPECT_GE(m.rejected_capacity, m.shed_brownout);
  // The JSON surfaces both the counters and the live per-device states.
  const std::string j = cluster.metrics_json();
  for (const char* key : {"\"health\"", "\"quarantined\"", "\"failovers\"",
                          "\"tiles_resumed\"", "\"shed_brownout\"",
                          "\"canary_probes\"", "\"health_transitions\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(ServeClusterHealth, ProbingCanaryRefaultsAndRequarantines) {
  using sim::FaultPlan;
  const auto x = exact_scan_workload(256, 43);
  const int bad =
      static_cast<int>(group_key_hash(group_key(Request::cumsum(x))) % 2);
  std::vector<FaultPlan> plans(2);
  plans[static_cast<std::size_t>(bad)] = FaultPlan::dead_from_launch(0);
  HealthPolicy hp;
  hp.window = 4;
  hp.min_samples = 1;
  hp.quarantine_hold_s = 1e-3;  // readmission attempt almost immediately
  hp.canary_batches = 1;
  Cluster cluster({.policy = {.max_batch = 4, .max_wait_s = 50e-6},
                   .num_devices = 2,
                   .retry = {.max_attempts = 2, .backoff_s = 1e-6},
                   .device_fault_plans = plans,
                   .work_stealing = false,
                   .spill_margin = 1 << 20,
                   .health = hp});
  for (int i = 0; i < 2; ++i) {
    const auto r = cluster.submit(Request::cumsum(x)).get();
    ASSERT_TRUE(r.ok()) << r.reason;
  }
  ASSERT_EQ(cluster.device_health(bad), HealthState::Quarantined);

  // After the hold the next best-effort *bulk* submit is routed to the
  // probing device as a canary (interactive and deadline-bearing requests
  // are never canaries — their SLOs must not be staked on a suspect
  // device); the canary faults on the still-dead device, the device goes
  // straight back to quarantine, and the request itself still completes
  // via failover.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // An interactive request first: it must NOT be canary-admitted — it
  // places on the healthy sibling and the suspect device keeps probing.
  const auto ri = cluster.submit(Request::cumsum(x)).get();
  EXPECT_TRUE(ri.ok()) << ri.reason;
  EXPECT_NE(ri.device, bad);
  EXPECT_EQ(ri.resumed_from, -1);
  EXPECT_EQ(cluster.device_health(bad), HealthState::Probing);
  const auto r =
      cluster.submit(Request::cumsum(x, 128, false, Priority::Bulk)).get();
  EXPECT_TRUE(r.ok()) << r.reason;
  EXPECT_EQ(r.resumed_from, bad);
  EXPECT_NE(r.device, bad);
  EXPECT_EQ(cluster.device_health(bad), HealthState::Quarantined);
  cluster.shutdown(ShutdownMode::Drain);
  const auto m = cluster.metrics();
  EXPECT_GE(m.canary_probes, 1u);
  EXPECT_GE(m.failovers, 2u);
  // Quarantine -> Probing -> Quarantine on top of the initial two.
  EXPECT_GE(m.health_transitions, 4u);
}

TEST(ServeClusterHealth, ShutdownRacingQuarantineDrainResolvesEveryFuture) {
  using sim::FaultPlan;
  // Shutdown races failover and the quarantine drain: submitter threads
  // flood the cluster while the affinity device is dying and the main
  // thread cancels mid-stream. Whatever interleaving results, every future
  // must resolve with a terminal status — never a dangling future.
  const auto x = exact_scan_workload(512, 47);
  const int bad =
      static_cast<int>(group_key_hash(group_key(Request::cumsum(x))) % 4);
  for (int round = 0; round < 3; ++round) {
    std::vector<FaultPlan> plans(4);
    plans[static_cast<std::size_t>(bad)] = FaultPlan::dead_from_launch(0);
    HealthPolicy hp;
    hp.window = 4;
    hp.min_samples = 1;
    hp.quarantine_hold_s = round == 0 ? 1e-4 : 3600;  // race probing too
    auto cluster = std::make_unique<Cluster>(
        ClusterOptions{.policy = {.max_batch = 4, .max_wait_s = 50e-6},
                       .num_devices = 4,
                       .max_queue = 1024,
                       .retry = {.max_attempts = 2, .backoff_s = 1e-6},
                       .device_fault_plans = plans,
                       .steal_min_backlog = 4,
                       .spill_margin = 1 << 20,
                       .health = hp});
    constexpr std::size_t kReqs = 96;
    std::vector<std::future<Response>> futs(kReqs);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < kReqs;
             i = next.fetch_add(1)) {
          futs[i] = cluster->submit(Request::cumsum(
              x, 128, false, i % 3 ? Priority::Bulk : Priority::Interactive));
        }
      });
    }
    // Let the flood meet the dying device, then shut down mid-drain.
    // Two deterministic gates instead of a timing guess: half the flood
    // submitted (the shutdown really races live submitters) and at least
    // one completion on the record (the "something completed" assertion
    // below cannot depend on how fast the submit path got).
    while (next.load() < kReqs / 2) std::this_thread::yield();
    while (cluster->metrics().completed == 0) std::this_thread::yield();
    cluster->shutdown(round == 2 ? ShutdownMode::Drain
                                 : ShutdownMode::Cancel);
    for (auto& t : clients) t.join();
    std::size_t ok = 0, terminal = 0;
    for (auto& f : futs) {
      ASSERT_TRUE(f.valid());
      ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
                std::future_status::ready)
          << "round " << round << ": dangling future";
      const auto r = f.get();
      ASSERT_TRUE(r.status == Status::Ok || r.status == Status::Failed ||
                  r.status == Status::Cancelled ||
                  r.status == Status::Rejected)
          << "round " << round << ": " << status_name(r.status);
      ++terminal;
      if (r.ok()) ++ok;
    }
    EXPECT_EQ(terminal, kReqs);
    EXPECT_GT(ok, 0u) << "round " << round << ": nothing completed";
    // Post-shutdown metrics balance: everything admitted is accounted for.
    const auto m = cluster->metrics();
    EXPECT_EQ(m.admitted, m.completed + m.failed + m.cancelled)
        << "round " << round;
  }
}

TEST(ServeCluster, DeviceStatsExposePerDeviceDegradation) {
  // A clean cluster after a drain: every device reports full core count
  // and zero failures; op calls land where the requests were served.
  Cluster cluster({.policy = {.max_batch = 8, .max_wait_s = 100e-6},
                   .num_devices = 2});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(cluster.submit(Request::cumsum(x)));
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  cluster.shutdown(ShutdownMode::Drain);
  std::uint64_t calls = 0;
  for (int d = 0; d < cluster.num_devices(); ++d) {
    const auto s = cluster.device(d).device_stats();
    EXPECT_EQ(s.active_cores, 20);
    EXPECT_EQ(s.op_failures, 0u);
    calls += s.op_calls;
  }
  EXPECT_GE(calls, 1u);
}

}  // namespace
}  // namespace ascend
