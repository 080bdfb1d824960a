// SLO-tier test battery (PR 9): EDF batch formation, per-request
// deadlines, and tile-boundary preemption of bulk launches.
//
// The invariants under test:
//  * EDF within a lane is exact under randomized arrival/deadline streams:
//    every popped batch is ordered by (deadline, seq) per lane, nothing is
//    lost or duplicated.
//  * Preemption is observationally invisible except in latency: a bulk
//    batch parked at a tile boundary and resumed later produces results
//    byte-identical to an unpreempted run, with its streamed chunks still
//    bit-exact contiguous prefixes.
//  * Preemption never starves bulk: a launch whose rows have aged past the
//    starvation guard cannot be parked again (aging outranks preemption,
//    exactly as it outranks lane priority).
//  * Per-tenant admission quotas reject with typed reasons; deadline
//    misses and preemptions are counted; the metrics JSON shape is stable.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ascan.hpp"
#include "serve/batcher.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"
#include "test_helpers.hpp"

namespace ascend {
namespace {

using ascan::Session;
using namespace ascan::serve;
using testing::exact_scan_workload;

// ---------------------------------------------------------------------------
// EDF property: randomized arrival/deadline streams against an oracle.

TEST(SloEdfProperty, RandomizedDeadlineStreamPopsInEdfOrderExactlyOnce) {
  for (std::uint64_t seed : {5u, 17u, 91u}) {
    Rng rng(seed);
    const BatchPolicy policy{.max_batch = 4, .max_wait_s = 1e-3,
                             .aging_factor = 8.0};
    Batcher q;
    const auto base = Clock::now();
    constexpr std::size_t kTotal = 300;
    std::vector<bool> popped(kTotal, false);
    std::size_t pushed = 0;

    while (pushed < kTotal || !q.empty()) {
      const bool do_push =
          pushed < kTotal && (q.empty() || rng.bernoulli(0.6));
      if (do_push) {
        Pending p;
        const auto prio =
            rng.bernoulli(0.4) ? Priority::Interactive : Priority::Bulk;
        p.req = Request::cumsum(exact_scan_workload(64, rng.next_u64()),
                                rng.bernoulli(0.5) ? 64 : 128, false, prio);
        p.enqueued = base + std::chrono::microseconds(pushed);
        // A random mix of deadline-bearing and best-effort requests, with
        // deliberate deadline collisions (quantized to 100 µs) so the
        // FIFO tie-break is exercised, not just the deadline order.
        if (rng.bernoulli(0.5)) {
          p.deadline = base + std::chrono::microseconds(
                                  100 * (1 + rng.next_below(8)));
        }
        p.seq = pushed++;
        q.push(std::move(p));
        continue;
      }
      const auto now = base + std::chrono::microseconds(pushed);
      auto batch = q.pop_batch(policy, now);
      ASSERT_FALSE(batch.empty());
      // Oracle: within a batch, each lane's members are EDF-ordered —
      // (deadline, seq) strictly increasing lexicographically.
      std::map<Priority, std::pair<Clock::time_point, std::uint64_t>> last;
      for (const auto& p : batch) {
        ASSERT_LT(p.seq, kTotal);
        ASSERT_FALSE(popped[p.seq]) << "popped twice: " << p.seq;
        popped[p.seq] = true;
        const auto key = std::make_pair(p.deadline, p.seq);
        auto it = last.find(p.req.priority);
        if (it != last.end()) {
          ASSERT_GT(key, it->second)
              << "EDF order violated within a lane (seq " << p.seq << ")";
        }
        last[p.req.priority] = key;
      }
    }
    EXPECT_TRUE(std::all_of(popped.begin(), popped.end(),
                            [](bool b) { return b; }))
        << "seed " << seed << " lost a request";
  }
}

// ---------------------------------------------------------------------------
// Tentpole: preempted-vs-unpreempted bit-exactness.
//
// A long bulk scan streams its first chunk (so the launch is provably in
// flight), then a deadline-bearing interactive request of a different
// GroupKey arrives. With an infinite preemption horizon the bulk launch
// must park at the next tile boundary, serve the interactive batch, and
// resume — and the final bulk payload must equal the direct Session
// result bit for bit, chunks included.
//
// The interactive request is submitted from inside the first chunk's
// callback: the engine drains its inbox in the preemption check that
// follows the chunk in the same step, so the bulk parks at the first tile
// boundary however fast the host runs the remaining steps.

TEST(SloPreemption, PreemptedBulkBitExact) {
  const auto x = exact_scan_workload(16384, 77);  // tile 16 -> 64 steps
  Session direct(sim::MachineConfig::ascend_910b4());
  const auto want = direct.cumsum_batched(x, 1, x.size(), 16);

  // Generous aging limit: the aging guard outranks preemption, and a
  // slot's age keeps growing while its own launch runs — a tight limit
  // would (correctly) veto every park.
  Engine engine({.policy = {.max_batch = 4,
                            .max_wait_s = 50e-6,
                            .aging_factor = 1e9,
                            .preempt_slack_s = 1e9},
                 .num_workers = 1});

  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  std::vector<half> streamed;
  std::future<Response> hi_fut;
  Request bulk = Request::cumsum(x, 16, false, Priority::Bulk);
  bulk.tier = SloTier::Bronze;
  bulk.on_chunk = [&](const StreamChunk& c) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(c.offset, streamed.size()) << "chunk offsets not contiguous";
    streamed.insert(streamed.end(), c.values_f16.begin(),
                    c.values_f16.end());
    if (!started) {
      // Different GroupKey (tile 64), so continuation admission cannot
      // seat it — preemption is the only way it runs before the bulk tail.
      hi_fut = engine.submit(
          Request::cumsum(exact_scan_workload(256, 3), 64)
              .with_slo(SloTier::Gold, 10e-3));
    }
    started = true;
    cv.notify_all();
  };
  auto bulk_fut = engine.submit(std::move(bulk));
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10),
                            [&] { return started; }))
        << "bulk launch never streamed its first chunk";
  }

  const auto hi = hi_fut.get();
  ASSERT_TRUE(hi.ok()) << hi.reason;
  const auto r = bulk_fut.get();
  ASSERT_TRUE(r.ok()) << r.reason;
  engine.shutdown(ShutdownMode::Drain);

  EXPECT_GE(r.preemptions, 1u) << "bulk launch was never parked";
  EXPECT_EQ(r.resumed_from, -1)
      << "same-device preemption resume must not read as a failover";
  ASSERT_EQ(r.values_f16.size(), want.values.size());
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    ASSERT_EQ(static_cast<float>(r.values_f16[i]),
              static_cast<float>(want.values[i]))
        << "preempted result diverged at index " << i;
  }
  // Streamed chunks spanning the park/resume still concatenate to the
  // exact final payload.
  ASSERT_EQ(streamed.size(), r.values_f16.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(static_cast<float>(streamed[i]),
              static_cast<float>(r.values_f16[i]))
        << "streamed prefix diverged at index " << i;
  }

  const auto m = engine.metrics();
  EXPECT_GE(m.preemptions, 1u);
  EXPECT_GE(m.preempted_tiles_resumed, 1u);
  EXPECT_EQ(m.tier_latency[static_cast<std::size_t>(SloTier::Gold)].count(),
            1u);
}

TEST(SloPreemption, SegmentedPreemptedBulkBitExact) {
  const std::size_t n = 3 * 4096 + 1000;  // 4 steps at the 4096 stride
  const auto x = exact_scan_workload(n, 21);
  Rng rng(22);
  auto flags = rng.mask_i8(n, 0.02);
  flags[0] = 1;
  Session direct;
  const auto want = direct.segmented_cumsum(x, flags);

  Engine engine({.policy = {.max_batch = 4,
                            .max_wait_s = 50e-6,
                            .aging_factor = 1e9,
                            .preempt_slack_s = 1e9},
                 .num_workers = 1});
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  std::future<Response> hi_fut;
  Request bulk = Request::segmented_cumsum(x, flags);
  bulk.on_chunk = [&](const StreamChunk&) {
    std::lock_guard<std::mutex> lk(mu);
    // Queued before this step's preemption check (see above).
    if (!started) {
      hi_fut = engine.submit(
          Request::cumsum(exact_scan_workload(256, 4), 64)
              .with_slo(SloTier::Gold, 10e-3));
    }
    started = true;
    cv.notify_all();
  };
  auto bulk_fut = engine.submit(std::move(bulk));
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10),
                            [&] { return started; }));
  }
  ASSERT_TRUE(hi_fut.get().ok());
  const auto r = bulk_fut.get();
  ASSERT_TRUE(r.ok()) << r.reason;
  engine.shutdown(ShutdownMode::Drain);

  EXPECT_GE(r.preemptions, 1u);
  ASSERT_EQ(r.values_f32.size(), want.values.size());
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    ASSERT_EQ(r.values_f32[i], want.values[i]) << "index " << i;
  }
}

TEST(SloPreemption, DisabledPreemptionNeverParks) {
  const auto x = exact_scan_workload(8192, 9);
  Engine engine({.policy = {.max_batch = 4,
                            .max_wait_s = 50e-6,
                            .preemption = false,
                            .preempt_slack_s = 1e9},
                 .num_workers = 1});
  auto bulk_fut =
      engine.submit(Request::cumsum(x, 16, false, Priority::Bulk));
  auto hi_fut = engine.submit(
      Request::cumsum(exact_scan_workload(256, 5), 64)
          .with_slo(SloTier::Gold, 1e-6));
  ASSERT_TRUE(hi_fut.get().ok());
  const auto r = bulk_fut.get();
  ASSERT_TRUE(r.ok()) << r.reason;
  engine.shutdown(ShutdownMode::Drain);
  EXPECT_EQ(r.preemptions, 0u);
  EXPECT_EQ(engine.metrics().preemptions, 0u);
}

// ---------------------------------------------------------------------------
// No starvation: the aging guard caps how long preemption can hold a bulk
// batch off the device, even under a sustained interactive deadline flood.

TEST(SloPreemption, AgedBulkCompletesUnderSustainedInteractiveDeadlines) {
  // Aggressive preemption (infinite horizon) against a tight aging limit:
  // 2 * 1 ms. The bulk launch may park a few times early, but once its
  // rows have waited past the limit it is never parked again and the
  // queue serves it ahead of the flood.
  Engine engine({.policy = {.max_batch = 2,
                            .max_wait_s = 1e-3,
                            .aging_factor = 2.0,
                            .preempt_slack_s = 1e9},
                 .max_queue = 512,
                 .num_workers = 1});
  const auto x = exact_scan_workload(16384, 31);  // tile 16 -> 64 steps
  auto bulk_fut =
      engine.submit(Request::cumsum(x, 16, false, Priority::Bulk));

  std::atomic<bool> stop{false};
  std::thread flood([&] {
    Rng rng(7);
    std::vector<std::future<Response>> futs;
    while (!stop.load()) {
      futs.push_back(engine.submit(
          Request::cumsum(exact_scan_workload(256, rng.next_u64()), 64)
              .with_slo(SloTier::Gold, 1e-3)));
      // Bounded outstanding work so the flood cannot fill the queue.
      if (futs.size() >= 8) {
        for (auto& f : futs) f.wait();
        futs.clear();
      }
    }
    for (auto& f : futs) f.wait();
  });

  const auto status = bulk_fut.wait_for(std::chrono::seconds(20));
  stop.store(true);
  flood.join();
  ASSERT_EQ(status, std::future_status::ready)
      << "bulk starved behind the interactive flood";
  const auto r = bulk_fut.get();
  ASSERT_TRUE(r.ok()) << r.reason;
  engine.shutdown(ShutdownMode::Drain);
}

// ---------------------------------------------------------------------------
// Deadline accounting.

TEST(SloDeadlines, MissesAreCountedAndFlagged) {
  Engine engine({.policy = {.max_batch = 4, .max_wait_s = 100e-6}});
  const auto x = exact_scan_workload(128);
  // A 1 ns deadline is unmeetable; the request must still complete Ok,
  // flagged as missed — deadlines are accounting, not cancellation.
  auto missed =
      engine.submit(Request::cumsum(x).with_slo(SloTier::Gold, 1e-9));
  auto met = engine.submit(Request::cumsum(x).with_slo(SloTier::Gold, 30.0));
  auto best_effort = engine.submit(Request::cumsum(x));
  const auto rm = missed.get();
  ASSERT_TRUE(rm.ok()) << rm.reason;
  EXPECT_TRUE(rm.deadline_missed);
  const auto rk = met.get();
  ASSERT_TRUE(rk.ok()) << rk.reason;
  EXPECT_FALSE(rk.deadline_missed);
  EXPECT_FALSE(best_effort.get().deadline_missed);
  engine.shutdown(ShutdownMode::Drain);
  const auto m = engine.metrics();
  EXPECT_EQ(m.deadline_misses, 1u);
  EXPECT_EQ(m.tier_latency[static_cast<std::size_t>(SloTier::Gold)].count(),
            2u);
  EXPECT_EQ(
      m.tier_latency[static_cast<std::size_t>(SloTier::Silver)].count(),
      1u);  // default tier
}

TEST(SloDeadlines, NegativeOrNanDeadlineIsRejectedTyped) {
  Engine engine{EngineOptions{}};
  const auto x = exact_scan_workload(64);
  auto r1 = engine.submit(Request::cumsum(x).with_slo(SloTier::Gold, -1.0));
  const auto resp = r1.get();
  EXPECT_EQ(resp.status, Status::Rejected);
  EXPECT_NE(resp.reason.find("deadline"), std::string::npos);
  engine.shutdown(ShutdownMode::Drain);
}

// ---------------------------------------------------------------------------
// Per-tenant admission quotas (cluster front end).

TEST(SloQuota, ExhaustionRejectsWithTypedReason) {
  Cluster cluster({.policy = {.max_batch = 4, .max_wait_s = 100e-6},
                   .num_devices = 2,
                   .tenant_quota = 3,
                   .tenant_quota_window_s = 3600.0});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> acme;
  for (int i = 0; i < 5; ++i) {
    acme.push_back(
        cluster.submit(Request::cumsum(x).with_tenant("acme")));
  }
  // A different tenant and the default bucket are unaffected.
  auto other = cluster.submit(Request::cumsum(x).with_tenant("other"));
  auto anon = cluster.submit(Request::cumsum(x));
  std::size_t ok = 0, quota_rejected = 0;
  for (auto& f : acme) {
    const auto r = f.get();
    if (r.ok()) {
      ok++;
    } else {
      EXPECT_EQ(r.status, Status::Rejected);
      EXPECT_NE(r.reason.find("tenant quota exhausted"), std::string::npos)
          << r.reason;
      EXPECT_NE(r.reason.find("acme"), std::string::npos) << r.reason;
      quota_rejected++;
    }
  }
  EXPECT_EQ(ok, 3u);
  EXPECT_EQ(quota_rejected, 2u);
  EXPECT_TRUE(other.get().ok());
  EXPECT_TRUE(anon.get().ok());
  cluster.shutdown(ShutdownMode::Drain);
  const auto m = cluster.metrics();
  EXPECT_EQ(m.rejected_quota, 2u);
  EXPECT_NE(cluster.metrics_json().find("\"rejected_quota\":"),
            std::string::npos);
}

TEST(SloQuota, WindowSlidesAdmissionsBackIn) {
  // A wide window: quota is consumed at submit() time, and under the
  // sanitizers the gap between two submits can reach tens of ms.
  Cluster cluster({.policy = {.max_batch = 4, .max_wait_s = 100e-6},
                   .num_devices = 1,
                   .tenant_quota = 1,
                   .tenant_quota_window_s = 500e-3});
  const auto x = exact_scan_workload(64);
  auto first = cluster.submit(Request::cumsum(x).with_tenant("t"));
  auto rejected = cluster.submit(Request::cumsum(x).with_tenant("t")).get();
  ASSERT_TRUE(first.get().ok());
  EXPECT_EQ(rejected.status, Status::Rejected);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_TRUE(cluster.submit(Request::cumsum(x).with_tenant("t")).get().ok())
      << "quota window never slid";
  cluster.shutdown(ShutdownMode::Drain);
}

// ---------------------------------------------------------------------------
// Metrics JSON shape regression: the new SLO fields must serialize under
// exactly these names (dashboards/scrapers key on them).

TEST(SloMetrics, JsonShapeIsStable) {
  Engine engine({.policy = {.max_batch = 4, .max_wait_s = 100e-6}});
  const auto x = exact_scan_workload(128);
  auto f = engine.submit(Request::cumsum(x).with_slo(SloTier::Gold, 1e-9));
  ASSERT_TRUE(f.get().ok());
  engine.shutdown(ShutdownMode::Drain);
  const std::string j = engine.metrics_json();
  for (const char* key :
       {"\"slo\"", "\"deadline_misses\"", "\"preemptions\"",
        "\"preempted_tiles_resumed\"", "\"tier_latency\"", "\"gold\"",
        "\"silver\"", "\"bronze\"", "\"rejected_quota\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  }
  // The counters behind the names agree with the run.
  EXPECT_NE(j.find("\"deadline_misses\":1"), std::string::npos) << j;
}

TEST(SloMetrics, MergedSnapshotsSumSloCounters) {
  MetricsSnapshot a;
  a.deadline_misses = 2;
  a.preemptions = 1;
  a.preempted_tiles_resumed = 3;
  a.rejected_quota = 4;
  a.tier_latency[0].add(1e-3);
  MetricsSnapshot b;
  b.deadline_misses = 5;
  b.tier_latency[0].add(2e-3);
  b.tier_latency[2].add(4e-3);
  const auto m = MetricsSnapshot::merged({a, b}, 1.0);
  EXPECT_EQ(m.deadline_misses, 7u);
  EXPECT_EQ(m.preemptions, 1u);
  EXPECT_EQ(m.preempted_tiles_resumed, 3u);
  EXPECT_EQ(m.rejected_quota, 4u);
  EXPECT_EQ(m.tier_latency[0].count(), 2u);
  EXPECT_EQ(m.tier_latency[2].count(), 1u);
}

}  // namespace
}  // namespace ascend
