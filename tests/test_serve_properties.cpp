// Property and stress tests for the serving layer: seeded randomized
// streams driven against small oracles. The invariants under test are the
// ones the serving engine documents as unconditional —
//   * the batch former loses nothing and duplicates nothing: every pushed
//     request is popped exactly once, in homogeneous GroupKey batches of
//     bounded size, FIFO within a lane;
//   * every submitted future resolves exactly once, whatever mix of
//     admission rejections, faults and shutdown the stream hits, and the
//     metrics counters tell the same story as the futures;
//   * the priority lanes do their job: interactive work does not starve
//     behind a bulk flood, and aged bulk work eventually leads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
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

using namespace ascan::serve;
using testing::exact_scan_workload;

// ---------------------------------------------------------------------------
// Batcher property test: randomized push/pop streams against an oracle.

Request random_request(Rng& rng) {
  const auto prio = rng.bernoulli(0.3) ? Priority::Interactive : Priority::Bulk;
  const std::size_t n = 32 + 16 * rng.next_below(4);
  switch (rng.next_below(4)) {
    case 0:
      return Request::cumsum(exact_scan_workload(n, rng.next_u64()),
                             rng.bernoulli(0.5) ? 64 : 128,
                             rng.bernoulli(0.25), prio);
    case 1: {
      auto x = exact_scan_workload(n, rng.next_u64());
      auto f = rng.mask_i8(n, 0.1);
      f[0] = 1;
      return Request::segmented_cumsum(std::move(x), std::move(f), prio);
    }
    case 2:
      return Request::sort(rng.uniform_f16(n, -10.0, 10.0),
                           rng.bernoulli(0.5), ascan::SortAlgo::Radix, prio);
    default:
      return Request::top_p(rng.token_probs_f16(128), 0.9, rng.next_double(),
                            128, prio);
  }
}

TEST(BatcherProperty, RandomizedStreamPopsEveryRequestExactlyOnce) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    const BatchPolicy policy{.max_batch = 4, .max_wait_s = 1e-3,
                             .aging_factor = 8.0};
    Batcher q;
    const auto base = Clock::now();
    constexpr std::size_t kTotal = 400;
    std::vector<bool> popped(kTotal, false);
    std::size_t pushed = 0;

    while (pushed < kTotal || !q.empty()) {
      const bool do_push =
          pushed < kTotal && (q.empty() || rng.bernoulli(0.6));
      if (do_push) {
        Pending p;
        p.req = random_request(rng);
        // Monotone synthetic enqueue times; a random minority is backdated
        // far enough to trip the bulk aging escape.
        p.enqueued = base + std::chrono::microseconds(pushed) -
                     (rng.bernoulli(0.05) ? std::chrono::milliseconds(100)
                                          : std::chrono::milliseconds(0));
        p.seq = pushed++;
        q.push(std::move(p));
        continue;
      }
      const auto now = base + std::chrono::microseconds(pushed);
      ASSERT_FALSE(q.empty());
      const std::size_t before = q.size();
      auto batch = q.pop_batch(policy, now);
      ASSERT_FALSE(batch.empty());
      ASSERT_LE(batch.size(), policy.max_batch);
      ASSERT_EQ(q.size(), before - batch.size());  // nothing lost or grown
      const GroupKey key = group_key(batch[0].req);
      if (batch[0].req.kind == OpKind::Sort) {
        ASSERT_EQ(batch.size(), 1u);
      }
      std::map<Priority, std::uint64_t> last_seq;
      for (const auto& p : batch) {
        ASSERT_TRUE(group_key(p.req) == key) << "mixed GroupKey in a batch";
        ASSERT_LT(p.seq, kTotal);
        ASSERT_FALSE(popped[p.seq]) << "request popped twice: " << p.seq;
        popped[p.seq] = true;
        // FIFO within a lane: admission order is preserved per priority.
        auto it = last_seq.find(p.req.priority);
        if (it != last_seq.end()) {
          ASSERT_GT(p.seq, it->second);
        }
        last_seq[p.req.priority] = p.seq;
      }
    }
    EXPECT_TRUE(std::all_of(popped.begin(), popped.end(),
                            [](bool b) { return b; }))
        << "seed " << seed << " lost a request";
  }
}

TEST(BatcherProperty, AgedBulkLeadsDespiteFreshInteractive) {
  const BatchPolicy policy{.max_batch = 4, .max_wait_s = 1e-3,
                           .aging_factor = 8.0};
  const auto now = Clock::now();
  const auto x = exact_scan_workload(64);
  Batcher q;
  Pending bulk;
  bulk.req = Request::cumsum(x, 64, false, Priority::Bulk);
  bulk.enqueued = now - std::chrono::milliseconds(50);  // > 8 * 1 ms old
  bulk.seq = 0;
  q.push(std::move(bulk));
  Pending hi;
  hi.req = Request::cumsum(x, 128, false, Priority::Interactive);
  hi.enqueued = now;
  hi.seq = 1;
  q.push(std::move(hi));
  auto b = q.pop_batch(policy, now);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].seq, 0u) << "aged bulk must escape starvation";
}

// ---------------------------------------------------------------------------
// Engine stress: a seeded multi-client stream where every terminal state is
// possible — and every future must still resolve exactly once, with the
// metrics counters agreeing with the futures' testimony.

struct Tally {
  std::size_t ok = 0, rejected = 0, cancelled = 0, failed = 0;
  std::size_t total() const { return ok + rejected + cancelled + failed; }
};

template <typename Submit>
Tally stress_stream(Submit&& submit, std::size_t per_client, int clients,
                    std::uint64_t seed) {
  std::vector<std::future<Response>> futs(per_client *
                                          static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + static_cast<std::uint64_t>(c) * 7919);
      for (std::size_t i = 0; i < per_client; ++i) {
        Request r = random_request(rng);
        if (rng.bernoulli(0.05)) r.x.clear();  // sprinkle invalid requests
        futs[static_cast<std::size_t>(c) * per_client + i] =
            submit(std::move(r));
      }
    });
  }
  for (auto& t : threads) t.join();
  Tally tally;
  for (auto& f : futs) {
    // get() blocking forever = a dangling future = the bug this test hunts.
    const auto status = f.wait_for(std::chrono::seconds(30));
    EXPECT_EQ(status, std::future_status::ready) << "future never resolved";
    if (status != std::future_status::ready) continue;
    switch (f.get().status) {
      case Status::Ok: tally.ok++; break;
      case Status::Rejected: tally.rejected++; break;
      case Status::Cancelled: tally.cancelled++; break;
      case Status::Failed: tally.failed++; break;
    }
  }
  return tally;
}

void expect_consistent(const MetricsSnapshot& m, const Tally& t) {
  EXPECT_EQ(m.submitted, t.total());
  EXPECT_EQ(m.rejected_capacity + m.rejected_invalid + m.rejected_shutdown,
            t.rejected);
  EXPECT_EQ(m.admitted,
            m.completed + m.failed + m.cancelled);  // no request vanished
  EXPECT_EQ(m.completed, t.ok);
  EXPECT_EQ(m.cancelled, t.cancelled);
  EXPECT_EQ(m.failed, t.failed);
}

TEST(EngineStress, EveryFutureResolvesExactlyOnceUnderDrain) {
  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 100e-6},
                 .max_queue = 32,
                 .interactive_reserve = 4});
  const Tally t = stress_stream(
      [&](Request r) { return engine.submit(std::move(r)); }, 40, 3, 1234);
  engine.shutdown(ShutdownMode::Drain);
  EXPECT_EQ(t.total(), 120u);
  EXPECT_GT(t.ok, 0u);
  EXPECT_EQ(t.cancelled, 0u);  // drain completes everything admitted
  expect_consistent(engine.metrics(), t);
}

TEST(EngineStress, EveryFutureResolvesExactlyOnceUnderCancel) {
  Engine engine({.policy = {.max_batch = 16, .max_wait_s = 50e-3},
                 .max_queue = 64,
                 .interactive_reserve = 4});
  std::atomic<bool> go{false};
  // Cancel races the stream midway through: some requests complete, some
  // cancel, some reject post-shutdown — all must resolve.
  std::thread canceller([&] {
    while (!go.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine.shutdown(ShutdownMode::Cancel);
  });
  const Tally t = stress_stream(
      [&](Request r) {
        go.store(true);
        return engine.submit(std::move(r));
      },
      40, 3, 5678);
  canceller.join();
  engine.shutdown(ShutdownMode::Cancel);  // idempotent
  EXPECT_EQ(t.total(), 120u);
  expect_consistent(engine.metrics(), t);
}

TEST(EngineStress, InteractiveDoesNotStarveBehindBulkFlood) {
  // A deep bulk backlog forms first; interactive requests submitted after
  // it must still be served ahead of the bulk tail (the priority lane),
  // rather than waiting out the whole flood. Aging is disabled so the
  // flood cannot legitimately reclaim the head (that escape is pinned by
  // AgedBulkLeadsDespiteFreshInteractive above).
  //
  // Determinism: the assertion is on *launch order* — every Response
  // carries the monotonic id of the serving launch that produced it — not
  // on per-request wall latency. (The original form compared wall times,
  // which a contended single-core host can invert through OS scheduling
  // alone, independent of lane priority.) A long multi-step "gate" launch
  // of a distinct GroupKey keeps the worker busy while the backlog forms,
  // so the whole flood and the interactive wave are queued before the
  // first post-gate pop and the lane decision is forced, not raced.
  Engine engine({.policy = {.max_batch = 4, .max_wait_s = 100e-6,
                            .aging_factor = 1e9},
                 .max_queue = 128});
  // 48 tile-boundary steps at tile 16: the worker chews on this for
  // orders of magnitude longer than the submissions below take.
  auto gate = engine.submit(Request::cumsum(exact_scan_workload(16 * 16 * 48),
                                            16, false, Priority::Bulk));
  // The gate is alone in the queue; once the queue empties the worker has
  // popped it and is inside the launch.
  while (engine.queue_depth() != 0) std::this_thread::yield();

  const auto x = exact_scan_workload(256);
  std::vector<std::future<Response>> bulk;
  for (int i = 0; i < 48; ++i) {
    bulk.push_back(
        engine.submit(Request::cumsum(x, 128, false, Priority::Bulk)));
  }
  std::vector<std::future<Response>> hi;
  for (int i = 0; i < 8; ++i) {
    hi.push_back(engine.submit(Request::cumsum(x, 64)));  // interactive
  }
  std::uint64_t hi_last_launch = 0;
  for (auto& f : hi) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.reason;
    hi_last_launch = std::max(hi_last_launch, r.launch_id);
  }
  std::uint64_t bulk_after = 0, bulk_total = 0, bulk_max_launch = 0;
  for (auto& f : bulk) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.reason;
    bulk_max_launch = std::max(bulk_max_launch, r.launch_id);
    ++bulk_total;
    if (r.launch_id > hi_last_launch) ++bulk_after;
  }
  ASSERT_TRUE(gate.get().ok());
  engine.shutdown(ShutdownMode::Drain);
  // Submitted last, the interactive requests launched before the bulk
  // tail (starvation would put them after the whole flood)...
  EXPECT_LT(hi_last_launch, bulk_max_launch);
  // ...and in fact ahead of most of the flood: everything queued behind
  // the gate launches interactive-first, so at least half the bulk
  // requests ride launches later than the last interactive one.
  EXPECT_GT(bulk_after, bulk_total / 2) << "hi_last=" << hi_last_launch
                                        << " bulk_max=" << bulk_max_launch;
}

// ---------------------------------------------------------------------------
// Cluster stress: the same exactly-once / consistency story across four
// devices with placement, spill and stealing all active.

TEST(ClusterStress, EveryFutureResolvesExactlyOnceAcrossDevices) {
  Cluster cluster({.policy = {.max_batch = 8, .max_wait_s = 100e-6},
                   .num_devices = 4,
                   .max_queue = 64,
                   .interactive_reserve = 8,
                   .steal_min_backlog = 4,
                   .spill_margin = 2});
  const Tally t = stress_stream(
      [&](Request r) { return cluster.submit(std::move(r)); }, 30, 4, 4321);
  cluster.shutdown(ShutdownMode::Drain);
  EXPECT_EQ(t.total(), 120u);
  EXPECT_GT(t.ok, 0u);
  EXPECT_EQ(t.cancelled, 0u);
  expect_consistent(cluster.metrics(), t);
  const auto m = cluster.metrics();
  EXPECT_EQ(m.routed_affinity + m.routed_spill, m.admitted);
}

}  // namespace
}  // namespace ascend
