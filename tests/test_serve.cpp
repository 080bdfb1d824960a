// Serving-engine tests: dynamic batching must be observationally invisible
// (bit-exact results versus direct Session calls under concurrent clients),
// admission control must reject rather than block or drop, priority lanes
// must not starve, and shutdown must resolve every future exactly once —
// including while a fault plan is armed.
#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ascan.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "test_helpers.hpp"

namespace ascend {
namespace {

using ascan::RetryPolicy;
using ascan::Session;
using ascan::SortAlgo;
using namespace ascan::serve;
using testing::exact_scan_workload;

/// 0/1 segment-start flags with a forced start at 0 (matches the serving
/// engine's request-boundary normalisation, so direct calls are comparable).
std::vector<std::int8_t> seg_flags(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto f = rng.mask_i8(n, 0.05);
  f[0] = 1;
  return f;
}

// ---------------------------------------------------------------------------
// Satellite: batch-API edge cases on the Session surface.

TEST(BatchApiEdgeCases, CumsumBatchedRejectsInvalidArguments) {
  Session s;
  EXPECT_THROW(s.cumsum_batched({}, 0, 0), Error);  // empty
  const auto x = exact_scan_workload(64);
  EXPECT_THROW(s.cumsum_batched(x, 0, 64), Error);   // batch = 0
  EXPECT_THROW(s.cumsum_batched(x, 64, 0), Error);   // len = 0
  EXPECT_THROW(s.cumsum_batched(x, 3, 64), Error);   // shape mismatch
  EXPECT_THROW(s.cumsum_batched(x, 1, 64, 100), Error);  // invalid tile
}

TEST(BatchApiEdgeCases, CumsumBatchedBatchOfOneMatchesScan) {
  Session s;
  const auto x = exact_scan_workload(300);  // deliberately not tile-aligned
  const auto batched = s.cumsum_batched(x, 1, x.size());
  const auto direct = s.cumsum_f16(x, {.algo = ascan::ScanAlgo::ScanU});
  ASSERT_EQ(batched.values.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(static_cast<float>(batched.values[i]),
              static_cast<float>(direct.values[i]))
        << "index " << i;
  }
}

TEST(BatchApiEdgeCases, SegmentedCumsumSingleElementSegments) {
  Session s;
  const auto x = exact_scan_workload(200);
  std::vector<std::int8_t> flags(x.size(), 1);  // every element is a segment
  const auto r = s.segmented_cumsum(x, flags);
  ASSERT_EQ(r.values.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(r.values[i], static_cast<float>(x[i])) << "index " << i;
  }
  EXPECT_THROW(s.segmented_cumsum(x, std::vector<std::int8_t>(3, 1)), Error);
}

TEST(BatchApiEdgeCases, TopPSampleBatchRejectsInvalidArguments) {
  Session s;
  Rng rng(7);
  const auto probs = rng.token_probs_f16(256);
  const std::vector<double> u1{0.5};
  EXPECT_THROW(s.top_p_sample_batch({}, 0, 0, 0.9, {}), Error);
  EXPECT_THROW(s.top_p_sample_batch(probs, 0, 256, 0.9, {}), Error);
  EXPECT_THROW(s.top_p_sample_batch(probs, 1, 0, 0.9, u1), Error);
  EXPECT_THROW(s.top_p_sample_batch(probs, 2, 256, 0.9, u1), Error);  // shape
  EXPECT_THROW(s.top_p_sample_batch(probs, 1, 256, 0.0, u1), Error);  // p
  EXPECT_THROW(s.top_p_sample_batch(probs, 1, 256, 1.5, u1), Error);  // p
  EXPECT_THROW(s.top_p_sample_batch(probs, 1, 256, 0.9, {1.0}), Error);  // u
  EXPECT_THROW(s.top_p_sample_batch(probs, 1, 256, 0.9, {0.1, 0.2}), Error);
}

TEST(BatchApiEdgeCases, TopPSampleBatchOfOneMatchesSingle) {
  Session s;
  Rng rng(11);
  const auto probs = rng.token_probs_f16(512);
  const auto single = s.top_p_sample(probs, 0.9, 0.37);
  const auto batched =
      s.top_p_sample_batch(probs, 1, probs.size(), 0.9, {0.37});
  ASSERT_EQ(batched.tokens.size(), 1u);
  EXPECT_EQ(batched.tokens[0], single.index);
}

// ---------------------------------------------------------------------------
// Satellite: core composition hooks.

TEST(SessionHooks, RunResilientAggregatesIntoTotal) {
  Session s;
  const auto x = exact_scan_workload(128);
  const double before = s.total().time_s;
  const auto rep = s.run_resilient("composed", [&] {
    ascan::Report r;
    r += s.cumsum_batched(x, 1, x.size()).report;
    r += s.cumsum_batched(x, 1, x.size()).report;
    return r;
  });
  EXPECT_EQ(rep.launches, 2);
  EXPECT_GT(s.total().time_s, before);
}

TEST(SessionHooks, ScopedRetryPolicyRestores) {
  Session s;
  s.set_retry_policy({.max_attempts = 2});
  {
    ascan::ScopedRetryPolicy scope(s, {.max_attempts = 7});
    EXPECT_EQ(s.retry_policy().max_attempts, 7);
  }
  EXPECT_EQ(s.retry_policy().max_attempts, 2);
}

// ---------------------------------------------------------------------------
// Batcher unit tests (no threads): lane order, aging, grouping.

Pending make_pending(Request req, Clock::time_point enq, std::uint64_t seq) {
  Pending p;
  p.req = std::move(req);
  p.enqueued = enq;
  p.seq = seq;
  return p;
}

TEST(Batcher, InteractiveLaneFirstUnlessBulkAged) {
  const BatchPolicy policy{.max_batch = 4, .max_wait_s = 1e-3,
                           .aging_factor = 8.0};
  const auto now = Clock::now();
  const auto x = exact_scan_workload(32);

  Batcher q;
  q.push(make_pending(Request::cumsum(x, 128, false, Priority::Bulk),
                      now - std::chrono::milliseconds(1), 0));
  q.push(make_pending(Request::cumsum(x), now, 1));
  // Bulk is older but not aged past 8 ms: interactive leads.
  auto b = q.pop_batch(policy, now);
  ASSERT_EQ(b.size(), 2u);  // same GroupKey: both coalesce...
  EXPECT_EQ(b[0].seq, 1u);  // ...but the interactive one leads the batch

  Batcher q2;
  q2.push(make_pending(Request::cumsum(x, 128, false, Priority::Bulk),
                       now - std::chrono::milliseconds(100), 0));
  q2.push(make_pending(Request::cumsum(x, 64), now, 1));  // different key
  // Bulk aged past aging_factor * max_wait: it leads despite its lane.
  auto b2 = q2.pop_batch(policy, now);
  ASSERT_EQ(b2.size(), 1u);
  EXPECT_EQ(b2[0].seq, 0u);
}

TEST(Batcher, GroupsByKeyAcrossLanesFifo) {
  const BatchPolicy policy{.max_batch = 8, .max_wait_s = 1.0};
  const auto now = Clock::now();
  const auto x = exact_scan_workload(32);

  Batcher q;
  q.push(make_pending(Request::cumsum(x), now, 0));
  q.push(make_pending(Request::cumsum(x, 64), now, 1));  // different tile
  q.push(make_pending(Request::cumsum(x, 128, false, Priority::Bulk), now, 2));
  q.push(make_pending(Request::cumsum(x), now, 3));

  EXPECT_FALSE(q.full_batch_ready(policy, now));  // 3 of key, want 8
  auto b = q.pop_batch(policy, now);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].seq, 0u);
  EXPECT_EQ(b[1].seq, 3u);  // interactive lane drained first, FIFO
  EXPECT_EQ(b[2].seq, 2u);
  EXPECT_EQ(q.size(), 1u);  // the tile-64 request remains
}

TEST(Batcher, SortIsNeverCoalesced) {
  const BatchPolicy policy{.max_batch = 8, .max_wait_s = 1.0};
  const auto now = Clock::now();
  const auto x = exact_scan_workload(32);
  Batcher q;
  q.push(make_pending(Request::sort(x), now, 0));
  q.push(make_pending(Request::sort(x), now, 1));
  EXPECT_TRUE(q.full_batch_ready(policy, now));  // singleton: nothing to wait
  EXPECT_EQ(q.pop_batch(policy, now).size(), 1u);
  EXPECT_EQ(q.size(), 1u);
}

// ---------------------------------------------------------------------------
// Tentpole: concurrent serving is bit-exact versus direct Session calls.

struct Expected {
  Request req;
  Response direct;  ///< reference computed on a plain Session
};

Expected make_case(std::size_t i, Session& ref) {
  Rng rng(1000 + i);
  Expected e;
  switch (i % 6) {
    case 0: {
      // Mixed lengths exercise the zero-padding path.
      const std::size_t n = 64 + 32 * (i % 5);
      auto x = exact_scan_workload(n, 10 + i);
      auto r = ref.cumsum_batched(x, 1, n);
      e.direct.values_f16 = std::move(r.values);
      e.req = Request::cumsum(std::move(x));
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
    case 3: {
      auto probs = rng.token_probs_f16(256);
      const double u = rng.next_double();
      e.direct.token = ref.top_p_sample(probs, 0.9, u).index;
      e.req = Request::top_p(std::move(probs), 0.9, u);
      break;
    }
    case 4: {
      // Crosses step boundaries: 4 steps of one 16*16 l-tile each.
      auto x = exact_scan_workload(1000, 40 + i);
      auto r = ref.cumsum_batched(x, 1, x.size(), 16);
      e.direct.values_f16 = std::move(r.values);
      e.req = Request::cumsum(std::move(x), 16);
      break;
    }
    default: {
      // 3 steps at the engine's 4096-element segmented stride.
      const std::size_t n = 9000;
      auto x = exact_scan_workload(n, 50 + i);
      auto f = seg_flags(n, 60 + i);
      auto r = ref.segmented_cumsum(x, f);
      e.direct.values_f32 = std::move(r.values);
      e.req = Request::segmented_cumsum(std::move(x), std::move(f));
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

TEST(ServeEngine, BitExactVersusDirectSession) {
  Session ref(sim::MachineConfig::ascend_910b4());
  constexpr std::size_t kCases = 24;
  constexpr int kClients = 4;
  std::vector<Expected> cases;
  cases.reserve(kCases);
  for (std::size_t i = 0; i < kCases; ++i) cases.push_back(make_case(i, ref));

  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 300e-6}});
  std::vector<std::future<Response>> futs(kCases);
  std::vector<std::thread> clients;
  std::atomic<std::size_t> next{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < kCases;
           i = next.fetch_add(1)) {
        futs[i] = engine.submit(cases[i].req);  // copies the request
      }
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < kCases; ++i) {
    expect_matches(futs[i].get(), cases[i], i);
  }
  engine.shutdown(ShutdownMode::Drain);
  const auto m = engine.metrics();
  EXPECT_EQ(m.completed, kCases);
  EXPECT_EQ(m.failed + m.cancelled + m.rejected_capacity, 0u);
}

TEST(ServeEngine, BatchingActuallyCoalesces) {
  // 16 same-shape scans submitted ahead of the 200 ms deadline must serve
  // as (close to) one launch, not 16.
  Engine engine({.policy = {.max_batch = 16, .max_wait_s = 0.2}});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 16; ++i) futs.push_back(engine.submit(Request::cumsum(x)));
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  engine.shutdown(ShutdownMode::Drain);
  const auto m = engine.metrics();
  EXPECT_EQ(m.completed, 16u);
  EXPECT_GT(m.avg_batch_occupancy, 1.5);
  EXPECT_GE(m.max_batch_observed, 8u);
}

// ---------------------------------------------------------------------------
// Admission control: bounded queue, reject-with-reason, interactive reserve.

TEST(ServeEngine, BackpressureRejectsWithReason) {
  // A 200 ms batching deadline holds the worker off the queue while we
  // overfill it from this thread.
  Engine engine({.policy = {.max_batch = 64, .max_wait_s = 0.2},
                 .max_queue = 8,
                 .interactive_reserve = 2});
  const auto x = exact_scan_workload(64);
  std::vector<std::future<Response>> admitted;
  std::size_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    auto f = engine.submit(
        Request::cumsum(x, 128, false, Priority::Bulk));
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const auto r = f.get();
      ASSERT_EQ(r.status, Status::Rejected);
      EXPECT_NE(r.reason.find("queue full"), std::string::npos) << r.reason;
      rejected++;
    } else {
      admitted.push_back(std::move(f));
    }
  }
  EXPECT_EQ(admitted.size(), 6u);  // max_queue - interactive_reserve
  EXPECT_EQ(rejected, 4u);

  // The reserve keeps the interactive lane open under bulk overload.
  auto hi = engine.submit(Request::cumsum(x));
  auto hi2 = engine.submit(Request::cumsum(x));
  auto hi3 = engine.submit(Request::cumsum(x));  // now the queue is truly full
  EXPECT_EQ(hi3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(hi3.get().status, Status::Rejected);

  engine.shutdown(ShutdownMode::Drain);
  for (auto& f : admitted) EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(hi.get().ok());
  EXPECT_TRUE(hi2.get().ok());
  const auto m = engine.metrics();
  EXPECT_EQ(m.rejected_capacity, 5u);
  EXPECT_EQ(m.completed, 8u);
}

TEST(ServeEngine, InvalidRequestsRejectImmediately) {
  Engine engine;
  EXPECT_EQ(engine.submit(Request::cumsum({})).get().status, Status::Rejected);
  const auto x = exact_scan_workload(64);
  EXPECT_EQ(engine.submit(Request::cumsum(x, 100)).get().status,
            Status::Rejected);  // invalid tile
  auto bad_flags = Request::segmented_cumsum(x, std::vector<std::int8_t>(3));
  EXPECT_EQ(engine.submit(bad_flags).get().status, Status::Rejected);
  EXPECT_EQ(engine.submit(Request::top_p(x, 0.0, 0.5)).get().status,
            Status::Rejected);
  EXPECT_EQ(engine.submit(Request::top_p(x, 0.9, 1.0)).get().status,
            Status::Rejected);
  const auto m = engine.metrics();
  EXPECT_EQ(m.rejected_invalid, 5u);
  EXPECT_EQ(m.admitted, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: deterministic shutdown — no dangling futures, ever.

TEST(ServeEngine, ShutdownDrainCompletesEverything) {
  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 0.2}});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 12; ++i) {
    futs.push_back(engine.submit(Request::cumsum(x)));
  }
  engine.shutdown(ShutdownMode::Drain);
  EXPECT_TRUE(engine.stopped());
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(engine.metrics().completed, 12u);

  // Idempotent, and post-shutdown submissions reject.
  engine.shutdown(ShutdownMode::Cancel);
  auto late = engine.submit(Request::cumsum(x));
  const auto r = late.get();
  EXPECT_EQ(r.status, Status::Rejected);
  EXPECT_NE(r.reason.find("shutting down"), std::string::npos);
}

TEST(ServeEngine, ShutdownCancelResolvesQueuedFutures) {
  // A far deadline keeps requests queued; cancel must resolve them all.
  Engine engine({.policy = {.max_batch = 64, .max_wait_s = 1.0}});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 12; ++i) {
    futs.push_back(engine.submit(Request::cumsum(x)));
  }
  engine.shutdown(ShutdownMode::Cancel);
  std::size_t completed = 0, cancelled = 0;
  for (auto& f : futs) {
    const auto r = f.get();  // must not block: every future is resolved
    ASSERT_TRUE(r.status == Status::Ok || r.status == Status::Cancelled);
    (r.ok() ? completed : cancelled)++;
  }
  EXPECT_EQ(completed + cancelled, 12u);
  EXPECT_GT(cancelled, 0u);
  const auto m = engine.metrics();
  EXPECT_EQ(m.cancelled, cancelled);
  EXPECT_EQ(m.completed, completed);
}

TEST(ServeEngine, DestructorDrains) {
  const auto x = exact_scan_workload(128);
  std::future<Response> f;
  {
    Engine engine({.policy = {.max_batch = 8, .max_wait_s = 0.2}});
    f = engine.submit(Request::cumsum(x));
  }
  EXPECT_TRUE(f.get().ok());
}

// ---------------------------------------------------------------------------
// Satellite: shutdown and serving while a FaultPlan is armed (PR 1 interop).

TEST(ServeEngine, ServesThroughTransientFaultWithRetry) {
  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 100e-6},
                 .retry = {.max_attempts = 3},
                 .fault_plan = ascan::FaultPlan::one_transient_mte(0)});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(engine.submit(Request::cumsum(x)));
  for (auto& f : futs) {
    const auto r = f.get();
    EXPECT_TRUE(r.ok()) << r.reason;
  }
  engine.shutdown(ShutdownMode::Drain);
  const auto m = engine.metrics();
  EXPECT_EQ(m.completed, 8u);
  EXPECT_GE(m.sim_retries, 1u);  // the injected fault was retried, not fatal
}

TEST(ServeEngine, UnrecoverableFaultFailsTypedNotHangs) {
  ascan::FaultPlan plan;
  plan.ecc_double_rate = 1.0;  // uncorrectable on every transfer, no retry
  Engine engine({.policy = {.max_batch = 4, .max_wait_s = 100e-6},
                 .retry = {.max_attempts = 2},
                 .fault_plan = plan});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(engine.submit(Request::cumsum(x)));
  for (auto& f : futs) {
    const auto r = f.get();
    EXPECT_EQ(r.status, Status::Failed);
    EXPECT_FALSE(r.reason.empty());
  }
  engine.shutdown(ShutdownMode::Drain);  // must terminate despite the faults
  const auto m = engine.metrics();
  EXPECT_EQ(m.failed, 4u);
  // Abandoned launches are counted, with the traffic their faults burned
  // folded into the sim_* counters (not silently dropped).
  EXPECT_GE(m.failed_batches, 1u);
}

// ---------------------------------------------------------------------------
// Metrics export.

TEST(ServeEngine, MetricsJsonHasTheDocumentedSchema) {
  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 100e-6}});
  const auto x = exact_scan_workload(128);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 6; ++i) futs.push_back(engine.submit(Request::cumsum(x)));
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  engine.shutdown(ShutdownMode::Drain);

  const std::string j = engine.metrics_json();
  for (const char* key :
       {"\"admission\"", "\"completed_by_kind\"", "\"batching\"",
        "\"latency\"", "\"queue\"", "\"execute\"", "\"total\"", "\"p50_us\"",
        "\"p95_us\"", "\"p99_us\"", "\"simulated\"",
        "\"bandwidth_utilization\"", "\"continuation_admits\"",
        "\"failed_batches\"", "\"streaming\"", "\"chunk_latency\"",
        "\"steps\"", "\"slo\"", "\"deadline_misses\"", "\"preemptions\"",
        "\"preempted_tiles_resumed\"", "\"tier_latency\"", "\"gold\"",
        "\"silver\"", "\"bronze\"", "\"rejected_quota\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  }
  const auto m = engine.metrics();
  EXPECT_EQ(m.total_latency.count(), 6u);
  EXPECT_GT(m.total_latency.percentile(0.5), 0.0);
  EXPECT_GE(m.total_latency.max_s(), m.total_latency.percentile(0.5) / 2.0);
  EXPECT_GT(m.sim_time_s, 0.0);
  EXPECT_GT(m.sim_bandwidth_utilization, 0.0);
}

TEST(LatencyHistogram, PercentilesAreBucketUpperBounds) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.add(10e-6);
  h.add(10e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LE(h.percentile(0.5), 16e-6 + 1e-12);   // within 10 µs's bucket
  EXPECT_GE(h.percentile(0.995), 10e-3 - 1e-12);  // the outlier
  EXPECT_DOUBLE_EQ(h.max_s(), 10e-3);
}

// ---------------------------------------------------------------------------
// Tentpole: streamed per-tile results through the Engine. Chunks must be
// bit-exact prefixes of the final payload.

TEST(ServeStreaming, ChunksAreBitExactPrefixes) {
  Engine engine({.policy = {.max_batch = 4, .max_wait_s = 100e-6}});
  const auto x = exact_scan_workload(2048, 50);  // 8 steps at tile 16
  Request req = Request::cumsum(x, 16);
  std::mutex mu;
  std::vector<StreamChunk> chunks;
  req.on_chunk = [&](const StreamChunk& c) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.push_back(c);
  };
  const auto resp = engine.submit(std::move(req)).get();
  ASSERT_TRUE(resp.ok()) << resp.reason;
  engine.shutdown(ShutdownMode::Drain);

  std::lock_guard<std::mutex> lk(mu);
  ASSERT_GE(chunks.size(), 2u);  // genuinely incremental delivery
  EXPECT_EQ(resp.chunks_streamed, chunks.size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].kind, OpKind::Cumsum);
    EXPECT_EQ(chunks[i].offset, off) << "chunk " << i;
    EXPECT_EQ(chunks[i].last, i + 1 == chunks.size()) << "chunk " << i;
    EXPECT_EQ(chunks[i].launch_id, resp.launch_id);
    ASSERT_LE(off + chunks[i].values_f16.size(), resp.values_f16.size());
    for (std::size_t j = 0; j < chunks[i].values_f16.size(); ++j) {
      ASSERT_EQ(static_cast<float>(chunks[i].values_f16[j]),
                static_cast<float>(resp.values_f16[off + j]))
          << "chunk " << i << " element " << j;
    }
    off += chunks[i].values_f16.size();
  }
  EXPECT_EQ(off, resp.values_f16.size());  // chunks tile the full payload
  EXPECT_GT(resp.timing.first_chunk_s, 0.0);
  EXPECT_LE(resp.timing.first_chunk_s, resp.timing.total_s);
  const auto m = engine.metrics();
  EXPECT_EQ(m.stream_chunks, chunks.size());
  EXPECT_EQ(m.chunk_latency.count(), chunks.size());
  EXPECT_GE(m.sim_steps, static_cast<int>(chunks.size()));
}

TEST(ServeStreaming, SegmentedChunksTileTheFinalPayload) {
  Engine engine({.policy = {.max_batch = 4, .max_wait_s = 100e-6}});
  const std::size_t n = 9000;  // 3 chunks at the 4096-element step stride
  Request req = Request::segmented_cumsum(exact_scan_workload(n, 51),
                                          seg_flags(n, 52));
  std::mutex mu;
  std::vector<StreamChunk> chunks;
  req.on_chunk = [&](const StreamChunk& c) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.push_back(c);
  };
  const auto resp = engine.submit(std::move(req)).get();
  ASSERT_TRUE(resp.ok()) << resp.reason;
  engine.shutdown(ShutdownMode::Drain);

  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(chunks.size(), 3u);
  std::vector<float> concat;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].kind, OpKind::SegmentedCumsum);
    EXPECT_EQ(chunks[i].offset, concat.size()) << "chunk " << i;
    concat.insert(concat.end(), chunks[i].values_f32.begin(),
                  chunks[i].values_f32.end());
  }
  EXPECT_EQ(concat, resp.values_f32);  // fp32: exact vector equality
  EXPECT_TRUE(chunks.back().last);
}

TEST(ServeStreaming, TopPStreamsOneTerminalChunk) {
  Engine engine({.policy = {.max_batch = 4, .max_wait_s = 100e-6}});
  Rng rng(78);
  Request req = Request::top_p(rng.token_probs_f16(512), 0.9, 0.37);
  std::mutex mu;
  std::vector<StreamChunk> chunks;
  req.on_chunk = [&](const StreamChunk& c) {
    std::lock_guard<std::mutex> lk(mu);
    chunks.push_back(c);
  };
  const auto resp = engine.submit(std::move(req)).get();
  ASSERT_TRUE(resp.ok()) << resp.reason;
  engine.shutdown(ShutdownMode::Drain);
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].token, resp.token);
  EXPECT_TRUE(chunks[0].last);
}

TEST(ServeStreaming, StolenBatchesDoNotStream) {
  // A stolen batch runs as an indivisible throughput unit: the thief must
  // neither stream nor continuation-admit (see serve::Cluster docs). The
  // future still resolves the full payload.
  Session ref;
  const auto x = exact_scan_workload(512, 53);
  const auto want = ref.cumsum_batched(x, 1, x.size(), 16);

  auto stash = std::make_shared<std::vector<Pending>>();
  std::atomic<int> chunk_calls{0};
  std::promise<Response> prom;
  auto fut = prom.get_future();
  {
    Pending p;
    p.req = Request::cumsum(x, 16, false, Priority::Bulk);
    p.req.on_chunk = [&](const StreamChunk&) { ++chunk_calls; };
    p.promise = std::move(prom);
    p.enqueued = Clock::now();
    stash->push_back(std::move(p));
  }
  EngineOptions opt;
  opt.policy = {.max_batch = 4, .max_wait_s = 100e-6};
  opt.steal_source = [stash] {
    std::vector<Pending> v;
    std::swap(v, *stash);
    return v;
  };
  Engine thief(std::move(opt));
  const auto resp = fut.get();
  thief.shutdown(ShutdownMode::Drain);
  ASSERT_TRUE(resp.ok()) << resp.reason;
  EXPECT_EQ(chunk_calls.load(), 0);
  EXPECT_EQ(resp.chunks_streamed, 0u);
  ASSERT_EQ(resp.values_f16.size(), want.values.size());
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    ASSERT_EQ(static_cast<float>(resp.values_f16[i]),
              static_cast<float>(want.values[i]))
        << "index " << i;
  }
  EXPECT_GE(thief.metrics().steals, 1u);
}

// ---------------------------------------------------------------------------
// Tentpole: continuous batching — a request submitted while a compatible
// stepwise launch is in flight joins that launch between steps, and its
// result is identical to a standalone submit.

TEST(ServeContinuation, MidLaunchAdmissionMatchesStandalone) {
  Session ref;
  const auto x1 = exact_scan_workload(4096, 60);  // 16 steps at tile 16
  const auto x2 = exact_scan_workload(700, 61);
  const auto want2 = ref.cumsum_batched(x2, 1, x2.size(), 16);

  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 100e-6}});
  std::promise<std::future<Response>> second;
  std::atomic<bool> submitted{false};
  Request r1 = Request::cumsum(x1, 16);
  // submit() from inside on_chunk is legal (no engine lock held) and, with
  // a single worker, lands while the launch is mid-flight: the next step
  // boundary must admit it into the same launch.
  r1.on_chunk = [&](const StreamChunk&) {
    if (!submitted.exchange(true)) {
      second.set_value(engine.submit(Request::cumsum(x2, 16)));
    }
  };
  auto f1 = engine.submit(std::move(r1));
  const auto resp2 = second.get_future().get().get();
  const auto resp1 = f1.get();
  engine.shutdown(ShutdownMode::Drain);
  ASSERT_TRUE(resp1.ok()) << resp1.reason;
  ASSERT_TRUE(resp2.ok()) << resp2.reason;
  EXPECT_EQ(resp2.launch_id, resp1.launch_id);  // joined the in-flight launch
  ASSERT_EQ(resp2.values_f16.size(), want2.values.size());
  for (std::size_t i = 0; i < want2.values.size(); ++i) {
    ASSERT_EQ(static_cast<float>(resp2.values_f16[i]),
              static_cast<float>(want2.values[i]))
        << "index " << i;
  }
  EXPECT_GE(engine.metrics().continuation_admits, 1u);
}

TEST(ServeContinuation, SegmentedMidLaunchAdmissionMatchesStandalone) {
  Session ref;
  const std::size_t n1 = 12000, n2 = 5000;  // 3 and 2 steps of 4096
  const auto x2 = exact_scan_workload(n2, 65);
  const auto f2 = seg_flags(n2, 66);
  const auto want2 = ref.segmented_cumsum(x2, f2);

  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 100e-6}});
  std::promise<std::future<Response>> second;
  std::atomic<bool> submitted{false};
  Request r1 = Request::segmented_cumsum(exact_scan_workload(n1, 64),
                                         seg_flags(n1, 67));
  r1.on_chunk = [&](const StreamChunk&) {
    if (!submitted.exchange(true)) {
      second.set_value(
          engine.submit(Request::segmented_cumsum(x2, f2)));
    }
  };
  auto f1 = engine.submit(std::move(r1));
  const auto resp2 = second.get_future().get().get();
  const auto resp1 = f1.get();
  engine.shutdown(ShutdownMode::Drain);
  ASSERT_TRUE(resp1.ok()) << resp1.reason;
  ASSERT_TRUE(resp2.ok()) << resp2.reason;
  EXPECT_EQ(resp2.launch_id, resp1.launch_id);  // joined the in-flight launch
  EXPECT_EQ(resp2.values_f32, want2.values);    // fp32: exact equality
  EXPECT_GE(engine.metrics().continuation_admits, 1u);
}

TEST(ServeContinuation, TopPMidLaunchAdmissionMatchesStandalone) {
  Session ref;
  Rng rng(68);
  const auto probs1 = rng.token_probs_f16(512);
  const auto probs2 = rng.token_probs_f16(512);  // same vocab: same GroupKey
  const auto want2 = ref.top_p_sample(probs2, 0.9, 0.61);

  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 100e-6}});
  std::promise<std::future<Response>> second;
  std::atomic<bool> submitted{false};
  Request r1 = Request::top_p(probs1, 0.9, 0.37);
  r1.on_chunk = [&](const StreamChunk&) {
    if (!submitted.exchange(true)) {
      second.set_value(engine.submit(Request::top_p(probs2, 0.9, 0.61)));
    }
  };
  auto f1 = engine.submit(std::move(r1));
  const auto resp2 = second.get_future().get().get();
  const auto resp1 = f1.get();
  engine.shutdown(ShutdownMode::Drain);
  ASSERT_TRUE(resp1.ok()) << resp1.reason;
  ASSERT_TRUE(resp2.ok()) << resp2.reason;
  EXPECT_EQ(resp2.launch_id, resp1.launch_id);  // joined the in-flight launch
  EXPECT_EQ(resp2.token, want2.index);
  EXPECT_GE(engine.metrics().continuation_admits, 1u);
}

TEST(ServeContinuation, DisabledPolicyKeepsBoundaryBatching) {
  const auto x1 = exact_scan_workload(4096, 62);
  const auto x2 = exact_scan_workload(700, 63);
  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 100e-6,
                            .continuous = false}});
  std::promise<std::future<Response>> second;
  std::atomic<bool> submitted{false};
  Request r1 = Request::cumsum(x1, 16);
  r1.on_chunk = [&](const StreamChunk&) {
    if (!submitted.exchange(true)) {
      second.set_value(engine.submit(Request::cumsum(x2, 16)));
    }
  };
  auto f1 = engine.submit(std::move(r1));
  const auto resp2 = second.get_future().get().get();
  const auto resp1 = f1.get();
  engine.shutdown(ShutdownMode::Drain);
  ASSERT_TRUE(resp1.ok()) << resp1.reason;
  ASSERT_TRUE(resp2.ok()) << resp2.reason;
  EXPECT_NE(resp2.launch_id, resp1.launch_id);  // waited for its own launch
  EXPECT_EQ(engine.metrics().continuation_admits, 0u);
}

}  // namespace
}  // namespace ascend
