#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "sim/fault.hpp"

namespace ascan::serve {

namespace {

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration dur(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

bool valid_tile(std::size_t s) {
  return s == 16 || s == 32 || s == 64 || s == 128;
}

/// Consumer half of the sleep-race protocol: a worker registers itself
/// BEFORE (re-)checking for work, so a producer that pushed just after the
/// check is guaranteed to observe the registration (both sides seq_cst)
/// and send the wakeup. Scope-bound so a worker busy executing a batch is
/// not registered and producers skip the notify syscall entirely.
class WaiterGuard {
 public:
  explicit WaiterGuard(std::atomic<int>& w) : w_(w) {
    w_.fetch_add(1, std::memory_order_seq_cst);
  }
  ~WaiterGuard() { w_.fetch_sub(1, std::memory_order_seq_cst); }
  WaiterGuard(const WaiterGuard&) = delete;
  WaiterGuard& operator=(const WaiterGuard&) = delete;

 private:
  std::atomic<int>& w_;
};

}  // namespace

Engine::Engine(EngineOptions opt)
    : opt_(std::move(opt)),
      metrics_(opt_.machine.hbm_bandwidth, opt_.device_id),
      inbox_(2 * opt_.max_queue) {
  ASCAN_CHECK(opt_.num_workers >= 1, "serve::Engine: need >= 1 worker");
  ASCAN_CHECK(opt_.policy.max_batch >= 1,
              "serve::Engine: max_batch must be >= 1");
  ASCAN_CHECK(opt_.max_queue >= 1, "serve::Engine: max_queue must be >= 1");
  ASCAN_CHECK(opt_.interactive_reserve < opt_.max_queue,
              "serve::Engine: interactive_reserve must leave bulk capacity");
  ASCAN_CHECK(!opt_.steal_source || opt_.steal_poll_s > 0,
              "serve::Engine: steal_poll_s must be positive");
  const auto n = static_cast<std::size_t>(opt_.num_workers);
  sessions_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Session>(opt_.machine);
    s->set_retry_policy(opt_.retry);
    if (opt_.fault_plan.any()) s->set_fault_plan(opt_.fault_plan);
    sessions_.push_back(std::move(s));
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

Engine::~Engine() { shutdown(ShutdownMode::Drain); }

std::string Engine::validate(const Request& r) {
  if (r.x.empty()) return "empty input";
  if (std::isnan(r.deadline_s) || r.deadline_s < 0) {
    return "deadline must be >= 0";
  }
  switch (r.kind) {
    case OpKind::Cumsum:
      if (!valid_tile(r.tile)) return "invalid tile size";
      break;
    case OpKind::SegmentedCumsum:
      if (r.flags.size() != r.x.size()) return "flags length mismatch";
      break;
    case OpKind::TopP:
      if (!valid_tile(r.tile)) return "invalid tile size";
      // NaN must never reach a queue: it breaks GroupKey hash/equality
      // consistency (cluster affinity placement keys on p).
      if (std::isnan(r.p)) return "p must not be NaN";
      if (std::isnan(r.u)) return "u must not be NaN";
      if (!(r.p > 0.0 && r.p <= 1.0)) return "p must be in (0, 1]";
      if (!(r.u >= 0.0 && r.u < 1.0)) return "u must be in [0, 1)";
      break;
    case OpKind::Sort:
      if (!valid_tile(r.tile)) return "invalid tile size";
      break;
  }
  return {};
}

std::future<Response> Engine::submit(Request req) {
  metrics_.on_submitted();
  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();

  if (std::string err = validate(req); !err.empty()) {
    metrics_.on_rejected_invalid();
    promise.set_value(immediate_response(req.kind, Status::Rejected,
                                         "invalid request: " + err));
    return fut;
  }
  // Lock-free admission. The inflight guard is raised BEFORE the stopping
  // check: a submit that passes the check is visible to shutdown, which
  // waits for inflight == 0 before its final queue drain — so a racing
  // submission is either rejected here or fully served, never stranded
  // with an unresolved future.
  submits_inflight_.fetch_add(1, std::memory_order_seq_cst);
  if (stopping_.load(std::memory_order_seq_cst)) {
    submits_inflight_.fetch_sub(1, std::memory_order_release);
    metrics_.on_rejected_shutdown();
    promise.set_value(immediate_response(req.kind, Status::Rejected,
                                         "engine shutting down"));
    return fut;
  }
  // Bulk admissions stop interactive_reserve slots early, so a bulk
  // overload can never close the latency-sensitive lane. The depth ticket
  // (claim, then undo on over-cap) enforces the bound without mu_ and
  // doubles as the inbox ring's no-overflow guarantee.
  const bool interactive = req.priority == Priority::Interactive;
  const std::size_t cap = interactive
                              ? opt_.max_queue
                              : opt_.max_queue - opt_.interactive_reserve;
  const std::size_t prev = depth_.fetch_add(1, std::memory_order_seq_cst);
  if (prev >= cap) {
    depth_.fetch_sub(1, std::memory_order_seq_cst);
    submits_inflight_.fetch_sub(1, std::memory_order_release);
    metrics_.on_rejected_capacity();
    std::ostringstream os;
    os << "queue full (" << prev << " pending, limit " << cap << " for "
       << (interactive ? "interactive" : "bulk") << " lane)";
    promise.set_value(
        immediate_response(req.kind, Status::Rejected, os.str()));
    return fut;
  }
  if (!interactive) bulk_depth_.fetch_add(1, std::memory_order_relaxed);

  Pending p;
  p.req = std::move(req);
  p.promise = std::move(promise);
  p.enqueued = Clock::now();
  if (p.req.deadline_s > 0) p.deadline = p.enqueued + dur(p.req.deadline_s);
  p.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  // Admission is counted before the publish: the ring's release/acquire
  // pair then orders this bump before the worker-side completion bump, so
  // a metrics snapshot can never observe completed > admitted.
  metrics_.on_admitted();
  const bool singleton = !coalescible(p.req.kind);
  const std::size_t bucket = wake_bucket(p.req);
  if (!inbox_.try_push(std::move(p))) {
    // Unreachable while the depth ticket holds (ring is 2x the admission
    // bound), kept as a correctness backstop: fall back to the locked
    // path rather than spin or drop.
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push(std::move(p));
  }
  submits_inflight_.fetch_sub(1, std::memory_order_release);
  // Formation waiters are only nudged when this arrival plausibly
  // completes a batch: singletons pop alone, and a coalescible request
  // whose key bucket just reached a multiple of max_batch may have filled
  // one. Everything else leaves a deadline-bounded sleeper asleep.
  const std::uint32_t kp =
      key_pending_[bucket].fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t mb = std::max<std::size_t>(opt_.policy.max_batch, 1);
  wake_workers(singleton || mb <= 1 || kp % mb == 0);
  return fut;
}

void Engine::drain_inbox_locked() {
  Pending p;
  while (inbox_.try_pop(p)) queue_.push(std::move(p));
}

void Engine::wake_workers(bool batch_ready) {
  // Producer side of the Dekker-style store/load pairing: publish (the
  // ring push), fence, then read the waiter counts. Either this read sees
  // the consumer's registration (notify below) or the consumer's
  // post-registration drain sees the push — both sides missing is an SB
  // litmus outcome seq_cst forbids. Only the idle wait is unbounded, so
  // only it gets the unconditional notify; formation waiters sleep on a
  // deadline and are nudged solely when a batch plausibly completed.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const bool idle = cv_waiters_.load(std::memory_order_seq_cst) != 0;
  const bool form =
      batch_ready && form_waiters_.load(std::memory_order_seq_cst) != 0;
  if (!idle && !form) return;
  // The empty critical section pins a racing waiter to one side of its
  // wait: it either has not re-checked yet (it will see the work) or it
  // is inside wait() and the notify lands after its mutex release.
  { std::lock_guard<std::mutex> lk(mu_); }
  if (idle) work_cv_.notify_all();
  if (form) form_cv_.notify_all();
}

void Engine::wake_all_waiters() {
  work_cv_.notify_all();
  form_cv_.notify_all();
}

void Engine::note_removed(const Pending& p) {
  depth_.fetch_sub(1, std::memory_order_seq_cst);
  if (p.req.priority != Priority::Interactive) {
    bulk_depth_.fetch_sub(1, std::memory_order_relaxed);
  }
  key_pending_[wake_bucket(p.req)].fetch_sub(1, std::memory_order_relaxed);
}

void Engine::note_added(const Pending& p) {
  depth_.fetch_add(1, std::memory_order_seq_cst);
  if (p.req.priority != Priority::Interactive) {
    bulk_depth_.fetch_add(1, std::memory_order_relaxed);
  }
  key_pending_[wake_bucket(p.req)].fetch_add(1, std::memory_order_relaxed);
}

std::vector<Pending> Engine::take_all_locked() {
  std::vector<Pending> out;
  drain_inbox_locked();
  const BatchPolicy flush{.max_batch = 1, .max_wait_s = 0};
  while (!queue_.empty()) {
    for (auto& p : queue_.pop_batch(flush, Clock::now())) {
      note_removed(p);
      out.push_back(std::move(p));
    }
  }
  return out;
}

bool Engine::steal_and_execute(Session& session,
                               std::unique_lock<std::mutex>& lk) {
  // Lock rule: never hold this engine's mu_ while reaching into a sibling
  // device's queue — the sibling's worker may be about to do the converse.
  lk.unlock();
  std::vector<Pending> batch;
  try {
    batch = opt_.steal_source();
  } catch (...) {
    // A racing sibling shutdown is not this worker's problem.
  }
  if (batch.empty()) {
    lk.lock();
    return false;
  }
  metrics_.on_steal(batch.size());
  execute_batch(session, std::move(batch), Clock::now(), GroupExec::Stolen);
  lk.lock();
  return true;
}

void Engine::worker_main(std::size_t idx) {
  try {
    Session& session = *sessions_[idx];

    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      // Wait for local work or a stop. Register in cv_waiters_ BEFORE
      // draining the inbox (consumer half of the wake protocol), so a
      // producer pushing right after the drain sees the registration and
      // notifies. With a steal_source installed the wait is sliced at
      // steal_poll_s so an idle device takes a sibling's bulk backlog
      // instead of sleeping on an empty queue.
      {
        WaiterGuard wg(cv_waiters_);
        drain_inbox_locked();
        while (!stopping_.load() && queue_.empty()) {
          if (opt_.steal_source) {
            work_cv_.wait_for(lk, dur(opt_.steal_poll_s), [&] {
              drain_inbox_locked();
              return stopping_.load() || !queue_.empty();
            });
            if (stopping_.load() || !queue_.empty()) break;
            steal_and_execute(session, lk);
            drain_inbox_locked();
          } else {
            work_cv_.wait(lk, [&] {
              drain_inbox_locked();
              return stopping_.load() || !queue_.empty();
            });
          }
        }
      }
      if (queue_.empty()) {
        // Stopping with nothing left locally. Drain mode first waits out
        // any submit that passed the stopping check but has not published
        // yet (submits_inflight_), then drains the inbox once more — the
        // "drain serves everything admitted" guarantee covers that race.
        // A draining device also helps its siblings finish before
        // exiting — cluster drain runs at the speed of the busiest
        // device, not the idlest.
        if (stop_mode_ == ShutdownMode::Drain) {
          while (submits_inflight_.load(std::memory_order_seq_cst) != 0) {
            lk.unlock();
            std::this_thread::yield();
            lk.lock();
          }
          drain_inbox_locked();
          if (!queue_.empty()) continue;
          if (opt_.steal_source) {
            while (steal_and_execute(session, lk)) {
            }
          }
        }
        break;
      }
      if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) break;

      // Dynamic batching: hold the launch until a full batch is ready or
      // the oldest request's wait deadline expires. Shutdown (drain mode)
      // flushes immediately. A queued SLO deadline earlier than the
      // formation deadline caps the hold — batching slack must never be
      // the reason a deadline is missed (an already-late deadline makes
      // the wait return immediately and the pop go out partial).
      const auto now = Clock::now();
      auto deadline =
          queue_.head_enqueued(opt_.policy, now) +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(opt_.policy.max_wait_s));
      deadline = std::min(deadline, queue_.earliest_deadline());
      {
        // Formation wait: deadline-bounded, so it lives on form_cv_ and
        // is only nudged by arrivals that plausibly complete a batch
        // (submit's key-bucket heuristic) or by control edges
        // (shutdown, steal hand-off, residual work). Per-arrival
        // notifies here were a measured ~20% of host wall time on
        // underfed devices — a futex round trip per request to evaluate
        // a predicate that almost always said "keep sleeping".
        WaiterGuard wg(form_waiters_);
        form_cv_.wait_until(lk, deadline, [&] {
          drain_inbox_locked();
          return stopping_.load() ||
                 queue_.full_batch_ready(opt_.policy, Clock::now());
        });
      }
      drain_inbox_locked();
      // Another worker took the work, or a stop re-enters the epilogue.
      if (queue_.empty()) continue;
      if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) break;

      const auto picked = Clock::now();
      std::vector<Pending> batch = queue_.pop_batch(opt_.policy, picked);
      for (const auto& p : batch) note_removed(p);
      const bool residual = !queue_.empty();
      lk.unlock();
      if (residual) wake_all_waiters();  // work may be ready for peers
      execute_batch(session, std::move(batch), picked);
      lk.lock();
    }
  } catch (...) {
    // A worker must never terminate the process. Anything queued is
    // resolved as Cancelled by shutdown(); peers keep serving.
  }
}

std::size_t Engine::admit_continuations(std::vector<StreamSlot>& slots,
                                        const GroupKey& key,
                                        std::size_t active) {
  if (active >= opt_.policy.max_batch) return 0;
  std::vector<Pending> extra;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // A cancelling shutdown owns the queue's requests (they resolve as
    // Cancelled); drain mode keeps feeding the launch — continuation
    // admission *is* how an in-flight launch helps drain.
    if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) return 0;
    drain_inbox_locked();
    extra = queue_.pop_matching(key, opt_.policy.max_batch - active,
                                opt_.policy, Clock::now());
    for (const auto& p : extra) note_removed(p);
  }
  if (extra.empty()) return 0;
  metrics_.on_continuation_admit(extra.size());
  const auto now = Clock::now();
  for (auto& p : extra) {
    StreamSlot s;
    s.p = std::move(p);
    s.picked = now;
    s.exec_begin = now;
    slots.push_back(std::move(s));
  }
  return extra.size();
}

void Engine::deliver_chunk(StreamSlot& slot, StreamChunk chunk,
                           std::uint64_t launch_id) {
  chunk.kind = slot.p.req.kind;
  chunk.device = opt_.device_id;
  chunk.launch_id = launch_id;
  const double latency = secs(Clock::now() - slot.p.enqueued);
  if (slot.resp.chunks_streamed == 0) slot.resp.timing.first_chunk_s = latency;
  slot.resp.chunks_streamed++;
  metrics_.on_chunk(latency);
  // Called with no engine lock held, so the callback may submit() — that
  // is the continuous-admission pattern. A throwing client callback must
  // not poison the launch for its batch neighbours.
  try {
    slot.p.req.on_chunk(chunk);
  } catch (...) {
  }
}

void Engine::finalize_slot(StreamSlot& slot, const Report& report_so_far,
                           std::size_t batch_size, std::uint64_t launch_id) {
  slot.done = true;
  slot.resp.status = Status::Ok;
  slot.resp.kind = slot.p.req.kind;
  slot.resp.report = report_so_far;
  slot.resp.batch_size = batch_size;
  slot.resp.device = opt_.device_id;
  slot.resp.launch_id = launch_id;
  // Latency metrics are stamped now (the request IS complete); the future
  // is fulfilled by the batch pass in execute_batch so waking its waiter
  // doesn't steal the core from the launch's remaining steps.
  stamp_response(slot.p, slot.resp, slot.picked, slot.exec_begin);
}

void Engine::fulfill_finalized(std::vector<StreamSlot>& slots) {
  for (auto& s : slots) {
    if (s.done && !s.fulfilled) {
      s.fulfilled = true;
      s.p.promise.set_value(std::move(s.resp));
    }
  }
}

// ---------------------------------------------------------------------------
// Row steppers of the resumable scans. run_group_stepwise drives both
// through one step loop; each step is one ordinary Session operator call
// over the active rows' next chunks:
//  * take(slots, act) gathers those chunks into the step buffers, which
//    live across steps so assign/insert reuse their capacity;
//  * launch(session) makes the operator call and returns its Report;
//  * carry_out(slot, j) appends row j's outputs to the slot's response,
//    continued by the row's carry from its previous steps, and advances
//    the slot's offset and carry.

/// Cumsum: one step = one l-tile column (l = s*s elements) of every active
/// row, zero-padded to the step's longest remainder — trailing zeros
/// cannot change any prefix, so a row's first chunk(s) outputs are exactly
/// its own scan, continued by its carry.
struct Engine::CumsumRows {
  std::size_t tile = 128;
  bool ul1 = false;
  std::size_t rows = 0;  ///< rows of the current step
  std::size_t len = 0;   ///< padded row length of the current step
  std::vector<half> xs;
  std::vector<half> ys;

  template <typename R>
  static auto& values(R& r) {
    return r.values_f16;
  }

  std::size_t chunk(const StreamSlot& s) const {
    return std::min(len, s.p.req.x.size() - s.off);
  }

  void take(const std::vector<StreamSlot>& slots,
            const std::vector<std::size_t>& act) {
    rows = act.size();
    len = 0;
    for (std::size_t i : act) {
      len = std::max(len, std::min(tile * tile,
                                   slots[i].p.req.x.size() - slots[i].off));
    }
    xs.assign(rows * len, half(0.0f));
    for (std::size_t j = 0; j < rows; ++j) {
      const StreamSlot& s = slots[act[j]];
      const auto first = s.p.req.x.begin() + static_cast<std::ptrdiff_t>(s.off);
      std::copy(first, first + static_cast<std::ptrdiff_t>(chunk(s)),
                xs.begin() + static_cast<std::ptrdiff_t>(j * len));
    }
  }

  Report launch(Session& session) {
    auto r = session.cumsum_batched(xs, rows, len, tile, ul1);
    ys = std::move(r.values);
    return r.report;
  }

  // Rounding note: a step applies the row carry as one uniform fp add per
  // element, where the monolithic kernels chain carries at s-element
  // granularity — for integer-valued data both are exact and identical; on
  // general fp16 data they reassociate differently and may differ by
  // several ulps (~12 on uniform(-1, 1) rows at tile 16; ROADMAP item 11).
  void carry_out(StreamSlot& s, std::size_t j) {
    const std::size_t n = chunk(s);
    const auto first = ys.begin() + static_cast<std::ptrdiff_t>(j * len);
    auto& v = s.resp.values_f16;
    const std::size_t base = v.size();
    v.insert(v.end(), first, first + static_cast<std::ptrdiff_t>(n));
    const float c = static_cast<float>(s.carry);
    if (c != 0.0f) {
      for (std::size_t k = base; k < v.size(); ++k) {
        v[k] = half(static_cast<float>(v[k]) + c);
      }
    }
    s.carry = v.back();
    s.off += n;
  }
};

/// SegmentedCumsum: rows are independent flagged streams of different
/// lengths; one step takes every active row's next chunk (up to kStep
/// elements), concatenated, with a segment start forced at each chunk's
/// first element so no carry crosses rows or steps in-device.
struct Engine::SegmentedRows {
  static constexpr std::size_t kStep = 4096;
  std::vector<half> xs;
  std::vector<std::int8_t> fs;
  std::vector<std::size_t> at;  ///< row j's first element in xs
  std::vector<float> ys;

  template <typename R>
  static auto& values(R& r) {
    return r.values_f32;
  }

  static std::size_t chunk(const StreamSlot& s) {
    return std::min(kStep, s.p.req.x.size() - s.off);
  }

  void take(const std::vector<StreamSlot>& slots,
            const std::vector<std::size_t>& act) {
    xs.clear();
    fs.clear();
    at.resize(act.size());
    for (std::size_t j = 0; j < act.size(); ++j) {
      const StreamSlot& s = slots[act[j]];
      const auto off = static_cast<std::ptrdiff_t>(s.off);
      const auto end = static_cast<std::ptrdiff_t>(s.off + chunk(s));
      at[j] = xs.size();
      xs.insert(xs.end(), s.p.req.x.begin() + off, s.p.req.x.begin() + end);
      fs.insert(fs.end(), s.p.req.flags.begin() + off,
                s.p.req.flags.begin() + end);
      fs[at[j]] = 1;
    }
  }

  Report launch(Session& session) {
    auto r = session.segmented_cumsum(xs, fs);
    ys = std::move(r.values);
    return r.report;
  }

  // The carry applies to the row's leading elements, up to (not including)
  // the chunk's first real segment start.
  void carry_out(StreamSlot& s, std::size_t j) {
    const std::size_t n = chunk(s);
    const auto first = ys.begin() + static_cast<std::ptrdiff_t>(at[j]);
    auto& v = s.resp.values_f32;
    const std::size_t base = v.size();
    v.insert(v.end(), first, first + static_cast<std::ptrdiff_t>(n));
    if (s.fcarry != 0.0f) {
      for (std::size_t k = 0; k < n && !s.p.req.flags[s.off + k]; ++k) {
        v[base + k] += s.fcarry;
      }
    }
    s.fcarry = v.back();
    s.off += n;
  }
};

void Engine::run_group_stepwise(Session& session,
                                std::vector<StreamSlot>& slots,
                                GroupExec mode) {
  // A copy: continuation admission may reallocate `slots`.
  const GroupKey key = group_key(slots.front().p.req);
  const std::uint64_t launch_id =
      next_launch_id_.fetch_add(1, std::memory_order_relaxed);
  const bool allow_admit = mode == GroupExec::Local && opt_.policy.continuous;
  // Stolen batches never stream: the thief runs them as one indivisible
  // throughput unit (see GroupExec).
  const auto streams = [&](const StreamSlot& s) {
    return mode != GroupExec::Stolen && static_cast<bool>(s.p.req.on_chunk);
  };
  // Canary-admitted members of the launch (counted at outcome time, since
  // continuation admission can add slots mid-launch): on a Probing device
  // only canary-tagged outcomes count toward readmission — a straggler
  // launch from before the quarantine must not vouch for the device.
  const auto canary_count = [&slots] {
    std::uint32_t n = 0;
    for (const auto& s : slots) n += s.p.req.canary ? 1u : 0u;
    return n;
  };
  // Sum of the completed steps' Reports: the partial accounting when a
  // later step faults, the launch's Report when every step completed.
  Report agg;
  // The step loop of the resumable scans: gather -> launch -> scatter and
  // carry -> stream -> finalize -> fulfil -> admit -> preempt. Tile-boundary
  // preemption is confined to these two ops: their host-side carry makes a
  // park/resume bit-exact (the same property the failover checkpoints lean
  // on). Only Local launches park — a thief must return a stolen batch
  // complete.
  const bool preemptible = mode == GroupExec::Local && opt_.policy.preemption;
  const auto run_steps = [&](auto& rows) {
    std::vector<std::size_t> act;
    for (;;) {
      const auto step_begin = Clock::now();
      act.clear();
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].done) act.push_back(i);
      }
      if (act.empty()) return;
      rows.take(slots, act);
      Report step = rows.launch(session);
      step.steps = 1;
      agg += step;
      for (std::size_t j = 0; j < act.size(); ++j) {
        StreamSlot& s = slots[act[j]];
        const std::size_t chunk_off = s.off;
        rows.carry_out(s, j);
        const bool finished = s.off == s.p.req.x.size();
        if (streams(s)) {
          const auto& v = rows.values(s.resp);
          StreamChunk c;
          c.offset = chunk_off;
          rows.values(c).assign(
              v.end() - static_cast<std::ptrdiff_t>(s.off - chunk_off),
              v.end());
          c.last = finished;
          deliver_chunk(s, std::move(c), launch_id);
        }
        if (finished) finalize_slot(s, agg, slots.size(), launch_id);
      }
      // One wakeup pass for every row the step finished, before
      // admission so the freed clients' follow-ups can seat here.
      fulfill_finalized(slots);
      if (allow_admit) admit_continuations(slots, key, act.size());
      if (preemptible &&
          should_preempt(key, slots, secs(Clock::now() - step_begin))) {
        park_unfinished(slots);
        return;
      }
    }
  };
  try {
    switch (key.kind) {
      case OpKind::Cumsum: {
        CumsumRows rows;
        rows.tile = key.tile;
        rows.ul1 = key.ul1;
        run_steps(rows);
        break;
      }
      case OpKind::SegmentedCumsum: {
        SegmentedRows rows;
        run_steps(rows);
        break;
      }
      case OpKind::TopP: {
        // A row's sample is already a multi-kernel pipeline, so one step =
        // one row; the single chunk carries the token. Admission counts
        // the rows still to run after this one.
        for (std::size_t i = 0; i < slots.size(); ++i) {
          StreamSlot& s = slots[i];
          auto sr = session.top_p_sample(s.p.req.x, key.p, s.p.req.u,
                                         /*baseline_ops=*/false, key.tile);
          sr.report.steps = 1;
          agg += sr.report;
          s.resp.token = sr.index;
          if (streams(s)) {
            StreamChunk c;
            c.token = sr.index;
            c.last = true;
            deliver_chunk(s, std::move(c), launch_id);
          }
          finalize_slot(s, agg, slots.size(), launch_id);
          fulfill_finalized(slots);
          if (allow_admit) {
            admit_continuations(slots, key, slots.size() - (i + 1));
          }
        }
        break;
      }
      case OpKind::Sort: {
        // No batched sort kernel (ROADMAP open item) and no meaningful
        // resumable slice — runs monolithic, never streams or admits.
        ASCAN_ASSERT(slots.size() == 1, "sort requests are never coalesced");
        StreamSlot& s = slots.front();
        auto r = session.sort(s.p.req.x, s.p.req.descending,
                              s.p.req.sort_algo, s.p.req.tile);
        s.resp.sorted_values = std::move(r.values);
        s.resp.indices = std::move(r.indices);
        agg = r.report;
        finalize_slot(s, agg, 1, launch_id);
        break;
      }
    }
    metrics_.on_batch(slots.size(), agg);
  } catch (const ascend::sim::FaultError& e) {
    // The traffic a fault burned must not vanish from the bandwidth
    // figures: completed steps plus the failing attempt are recorded
    // against failed_batches before the fallback path takes over.
    Report burned = agg;
    burned += e.attempt_report();
    metrics_.on_batch_abandoned(burned);
    // Health outcome before rethrow: the cluster's failover_sink (run by
    // execute_batch's catch) must see the post-fault device state.
    if (opt_.outcome_sink) {
      opt_.outcome_sink(true, burned.retries, canary_count());
    }
    throw;
  } catch (...) {
    metrics_.on_batch_abandoned(agg);
    if (opt_.outcome_sink) {
      opt_.outcome_sink(true, agg.retries, canary_count());
    }
    throw;
  }
  if (opt_.outcome_sink) {
    opt_.outcome_sink(false, agg.retries, canary_count());
  }
}

void Engine::execute_batch(Session& session, std::vector<Pending> batch,
                           Clock::time_point picked, GroupExec mode) {
  const auto exec_begin = Clock::now();
  std::vector<StreamSlot> slots;
  slots.reserve(batch.size());
  for (auto& p : batch) {
    StreamSlot s;
    s.p = std::move(p);
    s.picked = picked;
    s.exec_begin = exec_begin;
    if (s.p.resume.active) {
      // Failover resume: seed the slot from the tile checkpoint the
      // faulted device stashed — the scan continues from the last
      // completed tile's carry instead of recomputing the prefix, and the
      // original batch timestamps keep the latency decomposition spanning
      // the whole failover.
      ResumeState& rs = s.p.resume;
      s.off = rs.off;
      s.carry = rs.carry;
      s.fcarry = rs.fcarry;
      s.resp.values_f16 = std::move(rs.prefix_f16);
      s.resp.values_f32 = std::move(rs.prefix_f32);
      s.resp.chunks_streamed = rs.chunks_streamed;
      s.resp.timing.first_chunk_s = rs.first_chunk_s;
      s.resp.preemptions = rs.preemptions;
      // resumed_from is *failover* provenance. A preemption park resumed
      // on its own device is the normal course of an SLO-tiered launch,
      // not a failover — only a checkpoint that crossed devices (fault
      // stash, or a parked batch drained off a dying device) records it.
      // Either way an earlier cross-device failover stays on the record:
      // a later same-device park must not launder the provenance away.
      s.resp.resumed_from =
          rs.preempted && rs.from_device == opt_.device_id
              ? rs.resumed_from
              : rs.from_device;
      if (rs.preempted && rs.off > 0) metrics_.on_preempted_tile_resumed();
      s.picked = rs.picked;
      s.exec_begin = rs.exec_begin;
      rs.active = false;
      rs.preempted = false;
    }
    // Reserve the full payload up front: steps append tile-sized slices,
    // and growth reallocations mid-launch are pure overhead.
    if (s.p.req.kind == OpKind::Cumsum) {
      s.resp.values_f16.reserve(s.p.req.x.size());
    } else if (s.p.req.kind == OpKind::SegmentedCumsum) {
      s.resp.values_f32.reserve(s.p.req.x.size());
    }
    slots.push_back(std::move(s));
  }
  batch.clear();
  const bool started_solo = slots.size() == 1;
  try {
    run_group_stepwise(session, slots, mode);
    // Preemption parks leave the launch cleanly (no exception) with
    // their slots unresolved and checkpointed; hand them back to the
    // queue so the interactive work they yielded to runs next.
    requeue_parked(slots);
  } catch (const std::exception& e) {
    // Already-finalized slots stay final (their streamed prefixes and
    // stamped responses are fulfilled below); only unresolved slots take a
    // fallback. With a cluster failover_sink installed, each unresolved
    // member is first offered — carrying its tile checkpoint — for
    // re-dispatch on a healthy sibling; whatever the sink hands back falls
    // through to the local path below.
    if (opt_.failover_sink) {
      std::vector<Pending> offer;
      for (auto& s : slots) {
        if (s.done) continue;
        stash_resume(s);
        offer.push_back(std::move(s.p));
      }
      std::vector<Pending> local = opt_.failover_sink(std::move(offer));
      for (auto& p : local) {
        if (mode == GroupExec::Isolated || started_solo) {
          Response r =
              immediate_response(p.req.kind, Status::Failed, e.what());
          r.device = opt_.device_id;
          resolve(p, std::move(r), p.resume.picked, p.resume.exec_begin);
        } else {
          // The isolation re-run consumes the stashed checkpoint too —
          // a local resume from the last completed tile, under the
          // request-scoped retry policy.
          execute_single(session, p, p.resume.picked);
        }
      }
    } else {
      for (auto& s : slots) {
        if (s.done) continue;
        if (mode == GroupExec::Isolated || started_solo) {
          Response r =
              immediate_response(s.p.req.kind, Status::Failed, e.what());
          r.device = opt_.device_id;
          resolve(s.p, std::move(r), s.picked, s.exec_begin);
        } else {
          // Fault isolation: the coalesced launch exhausted the
          // engine-level retry policy. Re-run the members individually,
          // each under its request-scoped policy, so one poisoned request
          // cannot take down the batch. A partially-streamed request
          // restarts from offset 0.
          execute_single(session, s.p, s.picked);
        }
      }
    }
  }
  // Batch-fulfilled futures: every slot that completed in this launch gets
  // its promise set here, in one pass, outside any lock — the waiters all
  // wake after the launch's work is done instead of preempting it.
  fulfill_finalized(slots);
}

bool Engine::should_preempt(const GroupKey& key,
                            const std::vector<StreamSlot>& slots,
                            double step_s) {
  // Only an all-bulk remainder may park: an interactive row riding the
  // launch (continuation admission) is already being served at its own
  // lane's latency — parking it to serve different interactive work
  // would just shuffle the miss around.
  bool any_unfinished = false;
  std::size_t active = 0;
  auto oldest = Clock::time_point::max();
  for (const auto& s : slots) {
    if (s.done) continue;
    if (s.p.req.priority == Priority::Interactive) return false;
    any_unfinished = true;
    active++;
    oldest = std::min(oldest, s.p.enqueued);
  }
  if (!any_unfinished) return false;
  const auto now = Clock::now();
  // Aging composes with preemption exactly as it composes with lane
  // priority: a bulk launch whose oldest row has waited out the
  // starvation guard has earned the device and cannot be parked again.
  if (secs(now - oldest) >
      opt_.policy.aging_factor * opt_.policy.max_wait_s) {
    return false;
  }
  // Interactive requests matching this launch's key can still be seated
  // by continuation admission while rows are free — only then are they
  // no reason to park.
  const bool key_joinable =
      opt_.policy.continuous && active < opt_.policy.max_batch;
  const double horizon =
      opt_.policy.preempt_slack_s > 0 ? opt_.policy.preempt_slack_s : step_s;
  std::lock_guard<std::mutex> lk(mu_);
  // A cancelling shutdown owns the queue; nothing there will run anyway.
  if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) return false;
  // The interactive request worth yielding to may still be in the inbox.
  drain_inbox_locked();
  const auto dl =
      queue_.earliest_interactive_deadline(key_joinable ? &key : nullptr);
  if (dl == Clock::time_point::max()) return false;
  return dl <= now + dur(horizon);
}

void Engine::park_unfinished(std::vector<StreamSlot>& slots) {
  metrics_.on_preemption();
  for (auto& s : slots) {
    if (s.done) continue;
    s.resp.preemptions++;
    stash_resume(s);
    s.p.resume.preempted = true;
  }
}

void Engine::requeue_parked(std::vector<StreamSlot>& slots) {
  std::vector<Pending> parked;
  for (auto& s : slots) {
    if (!s.done && s.p.resume.active) parked.push_back(std::move(s.p));
  }
  if (parked.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Original seq and enqueue time ride along, so the parked rows
    // re-enter at their old FIFO position among their deadline peers and
    // the aging clock keeps running from the original admission. Even
    // mid-shutdown the push is safe: Drain serves the queue to empty and
    // Cancel's finish_shutdown resolves whatever remains — no future
    // dangles either way. The depth ticket is re-claimed without a cap
    // check: the rows were admitted once and never left the engine.
    for (auto& p : parked) {
      note_added(p);
      queue_.push(std::move(p));
    }
  }
  wake_all_waiters();
}

void Engine::stash_resume(StreamSlot& s) {
  ResumeState& rs = s.p.resume;
  rs.active = true;
  rs.from_device = opt_.device_id;
  rs.preempted = false;
  rs.preemptions = s.resp.preemptions;
  rs.resumed_from = s.resp.resumed_from;
  rs.off = s.off;
  rs.carry = s.carry;
  rs.fcarry = s.fcarry;
  rs.prefix_f16 = std::move(s.resp.values_f16);
  rs.prefix_f32 = std::move(s.resp.values_f32);
  rs.chunks_streamed = s.resp.chunks_streamed;
  rs.first_chunk_s = s.resp.timing.first_chunk_s;
  rs.picked = s.picked;
  rs.exec_begin = s.exec_begin;
}

void Engine::execute_single(Session& session, Pending& p,
                            Clock::time_point picked) {
  ScopedRetryPolicy scope(session, p.req.retry.value_or(opt_.retry));
  std::vector<Pending> solo;
  solo.push_back(std::move(p));
  execute_batch(session, std::move(solo), picked, GroupExec::Isolated);
}

void Engine::stamp_response(Pending& p, Response& r, Clock::time_point picked,
                            Clock::time_point exec_begin) {
  const auto now = Clock::now();
  r.timing.queue_s = secs(picked - p.enqueued);
  r.timing.batch_s = secs(exec_begin - picked);
  r.timing.execute_s = secs(now - exec_begin);
  r.timing.total_s = secs(now - p.enqueued);
  if (p.deadline != Clock::time_point::max() && now > p.deadline) {
    r.deadline_missed = true;
    metrics_.on_deadline_miss();
  }
  if (r.status == Status::Ok) {
    metrics_.on_completed(r.kind, p.req.tier, r.timing);
  } else {
    metrics_.on_failed(r.timing);
  }
}

void Engine::resolve(Pending& p, Response r, Clock::time_point picked,
                     Clock::time_point exec_begin) {
  stamp_response(p, r, picked, exec_begin);
  p.promise.set_value(std::move(r));
}

void Engine::begin_shutdown(ShutdownMode mode) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_.load() || stopped_) return;  // the first caller's mode wins
    stop_mode_ = mode;  // before stopping_: workers read mode under mu_
    stopping_.store(true, std::memory_order_seq_cst);
  }
  wake_all_waiters();
}

void Engine::finish_shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    ASCAN_CHECK(stopping_.load(),
                "serve::Engine: finish_shutdown before begin_shutdown");
  }
  for (auto& w : workers_) w.join();
  workers_.clear();

  // A submit that passed the stopping check before the flag landed may
  // still be publishing; wait it out so the final drain below is really
  // final (its inbox push is then visible, its future resolved here).
  while (submits_inflight_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }

  // Cancel-mode leftovers (and anything a dead worker abandoned): resolve
  // every remaining future so none dangles.
  std::vector<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    leftovers = take_all_locked();
    stopped_ = true;
  }
  for (auto& p : leftovers) {
    metrics_.on_cancelled();
    p.promise.set_value(
        immediate_response(p.req.kind, Status::Cancelled,
                           "engine shutdown cancelled the request"));
  }
}

void Engine::shutdown(ShutdownMode mode) {
  begin_shutdown(mode);
  finish_shutdown();
}

bool Engine::stopped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stopped_;
}

std::size_t Engine::queue_depth() const {
  // Mu_-free: the admission ticket counts inbox + batcher occupancy. The
  // cluster's placement loop reads every shard's depth per submit, so
  // this must never contend with the shards' own hot paths.
  return depth_.load(std::memory_order_seq_cst);
}

std::size_t Engine::bulk_backlog() const {
  return bulk_depth_.load(std::memory_order_seq_cst);
}

std::vector<Pending> Engine::steal_bulk_batch(std::size_t min_backlog) {
  std::vector<Pending> batch;
  // Cheap pre-check without mu_: a thief probing an empty sibling must
  // not serialize against that sibling's own workers.
  if (bulk_depth_.load(std::memory_order_seq_cst) < min_backlog) return batch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return batch;
    // A cancelling shutdown owns its queued requests — they resolve as
    // Cancelled here, not on a thief.
    if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) return batch;
    drain_inbox_locked();  // the stealable backlog may still be in-flight
    batch = queue_.steal_bulk(opt_.policy, min_backlog);
    for (const auto& p : batch) note_removed(p);
  }
  if (!batch.empty()) metrics_.on_steal_suffered();
  return batch;
}

bool Engine::inject(Pending& p) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_.load() || stopped_) return false;
    // Keep the original enqueue time (total latency spans the failover)
    // but re-sequence into this queue's FIFO order. No admission counting
    // (the request was admitted once, at its original shard) — but the
    // local depth ticket is claimed so queue_depth() stays truthful for
    // placement and the capacity check backs off accordingly.
    p.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    note_added(p);
    queue_.push(std::move(p));
  }
  wake_all_waiters();
  return true;
}

std::vector<Pending> Engine::drain_queue() {
  std::lock_guard<std::mutex> lk(mu_);
  // Shutdown owns the queue's requests (Drain executes them, Cancel
  // resolves them Cancelled in finish_shutdown); draining here would
  // race that accounting.
  if (stopping_.load() || stopped_) return {};
  return take_all_locked();
}

Engine::DeviceStats Engine::device_stats() const {
  DeviceStats d;
  bool first = true;
  for (const auto& s : sessions_) {
    const auto& c = s->cumulative_retry_stats();
    d.op_calls += c.calls;
    d.op_failures += c.failures;
    d.retries += c.retries;
    d.excluded_cores += c.excluded_cores;
    d.active_cores = first ? s->active_cores()
                           : std::min(d.active_cores, s->active_cores());
    first = false;
  }
  return d;
}

}  // namespace ascan::serve
