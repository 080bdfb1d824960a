// serve — the asynchronous request-serving engine.
//
// Layered on the persistent host execution engine of src/sim (PR 2): each
// worker thread owns an ascan::Session (and thus a pooled simulated
// device) and turns queued client requests into dynamically formed batched
// launches. The client surface is three calls:
//
//   serve::Engine engine({.policy = {.max_batch = 16,
//                                    .max_wait_s = 500e-6}});
//   auto fut = engine.submit(serve::Request::cumsum(x));
//   serve::Response r = fut.get();      // r.values_f16, r.report, r.timing
//   engine.shutdown(serve::ShutdownMode::Drain);
//
// Coalesced launches run *stepwise* (tile-granular slices, each one
// ordinary Session operator call) rather than as one opaque call, which
// buys two serving behaviours on the same step boundary:
//  * Continuous batching: between steps the worker re-checks the queue and
//    admits compatible newly-arrived requests (same GroupKey) into the
//    in-flight launch's free rows — iteration-level scheduling, toggled by
//    BatchPolicy::continuous (metrics: continuation_admits).
//  * Streaming: a Request with an on_chunk callback receives each of its
//    completed prefix slices as it lands; the future still resolves the
//    full Response afterwards (metrics: stream_chunks, chunk_latency).
//
// Guarantees:
//  * Every future resolves exactly once — success, typed-fault failure,
//    admission rejection or shutdown cancellation. Never a dangling future.
//  * Admission control: a bounded queue with an interactive-only reserve;
//    over-capacity submissions resolve immediately as Rejected with a
//    reason, they are never silently dropped.
//  * Fault isolation: if a batched launch fails its Session-level retry
//    policy, the engine re-executes the members individually, each under
//    its request-scoped RetryPolicy — one poisoned request cannot fail its
//    batch neighbours.
//  * Results are bit-exact with the equivalent direct Session calls
//    (tests/test_serve.cpp pins this for integer-valued workloads, where
//    every float operation is exact; on general fp16 data batching and
//    stepping reassociate carries, and served values can differ from a
//    direct call by several ulps — ~12 ulps on uniform(-1, 1) rows at
//    tile 16; ROADMAP item 11 states the bound to test). Streamed chunks are
//    bit-exact prefixes of the final Response (never revised), and a
//    request admitted mid-launch produces results identical to a
//    standalone submit — per-row kernel math depends only on the row's
//    own data and carry, never on batch composition or padding.
//
// One Engine is one simulated device's serving front. serve::Cluster
// (cluster.hpp) composes N Engines behind one submit() with
// locality-aware placement and cross-device work stealing; the hooks it
// uses (device_id tagging, steal_source, the split begin/finish shutdown)
// are part of this header.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/mpsc_queue.hpp"
#include "serve/request.hpp"

namespace ascan::serve {

/// How shutdown disposes of requests still queued.
enum class ShutdownMode {
  Drain,   ///< execute everything admitted, then stop
  Cancel,  ///< stop after in-flight batches; queued requests -> Cancelled
};

struct EngineOptions {
  BatchPolicy policy;
  /// Admission bound: bulk requests are rejected when the queue holds
  /// max_queue - interactive_reserve requests; interactive ones when it
  /// holds max_queue. The reserve keeps a latency-sensitive lane open
  /// under bulk overload.
  std::size_t max_queue = 256;
  std::size_t interactive_reserve = 16;
  int num_workers = 1;  ///< Sessions (simulated devices) serving the queue
  /// Device configuration of every worker Session (defaults to the 910B4).
  MachineConfig machine = MachineConfig::ascend_910b4();
  RetryPolicy retry{};     ///< engine-default resilience policy
  FaultPlan fault_plan{};  ///< armed on every worker Session when any()

  /// Cluster shard id stamped on every Response served here (0 for a
  /// standalone engine; the Cluster assigns 0..N-1).
  int device_id = 0;
  /// Cluster hook: when set, an idle worker polls this between short cv
  /// waits to take a whole formed bulk batch from a sibling device instead
  /// of sleeping until local work arrives. Must return an empty vector
  /// when nothing is stealable; must never block on this engine's locks.
  std::function<std::vector<Pending>()> steal_source{};
  double steal_poll_s = 100e-6;  ///< idle poll cadence when stealing is on

  /// Cluster hook: per-launch outcome feed for the device health monitor.
  /// Called from the worker thread after every serving launch, with no
  /// engine lock held — `faulted` when the launch exhausted its retry
  /// policy (typed fault escaped), `retries` the recovered-relaunch count
  /// of a successful launch, `canaries` the number of canary-admitted
  /// requests (Request::canary) the launch carried. Must not block on
  /// this engine's locks.
  std::function<void(bool faulted, std::uint32_t retries,
                     std::uint32_t canaries)>
      outcome_sink{};
  /// Cluster hook: every unresolved member of a faulted batch is offered
  /// here — each carries its tile checkpoint in Pending::resume — so the
  /// cluster can re-dispatch it to a healthy sibling. Returns the pendings
  /// it could NOT re-dispatch; those fall back to this engine's local
  /// isolation path. Called with no engine lock held. When unset, every
  /// member falls back locally (standalone-engine behaviour).
  std::function<std::vector<Pending>(std::vector<Pending>)> failover_sink{};
};

class Engine {
 public:
  explicit Engine(EngineOptions opt = {});
  ~Engine();  ///< drains (ShutdownMode::Drain) if still running

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Argument validation shared with the Cluster front end: empty string
  /// when `r` is servable, else the rejection reason.
  static std::string validate(const Request& r);

  /// Thread-safe. Validates, admits (or rejects) and returns the future.
  std::future<Response> submit(Request req);

  /// Stops the workers. Idempotent; concurrent callers all block until
  /// the engine is fully stopped. After return, every future ever handed
  /// out is resolved and further submits resolve as Rejected.
  void shutdown(ShutdownMode mode);

  /// Two-phase shutdown for multi-device owners: begin_shutdown() signals
  /// the stop (non-blocking, so a cluster stops every device in parallel);
  /// finish_shutdown() joins the workers and resolves leftovers.
  /// shutdown() == begin + finish.
  void begin_shutdown(ShutdownMode mode);
  void finish_shutdown();

  bool stopped() const;
  std::size_t queue_depth() const;
  /// Bulk-lane backlog (the stealable part of the queue).
  std::size_t bulk_backlog() const;

  /// Work-stealing entry point, called by a sibling device's idle worker
  /// (through the cluster): pops one whole formed bulk batch when the bulk
  /// backlog holds at least `min_backlog` requests. Interactive requests
  /// are never handed out. Empty while a cancelling shutdown is in
  /// progress (those requests resolve as Cancelled here).
  std::vector<Pending> steal_bulk_batch(std::size_t min_backlog);

  /// Cluster failover entry point: enqueues an already-admitted Pending
  /// (re-dispatched from a sick sibling, possibly carrying a resume
  /// checkpoint) without counting a new admission — the request was
  /// admitted once, at its original shard. Returns false (leaving `p`
  /// intact) when this engine is stopping or stopped.
  bool inject(Pending& p);
  /// Cluster quarantine drain: removes and returns every queued request so
  /// the cluster can re-dispatch them to healthy shards. Empty while a
  /// shutdown is in progress (shutdown owns the queue's requests then).
  std::vector<Pending> drain_queue();

  /// Post-shutdown per-device degradation view, aggregated over the
  /// engine's Sessions. Reading it while workers are live is racy.
  struct DeviceStats {
    int active_cores = 0;  ///< min over sessions (cores stay offline)
    std::uint64_t op_calls = 0;
    std::uint64_t op_failures = 0;
    std::uint64_t retries = 0;
    std::uint64_t excluded_cores = 0;
  };
  DeviceStats device_stats() const;

  MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  std::string metrics_json() const { return metrics_.snapshot().json(); }
  const EngineOptions& options() const { return opt_; }

 private:
  /// How a batch reached this engine; controls continuation admission and
  /// streaming at the step boundaries of the launch.
  ///  * Local: popped from this engine's own queue — streams, and admits
  ///    compatible newly-arrived requests between steps (when
  ///    BatchPolicy::continuous).
  ///  * Stolen: taken from a sibling device's queue — executes as one
  ///    indivisible unit: no streaming (the requests' owners admitted them
  ///    elsewhere; their stream bookkeeping lives outside this engine) and
  ///    no admission (the thief must not graft its own queue onto a batch
  ///    it is merely helping drain).
  ///  * Isolated: single-request fault-isolation fallback — streams (from
  ///    offset 0 again if a partial stream preceded the failure), never
  ///    admits.
  enum class GroupExec { Local, Stolen, Isolated };

  /// One request riding an in-flight stepwise launch.
  struct StreamSlot {
    Pending p;
    Clock::time_point picked{};      ///< batch pick / continuation admission
    Clock::time_point exec_begin{};  ///< when this slot joined the launch
    Response resp;                   ///< payload accumulated step by step
    std::size_t off = 0;             ///< elements produced so far
    half carry = half(0.0f);         ///< Cumsum running prefix (carry-in)
    float fcarry = 0.0f;             ///< SegmentedCumsum running prefix
    bool done = false;       ///< finalized: response stamped
    bool fulfilled = false;  ///< promise set (by a batch fulfilment pass)
  };

  void worker_main(std::size_t idx);
  /// Unlocks `lk`, asks the steal_source for a batch and executes it on
  /// `session`; relocks. Returns whether a batch was stolen.
  bool steal_and_execute(Session& session, std::unique_lock<std::mutex>& lk);
  void execute_batch(Session& session, std::vector<Pending> batch,
                     Clock::time_point picked,
                     GroupExec mode = GroupExec::Local);
  /// Runs one request alone under its request-scoped RetryPolicy.
  void execute_single(Session& session, Pending& p, Clock::time_point picked);
  /// Row steppers of the resumable scans (Cumsum, SegmentedCumsum): the
  /// per-op gather, Session operator call and carry-out of one step.
  struct CumsumRows;
  struct SegmentedRows;

  /// Drives the coalesced launch step by step, each step one ordinary
  /// Session operator call: scatters every completed slice into its slot
  /// (streaming it when the request asked), resolves slots the moment
  /// their last slice lands, and between steps admits compatible queued
  /// requests into free rows (mode Local + policy.continuous). On a typed
  /// fault it records the partial Report (failed_batches / sim_* counters)
  /// and rethrows with every unresolved slot's Pending intact for the
  /// caller's fallback.
  void run_group_stepwise(Session& session, std::vector<StreamSlot>& slots,
                          GroupExec mode);
  /// Continuation admission: pops queued requests matching `key` into
  /// `slots` (up to max_batch total active rows). Returns how many joined.
  std::size_t admit_continuations(std::vector<StreamSlot>& slots,
                                  const GroupKey& key, std::size_t active);
  /// Delivers one streamed chunk to the slot's callback (no lock held) and
  /// records first-chunk timing + chunk metrics.
  void deliver_chunk(StreamSlot& slot, StreamChunk chunk,
                     std::uint64_t launch_id);
  /// Marks the slot Ok and stamps launch bookkeeping + latency metrics at
  /// true completion time. The future is NOT fulfilled here — the batch's
  /// futures are all set in one pass by fulfill_finalized() after the
  /// launch leaves the step loop, so client wakeups never interleave with
  /// (and context-switch against) the remaining steps.
  void finalize_slot(StreamSlot& slot, const Report& report_so_far,
                     std::size_t batch_size, std::uint64_t launch_id);
  /// Batch fulfilment: sets every finalized-but-unfulfilled slot's promise
  /// in one pass, outside any engine lock. Called once per step (after the
  /// scatter loop, before continuation admission, so freed clients can
  /// resubmit into the same launch) and once at the end of execute_batch
  /// as the catch-all for exception paths.
  void fulfill_finalized(std::vector<StreamSlot>& slots);
  /// Stashes the slot's tile checkpoint into its Pending (Pending::resume)
  /// so a failover target can continue the row from the last completed
  /// tile.
  void stash_resume(StreamSlot& slot);

  /// Tile-boundary preemption predicate, evaluated at each step boundary
  /// of a Local Cumsum/SegmentedCumsum launch: true when every unfinished
  /// slot is bulk-lane, none has aged past the starvation guard (aging
  /// outranks preemption), and a queued interactive request's deadline
  /// falls within the preemption horizon (policy.preempt_slack_s, or the
  /// previous step's wall duration when 0). Requests matching `key` are
  /// ignored while continuation admission could still seat them.
  bool should_preempt(const GroupKey& key,
                      const std::vector<StreamSlot>& slots, double step_s);
  /// Parks every unfinished slot as a preemption checkpoint
  /// (Pending::resume with preempted provenance) and counts the park.
  void park_unfinished(std::vector<StreamSlot>& slots);
  /// Re-queues preemption-parked pendings (original seq and enqueue time
  /// kept, no admission counting) so the next pop serves the interactive
  /// work first and the parked batch resumes bit-exact afterwards.
  void requeue_parked(std::vector<StreamSlot>& slots);

  /// Stamps timing decomposition, deadline verdict and completion metrics
  /// into `r` (at call time — callers invoke it the moment the outcome is
  /// known, even when the future is fulfilled later in a batch pass).
  void stamp_response(Pending& p, Response& r, Clock::time_point picked,
                      Clock::time_point exec_begin);
  /// stamp_response + immediate future fulfilment (failure/cancel paths).
  void resolve(Pending& p, Response r, Clock::time_point picked,
               Clock::time_point exec_begin);

  /// Moves everything the submitters pushed into the batcher. Callers hold
  /// mu_ — the batcher's lane structures are still mutex-guarded; only the
  /// submit() -> inbox_ handoff is lock-free.
  void drain_inbox_locked();
  /// Producer half of the sleep-race protocol: seq_cst fence, then notify
  /// only when a worker is registered in cv_waiters_ (paired with the
  /// consumer's register-then-drain order — see DESIGN.md "Host hot
  /// path"). `batch_ready` additionally nudges formation waiters —
  /// workers sleeping out a partial batch's max_wait window on form_cv_.
  /// Those waits are deadline-bounded, so skipping the nudge for
  /// arrivals that cannot complete a batch costs at most the formation
  /// window the policy already tolerates, and it is what keeps a
  /// lightly-loaded device's worker from a futex round trip per request.
  void wake_workers(bool batch_ready);
  /// Wakes every waiter on both condition variables (shutdown, steal
  /// hand-offs, residual-work announcements — the rare control edges).
  void wake_all_waiters();
  /// Accounting when a request leaves the queue for execution (pop, steal,
  /// drain, flush): undoes the depth_/bulk_depth_ admission ticket and the
  /// formation-wake bucket count.
  void note_removed(const Pending& p);
  /// The inverse of note_removed, for an already-admitted request that
  /// re-enters the queue (failover inject, preemption requeue): claims the
  /// depth ticket without a cap check.
  void note_added(const Pending& p);
  /// Empties inbox and queue into the returned vector, in pop order, with
  /// each request's accounting undone. Callers hold mu_.
  std::vector<Pending> take_all_locked();
  /// key_pending_ bucket of a request's GroupKey (formation-wake
  /// heuristic).
  static std::size_t wake_bucket(const Request& r) {
    return group_key_hash(group_key(r)) % kWakeBuckets;
  }

  EngineOptions opt_;
  Metrics metrics_;

  std::mutex shutdown_mu_;  ///< serialises shutdown callers (join outside mu_)
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  /// Lock-free MPSC submission inbox: submit() publishes here (one
  /// fetch_add + release store, no mu_) and whichever worker holds mu_
  /// drains it into the batcher. Sized 2x the admission bound so the
  /// depth_ ticket guarantees a push can never find it full.
  MpscRing<Pending> inbox_;
  Batcher queue_;  ///< lane/EDF structures; guarded by mu_
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;                          // guarded by mu_
  ShutdownMode stop_mode_ = ShutdownMode::Drain;  // guarded by mu_
  /// Admission ticket: queued requests (inbox_ + batcher), bumped before
  /// the inbox push so capacity is enforced without mu_. bulk_depth_ is
  /// the bulk-lane share, for mu_-free bulk_backlog() steal probes.
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::size_t> bulk_depth_{0};
  /// Submits past the stopping_ check whose inbox push has not landed
  /// yet. Shutdown waits for zero before the final drain, so a racing
  /// submit is either rejected or fully served — never stranded.
  std::atomic<std::uint64_t> submits_inflight_{0};
  /// Workers registered in the *idle* cv wait (queue empty; possibly
  /// indefinite). Producers skip the notify entirely when this is zero —
  /// the common saturated case — and pair a seq_cst fence with the
  /// waiter's registration to make the skip race-free. Idle waits are the
  /// only unbounded ones, so they keep the per-arrival notify.
  std::atomic<int> cv_waiters_{0};
  /// Workers registered in the *formation* wait (partial batch, sleeping
  /// until the max_wait window or an SLO deadline expires) on form_cv_.
  /// Only nudged when an arrival could complete a batch: these waits are
  /// time-bounded, so a skipped notify delays a pop by at most the
  /// formation window — never loses it.
  std::condition_variable form_cv_;
  std::atomic<int> form_waiters_{0};
  /// Pending-count per group_key_hash bucket, maintained lock-free by
  /// submit()/note_removed(). When an arrival brings its bucket to a
  /// multiple of max_batch, a full batch is plausibly ready and the
  /// formation waiters get their nudge. Collisions only over-count,
  /// which closes a batch window early — a scheduling nudge, never a
  /// correctness issue (the popping worker re-checks under mu_).
  static constexpr std::size_t kWakeBuckets = 64;
  std::array<std::atomic<std::uint32_t>, kWakeBuckets> key_pending_{};
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> next_launch_id_{1};  // 0 = never launched
  /// One Session (one simulated device context) per worker, owned by the
  /// engine so per-device state — excluded cores, cumulative retry stats —
  /// outlives the worker threads and is inspectable after shutdown.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::thread> workers_;
};

}  // namespace ascan::serve
