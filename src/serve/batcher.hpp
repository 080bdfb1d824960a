// serve — dynamic batch former.
//
// Two priority lanes of admitted requests; pop_batch() extracts the next
// coalescible group: up to `max_batch` requests sharing a GroupKey, taken
// interactive-lane first (with an aging escape so bulk work is never
// starved outright). Grouping rules:
//
//   Cumsum          (tile, schedule) — row lengths may differ; the engine
//                   zero-pads rows to the longest and serves the group with
//                   one cumsum_batched launch (trailing zeros cannot change
//                   any prefix, so per-row results are unaffected).
//   SegmentedCumsum one group — requests concatenate into a single flagged
//                   stream (each request's first element is a forced
//                   segment start) and serve as one segmented_cumsum.
//   TopP            (vocab, p, tile) — rows concatenate into one
//                   top_p_sample_batch launch, one variate per row.
//   Sort            never coalesced (no batched sort kernel yet; see
//                   ROADMAP open items) — always a singleton group.
//
// The Batcher is not internally synchronised: the Engine calls every
// method under its queue mutex.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <future>
#include <set>
#include <unordered_map>
#include <vector>

#include "serve/request.hpp"

namespace ascan::serve {

using Clock = std::chrono::steady_clock;

/// Tile-granular checkpoint of a request whose batched stepwise launch
/// faulted mid-flight: everything needed to resume the row from its last
/// completed tile on another device instead of recomputing from zero. The
/// failing engine stashes it (Engine::execute_batch fault path), the
/// cluster re-dispatches the Pending, and whichever engine runs it next
/// seeds its StreamSlot from the checkpoint — the host-side carry makes
/// the resumed scan bit-exact with an unfaulted run for integer-valued
/// data (on general fp16 data the same multi-ulp carry reassociation as
/// stepping itself; see ROADMAP item 11).
struct ResumeState {
  bool active = false;
  int from_device = -1;  ///< device the checkpoint came from
  /// Checkpoint provenance: parked by tile-boundary preemption (an
  /// interactive deadline pre-empted the bulk launch) rather than stashed
  /// by a fault. Distinguishes the preempted_tiles_resumed counter from
  /// the failover tiles_resumed one.
  bool preempted = false;
  /// Parks this request has accumulated so far (threaded back into
  /// Response::preemptions when the resumed run completes).
  std::uint32_t preemptions = 0;
  /// Failover provenance already earned before this stash (the response's
  /// resumed_from at park/fault time). A later same-device park/resume
  /// must not erase an earlier cross-device failover from the response.
  int resumed_from = -1;
  std::size_t off = 0;   ///< elements already produced
  half carry{0.0f};      ///< Cumsum running prefix at `off`
  float fcarry = 0;      ///< SegmentedCumsum running prefix at `off`
  std::vector<half> prefix_f16;   ///< payload produced before the fault
  std::vector<float> prefix_f32;  ///< (moved back into the resumed slot)
  std::size_t chunks_streamed = 0;
  double first_chunk_s = 0;
  /// Original batch timestamps, so the resumed response's latency
  /// decomposition spans the failover instead of restarting the clock.
  Clock::time_point picked{};
  Clock::time_point exec_begin{};
};

/// An admitted request waiting in (or popped from) the queue.
struct Pending {
  Request req;
  std::promise<Response> promise;
  Clock::time_point enqueued{};
  /// Absolute deadline (enqueued + Request::deadline_s); time_point::max()
  /// for best-effort requests. EDF sort key within a lane.
  Clock::time_point deadline = Clock::time_point::max();
  std::uint64_t seq = 0;  ///< admission order (FIFO tie-break)
  ResumeState resume;     ///< failover/preemption checkpoint
};

/// Coalescing key: requests batch together iff their keys compare equal.
struct GroupKey {
  OpKind kind = OpKind::Cumsum;
  std::size_t tile = 0;
  bool ul1 = false;
  std::size_t vocab = 0;  ///< TopP row length (rows must agree)
  double p = 0;           ///< TopP nucleus mass (scalar per launch)

  bool operator==(const GroupKey&) const = default;
};

GroupKey group_key(const Request& r);

/// Deterministic (cross-run, cross-platform) FNV-1a hash of a GroupKey.
/// The cluster's affinity placement keys on it, so it must not depend on
/// std::hash seeding or pointer values.
std::uint64_t group_key_hash(const GroupKey& k);

/// Whether requests of this kind may share a launch at all.
constexpr bool coalescible(OpKind k) { return k != OpKind::Sort; }

/// Tuning knobs of the batch former.
struct BatchPolicy {
  std::size_t max_batch = 16;  ///< requests per serving launch
  double max_wait_s = 500e-6;  ///< deadline from the oldest queued request
  /// A bulk request older than aging_factor * max_wait_s is served ahead
  /// of newer interactive work (starvation guard).
  double aging_factor = 8.0;
  /// Continuous batching: between the steps of an in-flight stepwise
  /// launch, the worker admits compatible newly-arrived requests into the
  /// launch's free rows (iteration-level scheduling). Off = requests only
  /// join at batch-formation boundaries.
  bool continuous = true;
  /// Tile-boundary preemption: at each step boundary of an all-bulk scan
  /// launch (Cumsum / SegmentedCumsum), if a queued interactive request's
  /// deadline falls inside the preemption horizon the launch parks — every
  /// unfinished row becomes a host-side tile checkpoint (Pending::resume)
  /// re-queued for a bit-exact resume — so the interactive batch runs
  /// next instead of waiting out the bulk tail. A launch whose oldest
  /// unfinished row has itself aged past the starvation guard is never
  /// preempted (aging outranks preemption, exactly as it outranks lane
  /// priority in head()).
  bool preemption = true;
  /// Preemption horizon in seconds: park when an interactive deadline is
  /// closer than this to now. 0 = adaptive — use the wall duration of the
  /// launch's previous step (one more step would risk the deadline).
  double preempt_slack_s = 0;
};

class Batcher {
 public:
  /// Inserts in EDF position within the request's lane: ordered by
  /// (deadline, seq). Best-effort requests (deadline = max()) therefore
  /// stay FIFO among themselves and behind every deadline-bearing
  /// request; equal deadlines tie-break FIFO by admission seq — stable
  /// and deterministic across runs.
  void push(Pending p);

  bool empty() const { return hi_.empty() && lo_.empty(); }
  std::size_t size() const { return hi_.size() + lo_.size(); }
  std::size_t bulk_size() const { return lo_.size(); }

  /// Enqueue time of the request the next pop would lead with.
  Clock::time_point head_enqueued(const BatchPolicy& policy,
                                  Clock::time_point now) const;

  /// True when the next pop can already fill a whole batch (no reason for
  /// the worker to keep waiting for the deadline).
  bool full_batch_ready(const BatchPolicy& policy,
                        Clock::time_point now) const;

  /// Removes and returns the next batch: the head request (priority +
  /// aging order) plus every queued request with the same GroupKey, in
  /// lane order (EDF; FIFO among equal deadlines), up to max_batch.
  /// Never empty when size() > 0.
  std::vector<Pending> pop_batch(const BatchPolicy& policy,
                                 Clock::time_point now);

  /// Continuous-batching admission: removes and returns up to `max_n`
  /// queued requests whose GroupKey equals `key`, in lane order
  /// (interactive lane first, EDF within it), for joining an in-flight
  /// stepwise launch mid-stream. Returns
  /// empty when any *non-matching* queued request has aged past the
  /// starvation guard (aging_factor * max_wait_s): continuation admission
  /// must not keep extending a launch while incompatible work starves
  /// behind it.
  std::vector<Pending> pop_matching(const GroupKey& key, std::size_t max_n,
                                    const BatchPolicy& policy,
                                    Clock::time_point now);

  /// Removes and returns one whole formed batch for a work-stealing peer:
  /// the oldest bulk-lane request's group, FIFO, up to max_batch — taken
  /// from the bulk lane only. Interactive requests are never stolen (they
  /// stay on their admitted device, mid-deadline). Returns empty unless the
  /// bulk backlog holds at least `min_backlog` requests.
  std::vector<Pending> steal_bulk(const BatchPolicy& policy,
                                  std::size_t min_backlog);

  /// Earliest absolute deadline over both lanes; time_point::max() when
  /// no queued request carries one. O(1): lanes are EDF-sorted.
  Clock::time_point earliest_deadline() const;

  /// Earliest deadline among queued *interactive* requests — the signal
  /// the engine's tile-boundary preemption check watches. When
  /// `exclude_key` is non-null, requests whose GroupKey equals it are
  /// skipped: they can join the in-flight launch through continuation
  /// admission instead of preempting it.
  Clock::time_point earliest_interactive_deadline(
      const GroupKey* exclude_key) const;

 private:
  const Pending* head(const BatchPolicy& policy, Clock::time_point now) const;
  /// Longest wait among queued bulk requests (the aging-guard signal; the
  /// EDF lane order means the front is not necessarily the oldest, so the
  /// minimum enqueue time is tracked in lo_enq_ — O(1) here, O(log n) on
  /// each bulk-lane insert/erase. head() evaluates this on every pop
  /// predicate wake, so it must not rescan the lane).
  double oldest_bulk_wait_s(Clock::time_point now) const;
  /// Bookkeeping when a request enters a lane (enqueue-time multisets and
  /// per-key counts).
  void note_inserted(const std::deque<Pending>* lane, const Pending& p);
  /// Bookkeeping when a request leaves a lane (pop, match, steal).
  void note_erased(const std::deque<Pending>* lane, const Pending& p);
  /// Oldest enqueue time across both lanes; time_point::max() when empty.
  Clock::time_point oldest_enqueued() const;

  std::deque<Pending> hi_;  ///< Priority::Interactive
  std::deque<Pending> lo_;  ///< Priority::Bulk
  /// Multiset of lo_'s enqueue times; *begin() is the oldest bulk wait.
  std::multiset<Clock::time_point> lo_enq_;
  /// Same for hi_ — gives pop_matching's starvation guard an O(1) negative
  /// fast path (nothing anywhere has aged => nothing non-matching has).
  std::multiset<Clock::time_point> hi_enq_;
  /// Queued-request count per group_key_hash, so full_batch_ready is O(1)
  /// instead of rescanning both lanes on every pop-predicate wake. A hash
  /// collision can only over-count, closing a batch window early — a
  /// benign scheduling nudge, never a correctness issue (pop_batch still
  /// matches on the full key).
  std::unordered_map<std::uint64_t, std::size_t> key_counts_;
};

}  // namespace ascan::serve
