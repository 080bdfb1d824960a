// serve — multi-device cluster front end.
//
// One submit() surface fronting N simulated 910B4 devices, each a full
// serve::Engine (own Session(s), host executor, fault plan and metrics
// shard). The cluster adds the two scheduling layers a single device
// cannot provide:
//
//  * Locality-aware placement — requests hash by their coalescing GroupKey
//    (FNV-1a, deterministic across runs and platforms) to an affinity
//    device, so same-shape traffic lands on one device's batch former and
//    coalesces there. When the affinity target is overloaded (queue
//    deeper than the least-loaded device by more than spill_margin), the
//    request spills to the least-loaded device instead;
//    both outcomes are counted (routed_affinity / routed_spill).
//
//  * Cross-device work stealing — an idle device polls its siblings and
//    takes one whole formed bulk batch from the deepest bulk backlog at or
//    above steal_min_backlog. Interactive requests are never stolen: they
//    stay on the device that admitted them, mid-deadline. Stealing also
//    runs during a drain shutdown, so the cluster drains at the speed of
//    its busiest device rather than serially.
//
// Streaming rides through placement unchanged: a Request's on_chunk
// callback travels inside its Pending to whichever device serves it, so a
// placed (affinity or spilled) request streams from that device exactly as
// on a standalone Engine. The one exception is a *stolen* batch — the
// thief executes it as an indivisible throughput unit with streaming and
// continuation admission disabled (Engine::GroupExec::Stolen). Rationale:
// only bulk-lane work is stealable, where per-tile latency is worthless by
// definition, and a thief grafting its own queue onto (or streaming from)
// a batch it merely helps drain would entangle two devices' admission
// bookkeeping for zero latency win. The future still resolves the full
// payload; only the incremental delivery is skipped.
//
// Fault domains (see serve/health.hpp and DESIGN.md "Fault domains &
// health model"): every device carries a health state machine fed by its
// launch outcomes. A Quarantined device is removed from the placement,
// spill and steal sets; its queued work drains to healthy shards and its
// faulted in-flight batches fail over — each unresolved member carries a
// tile-granular checkpoint (Pending::resume) so the new device continues
// the scan from the last completed tile's carry instead of recomputing.
// Readmission is half-open: after a hold the device turns Probing and
// receives a bounded trickle of canary requests; clean canaries readmit
// it, a faulting one re-quarantines it. When the placeable fraction drops
// below brownout_min_healthy the cluster browns out: bulk work is shed
// with a typed rejection while the interactive lane keeps its reserve.
//
// Cluster-wide invariants (tests/test_cluster.cpp):
//  * Every submitted future resolves exactly once — including across
//    shutdown, rejection, spill and steal paths. Never a dangling future,
//    even with a fault plan armed on some devices.
//  * Results are bit-exact with a single-device Engine serving the same
//    stream (integer-valued workloads; see engine.hpp on fp rounding).
//  * shutdown() is two-phase and device-parallel: every device is
//    signalled before any is joined.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/health.hpp"

namespace ascan::serve {

struct ClusterOptions {
  BatchPolicy policy;
  int num_devices = 4;
  int workers_per_device = 1;
  /// Cluster-wide admission bound over the summed queue depth of every
  /// device, with the same interactive-only reserve semantics as
  /// EngineOptions (the per-device engines are configured with the same
  /// bound, so the cluster-level check is the one that binds).
  std::size_t max_queue = 256;
  std::size_t interactive_reserve = 16;
  /// Device configuration applied to every device...
  MachineConfig machine = MachineConfig::ascend_910b4();
  /// ...unless this per-device override is non-empty (size must equal
  /// num_devices). Heterogeneous clusters — skewed core counts — are how
  /// the skew tests provoke imbalance.
  std::vector<MachineConfig> device_machines{};
  RetryPolicy retry{};
  /// Fault plan armed on every device when any()...
  FaultPlan fault_plan{};
  /// ...unless this per-device override is non-empty (size must equal
  /// num_devices; entries with !any() leave that device clean). Chaos
  /// tests arm a single bad device this way.
  std::vector<FaultPlan> device_fault_plans{};

  bool work_stealing = true;
  /// Minimum bulk backlog a victim must hold before a batch may be stolen
  /// from it (0 -> policy.max_batch: never steal below one full batch).
  std::size_t steal_min_backlog = 0;
  double steal_poll_s = 100e-6;  ///< idle-device steal poll cadence
  /// Affinity placement tolerates the target being this many requests
  /// deeper than the least-loaded device before spilling
  /// (0 -> policy.max_batch: keep locality until a full batch of slack).
  std::size_t spill_margin = 0;

  /// Per-device health state machine (see serve/health.hpp). Quarantined
  /// devices leave the placement, spill and steal sets; their queued work
  /// drains to healthy shards and their faulted in-flight batches fail
  /// over with tile-checkpoint resume.
  HealthPolicy health{};
  /// Brownout: when the placeable (Healthy + Degraded) fraction of the
  /// cluster drops below this, bulk submissions are shed with a typed
  /// rejection ("brownout" in the reason) so the surviving devices keep
  /// serving the interactive lane. 0 disables shedding.
  double brownout_min_healthy = 0.5;

  /// Per-tenant admission quota: the most requests one tenant
  /// (Request::tenant; "" is the shared default bucket) may have admitted
  /// within the trailing tenant_quota_window_s window. Submissions past
  /// the quota are rejected with a typed "tenant quota exhausted" reason
  /// (metrics: rejected_quota) before any device sees them, so a noisy
  /// tenant cannot crowd the shared queue. 0 disables metering.
  std::size_t tenant_quota = 0;
  double tenant_quota_window_s = 1.0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opt = {});
  ~Cluster();  ///< drains (ShutdownMode::Drain) if still running

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Thread-safe. Validates, admits against the cluster-wide bound,
  /// places (affinity hash with least-loaded spill) and forwards.
  std::future<Response> submit(Request req);

  /// Device-parallel two-phase shutdown: signals every device, then joins
  /// them. Idempotent. After return every future ever handed out is
  /// resolved.
  void shutdown(ShutdownMode mode);

  bool stopped() const { return stopped_.load(); }
  int num_devices() const { return static_cast<int>(shards_.size()); }
  /// Summed queue depth over every device.
  std::size_t queue_depth() const;

  /// Direct access to one device's engine (tests, bench, demo tooling).
  Engine& device(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const Engine& device(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }

  /// Current health state of one device / of every device in order.
  HealthState device_health(int i) const { return monitor_.state(i); }
  std::vector<HealthState> health_states() const { return monitor_.states(); }
  /// Whether the cluster is currently shedding bulk work (placeable
  /// fraction below brownout_min_healthy).
  bool in_brownout() const;

  /// One metrics shard per device, in device order.
  std::vector<MetricsSnapshot> per_device_metrics() const;
  /// Every device shard plus the cluster front end's own counters
  /// (cluster-level rejections, routing decisions) merged into one view.
  MetricsSnapshot metrics() const;
  /// {"merged": {...}, "devices": [{...}, ...]} — per-shard and merged
  /// snapshots in one stable JSON document.
  std::string metrics_json() const;

 private:
  /// Placement decision: the target device, and whether the request was
  /// admitted through a Probing device's half-open canary slot (the
  /// caller stamps Request::canary so the serving launch's outcome is
  /// recognised as a canary verdict).
  struct Placed {
    int device = 0;
    bool canary = false;
  };
  /// Affinity target for `r` given the observed per-device loads, falling
  /// back to the least-loaded device past spill_margin. Bumps the routing
  /// counters.
  Placed place(const Request& r, std::span<const std::size_t> loads);

  /// Submit-path depth snapshots live on the stack up to this many
  /// devices (the constructor bounds the fleet at 64 anyway, matching
  /// the health monitor's lock-free placeable mask).
  static constexpr std::size_t kMaxInlineDevices = 64;
  /// Steal callback installed on device `thief`: one formed bulk batch
  /// from the sibling with the deepest qualifying bulk backlog.
  std::vector<Pending> steal_for(int thief);

  /// Engine outcome_sink target: feeds the health monitor and acts on the
  /// transition (quarantine -> drain the device's queue to siblings).
  void on_outcome(int device, bool faulted, std::uint32_t retries,
                  std::uint32_t canaries);
  /// Engine failover_sink target: re-dispatches a faulted batch's
  /// unresolved members (tile checkpoints riding along) to healthy
  /// siblings; returns the members no sibling could take.
  std::vector<Pending> failover_from(int device, std::vector<Pending> batch);
  /// Quarantine drain: moves the device's queued requests to siblings.
  void drain_quarantined(int device);
  /// Least-loaded placeable device other than `avoid`; -1 when none.
  int pick_target(int avoid) const;
  /// Per-tenant sliding-window admission meter: records the admission and
  /// returns true, or returns false when `tenant` is at quota. Always
  /// true when tenant_quota is 0.
  bool admit_tenant(const std::string& tenant, Clock::time_point now);

  ClusterOptions opt_;
  std::size_t steal_min_backlog_ = 0;
  std::size_t spill_margin_ = 0;
  /// Front-end counters only — events the device shards never see
  /// (cluster-level rejections, routing decisions, health transitions,
  /// failovers) — so merging the shards with this snapshot never double
  /// counts.
  Metrics metrics_;
  HealthMonitor monitor_;
  /// Engines install their steal_source before shards_ is fully built;
  /// the callback no-ops until construction completes.
  std::atomic<bool> ready_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::mutex shutdown_mu_;  ///< serialises shutdown callers
  std::mutex quota_mu_;     ///< guards tenant_admits_ and the sweep count
  /// Admission timestamps per tenant within the trailing quota window.
  /// Idle tenants' entries are reaped by an amortized sweep in
  /// admit_tenant(), so the map stays bounded by the tenants active
  /// within the window rather than every tenant id ever seen.
  std::map<std::string, std::deque<Clock::time_point>> tenant_admits_;
  std::size_t quota_admits_since_sweep_ = 0;
  std::vector<std::unique_ptr<Engine>> shards_;
};

}  // namespace ascan::serve
