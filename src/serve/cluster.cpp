#include "serve/cluster.hpp"

#include <bit>
#include <chrono>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace ascan::serve {

Cluster::Cluster(ClusterOptions opt)
    : opt_(std::move(opt)),
      metrics_(opt_.machine.hbm_bandwidth),
      monitor_(opt_.num_devices >= 1 ? opt_.num_devices : 1, opt_.health) {
  ASCAN_CHECK(opt_.num_devices >= 1, "serve::Cluster: need >= 1 device");
  ASCAN_CHECK(opt_.num_devices <= 64,
              "serve::Cluster: the lock-free placement mask bounds the "
              "fleet at 64 devices");
  ASCAN_CHECK(opt_.device_machines.empty() ||
                  opt_.device_machines.size() ==
                      static_cast<std::size_t>(opt_.num_devices),
              "serve::Cluster: device_machines must match num_devices");
  ASCAN_CHECK(opt_.device_fault_plans.empty() ||
                  opt_.device_fault_plans.size() ==
                      static_cast<std::size_t>(opt_.num_devices),
              "serve::Cluster: device_fault_plans must match num_devices");
  steal_min_backlog_ = opt_.steal_min_backlog
                           ? opt_.steal_min_backlog
                           : std::max<std::size_t>(opt_.policy.max_batch, 1);
  spill_margin_ =
      opt_.spill_margin ? opt_.spill_margin : opt_.policy.max_batch;

  const bool stealing = opt_.work_stealing && opt_.num_devices > 1;
  shards_.reserve(static_cast<std::size_t>(opt_.num_devices));
  for (int i = 0; i < opt_.num_devices; ++i) {
    EngineOptions eo;
    eo.policy = opt_.policy;
    eo.max_queue = opt_.max_queue;
    eo.interactive_reserve = opt_.interactive_reserve;
    eo.num_workers = opt_.workers_per_device;
    eo.machine = opt_.device_machines.empty()
                     ? opt_.machine
                     : opt_.device_machines[static_cast<std::size_t>(i)];
    eo.retry = opt_.retry;
    eo.fault_plan =
        opt_.device_fault_plans.empty()
            ? opt_.fault_plan
            : opt_.device_fault_plans[static_cast<std::size_t>(i)];
    eo.device_id = i;
    if (stealing) {
      eo.steal_poll_s = opt_.steal_poll_s;
      eo.steal_source = [this, i] { return steal_for(i); };
    }
    if (opt_.health.enabled) {
      eo.outcome_sink = [this, i](bool faulted, std::uint32_t retries,
                                  std::uint32_t canaries) {
        on_outcome(i, faulted, retries, canaries);
      };
      eo.failover_sink = [this, i](std::vector<Pending> batch) {
        return failover_from(i, std::move(batch));
      };
    }
    shards_.push_back(std::make_unique<Engine>(std::move(eo)));
  }
  ready_.store(true, std::memory_order_release);
}

Cluster::~Cluster() { shutdown(ShutdownMode::Drain); }

std::future<Response> Cluster::submit(Request req) {
  // Requests turned away here never reach a device shard, so the front
  // end counts their whole lifecycle (submitted + rejected); forwarded
  // requests are counted by the shard that serves them. Merging shards
  // with the front-end snapshot therefore counts every event once.
  const auto reject = [&](void (Metrics::*counter)(), std::string reason) {
    metrics_.on_submitted();
    (metrics_.*counter)();
    std::promise<Response> promise;
    auto fut = promise.get_future();
    promise.set_value(
        immediate_response(req.kind, Status::Rejected, std::move(reason)));
    return fut;
  };

  if (std::string err = Engine::validate(req); !err.empty()) {
    return reject(&Metrics::on_rejected_invalid, "invalid request: " + err);
  }
  if (stopping_.load() || stopped_.load()) {
    return reject(&Metrics::on_rejected_shutdown, "cluster shutting down");
  }

  // Brownout: with too little healthy capacity, bulk work is shed up
  // front so what remains serves the latency-sensitive lane. Interactive
  // requests still pass through the normal admission bound below. One
  // escape hatch: a best-effort bulk request is let through while a
  // Probing device has a free canary slot — canaries are the only way a
  // device is readmitted, and winning one back is exactly what ends the
  // brownout. (Advisory check; if the slot is gone by placement time the
  // request just places normally.)
  if (req.priority == Priority::Bulk && in_brownout() &&
      !(req.deadline_s <= 0 && monitor_.has_canary_slot())) {
    metrics_.on_shed_brownout();
    std::ostringstream os;
    os << "cluster brownout: " << monitor_.placeable_count() << "/"
       << shards_.size() << " devices healthy (need fraction >= "
       << opt_.brownout_min_healthy << "), bulk lane shed";
    return reject(&Metrics::on_rejected_capacity, os.str());
  }

  // Cluster-wide admission over the summed backlog. The sum is a snapshot
  // (devices keep serving while it is taken), so the bound is enforced to
  // within the concurrency of submit() callers — same contract as a real
  // multi-queue front end. The depth snapshot lives on the stack: this
  // path runs for every request, and a heap allocation per submit is
  // exactly the kind of host overhead the lock-free engine path removed
  // (the constructor bounds the fleet at kMaxInlineDevices).
  std::size_t loads[kMaxInlineDevices];
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    loads[i] = shards_[i]->queue_depth();
    total += loads[i];
  }
  const std::size_t cap = req.priority == Priority::Interactive
                              ? opt_.max_queue
                              : opt_.max_queue - opt_.interactive_reserve;
  if (total >= cap) {
    std::ostringstream os;
    os << "cluster queue full (" << total << " pending across "
       << shards_.size() << " devices, limit " << cap << " for "
       << (req.priority == Priority::Interactive ? "interactive" : "bulk")
       << " lane)";
    return reject(&Metrics::on_rejected_capacity, os.str());
  }

  // Per-tenant admission quota, checked last so a quota admission is only
  // recorded for requests that actually reach a device. The quota==0
  // guard keeps Clock::now() and the quota mutex off the hot path when
  // metering is disabled (the default).
  if (opt_.tenant_quota != 0 && !admit_tenant(req.tenant, Clock::now())) {
    std::ostringstream os;
    os << "tenant quota exhausted: \"" << req.tenant << "\" at "
       << opt_.tenant_quota << " admissions in the last "
       << opt_.tenant_quota_window_s << " s";
    return reject(&Metrics::on_rejected_quota, os.str());
  }

  const Placed placed = place(req, {loads, shards_.size()});
  req.canary = placed.canary;
  return shards_[static_cast<std::size_t>(placed.device)]->submit(
      std::move(req));
}

bool Cluster::admit_tenant(const std::string& tenant, Clock::time_point now) {
  if (opt_.tenant_quota == 0) return true;
  std::lock_guard<std::mutex> lk(quota_mu_);
  const auto horizon =
      now - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(opt_.tenant_quota_window_s));
  // Amortized reap of idle tenants: a tenant that stops submitting is
  // never revisited by the per-tenant prune below, so without this sweep
  // the map grows by one entry per distinct tenant id ever seen. Sweeping
  // once every size() admissions keeps the map bounded by the tenants
  // active within the window, at amortized O(1) per admission.
  if (++quota_admits_since_sweep_ > tenant_admits_.size()) {
    quota_admits_since_sweep_ = 0;
    for (auto it = tenant_admits_.begin(); it != tenant_admits_.end();) {
      auto& window = it->second;
      while (!window.empty() && window.front() < horizon) window.pop_front();
      if (window.empty()) {
        it = tenant_admits_.erase(it);
      } else {
        ++it;
      }
    }
  }
  auto& admits = tenant_admits_[tenant];
  while (!admits.empty() && admits.front() < horizon) admits.pop_front();
  if (admits.size() >= opt_.tenant_quota) return false;
  admits.push_back(now);
  return true;
}

Cluster::Placed Cluster::place(const Request& r,
                               std::span<const std::size_t> loads) {
  const int n = static_cast<int>(shards_.size());
  // All-placeable unless health says otherwise; bit i = device i (the
  // constructor bounds the fleet at 64 devices so the mask covers it).
  std::uint64_t mask = n == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << n) - 1;
  // Hot-path gate: one acquire load. In the all-healthy steady state —
  // every capacity benchmark, and any production fleet most of the time —
  // the monitor is not consulted further: no tick(), no canary probes,
  // no locked state snapshot. The summary is recomputed under the
  // monitor's lock on every transition, so a nonzero read here is exactly
  // "some device left Healthy since".
  const std::uint32_t sick =
      opt_.health.enabled ? monitor_.summary() : 0;
  if (sick != 0) {
    // Time-driven promotions first (Quarantined -> Probing after the
    // hold); the submit path is the cluster's clock.
    std::vector<HealthTransition> promoted;
    monitor_.tick(&promoted);
    for (std::size_t k = 0; k < promoted.size(); ++k) {
      metrics_.on_health_transition();
    }
    // Half-open readmission: a Probing device's canary budget admits a
    // bounded trickle of real traffic ahead of normal placement — but
    // only best-effort bulk traffic. A suspect device must not be probed
    // with deadline-bearing or interactive requests: those are exactly
    // the SLOs the tiers protect, and a canary that faults burns its
    // whole retry budget. (No kAnyProbing pre-check here: the tick()
    // above may just have promoted a device, and try_admit_canary has
    // its own lock-free gate.)
    if (r.priority == Priority::Bulk && r.deadline_s <= 0) {
      for (int i = 0; i < n; ++i) {
        if (monitor_.try_admit_canary(i)) {
          metrics_.on_canary_probe();
          metrics_.on_routed_spill();
          return {i, true};
        }
      }
    }
    // One consistent snapshot of the placeable set. Worker-thread
    // on_outcome() transitions race this path, so the set and its count
    // must come from a single monitor read: separate placeable_count() /
    // placeable(i) queries could observe a set that was never
    // simultaneously true — e.g. a nonzero count whose last member is
    // quarantined before the per-device loop runs, leaving no candidate
    // at all. The atomic mask is published whole under the monitor's
    // lock, so one load is exactly such a snapshot.
    mask = monitor_.placeable_mask();
    if (n < 64) mask &= (std::uint64_t{1} << n) - 1;
  }
  const auto placeable_at = [mask](int i) { return ((mask >> i) & 1u) != 0; };
  const std::size_t placeable = static_cast<std::size_t>(std::popcount(mask));

  const int target =
      static_cast<int>(group_key_hash(group_key(r)) %
                       static_cast<std::uint64_t>(n));

  // Health-aware placement: least-loaded among the placeable devices;
  // affinity kept only when its device is placeable and within margin.
  // Skipped when every device is placeable (the common case — identical
  // to the pre-health placement) or none is; under one snapshot
  // 0 < placeable < n guarantees the loop finds a candidate, and if it
  // ever did not, falling through to the health-ignoring path below keeps
  // the invariant that placement never bricks the cluster.
  if (placeable > 0 && placeable < static_cast<std::size_t>(n)) {
    int least = -1;
    for (int i = 0; i < n; ++i) {
      if (!placeable_at(i)) continue;
      if (least < 0 || loads[static_cast<std::size_t>(i)] <
                           loads[static_cast<std::size_t>(least)]) {
        least = i;
      }
    }
    if (least >= 0) {
      if (placeable_at(target) &&
          loads[static_cast<std::size_t>(target)] <=
              loads[static_cast<std::size_t>(least)] + spill_margin_) {
        metrics_.on_routed_affinity();
        return {target, false};
      }
      metrics_.on_routed_spill();
      return {least, false};
    }
  }

  // Every device placeable, or none (health is advisory, never brick the
  // cluster: fall back to ignoring it).
  int least = 0;
  for (int i = 1; i < n; ++i) {
    if (loads[static_cast<std::size_t>(i)] <
        loads[static_cast<std::size_t>(least)]) {
      least = i;
    }
  }
  // Keep GroupKey locality (batch coalescing) unless the affinity device
  // has fallen spill_margin requests behind the least loaded one.
  if (loads[static_cast<std::size_t>(target)] >
      loads[static_cast<std::size_t>(least)] + spill_margin_) {
    metrics_.on_routed_spill();
    return {least, false};
  }
  metrics_.on_routed_affinity();
  return {target, false};
}

std::vector<Pending> Cluster::steal_for(int thief) {
  if (!ready_.load(std::memory_order_acquire)) return {};
  // A sick thief must not pull sibling work onto itself, and a sick
  // victim's queue is the quarantine drain's business, not a thief's.
  if (opt_.health.enabled && !monitor_.placeable(thief)) return {};
  // Victim: the sibling with the deepest bulk backlog at or above the
  // steal threshold. Depths are read unlocked relative to each other; the
  // steal itself re-checks under the victim's lock.
  int victim = -1;
  std::size_t deepest = 0;
  for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
    if (i == thief) continue;
    if (opt_.health.enabled && !monitor_.placeable(i)) continue;
    const std::size_t backlog =
        shards_[static_cast<std::size_t>(i)]->bulk_backlog();
    if (backlog >= steal_min_backlog_ && backlog > deepest) {
      deepest = backlog;
      victim = i;
    }
  }
  if (victim < 0) return {};
  return shards_[static_cast<std::size_t>(victim)]->steal_bulk_batch(
      steal_min_backlog_);
}

void Cluster::on_outcome(int device, bool faulted, std::uint32_t retries,
                         std::uint32_t canaries) {
  if (!ready_.load(std::memory_order_acquire)) return;
  const auto t = monitor_.record(device, faulted, retries, canaries);
  if (!t) return;
  metrics_.on_health_transition();
  if (t->to == HealthState::Quarantined) drain_quarantined(device);
}

int Cluster::pick_target(int avoid) const {
  int best = -1;
  std::size_t best_load = 0;
  for (int i = 0; i < static_cast<int>(shards_.size()); ++i) {
    if (i == avoid || !monitor_.placeable(i)) continue;
    const std::size_t load =
        shards_[static_cast<std::size_t>(i)]->queue_depth();
    if (best < 0 || load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

std::vector<Pending> Cluster::failover_from(int device,
                                            std::vector<Pending> batch) {
  if (!ready_.load(std::memory_order_acquire)) return batch;
  // A healthy device's batch fault is an ordinary poisoned-request event;
  // the local isolation fallback handles it. Failover engages once the
  // outcome feed (which runs before this sink) has degraded the device.
  if (monitor_.state(device) == HealthState::Healthy) return batch;
  std::vector<Pending> leftovers;
  for (auto& p : batch) {
    const bool from_checkpoint = p.resume.active && p.resume.off > 0;
    const int target = pick_target(device);
    if (target >= 0 &&
        shards_[static_cast<std::size_t>(target)]->inject(p)) {
      metrics_.on_failover();
      if (from_checkpoint) metrics_.on_tiles_resumed();
    } else {
      leftovers.push_back(std::move(p));
    }
  }
  return leftovers;
}

void Cluster::drain_quarantined(int device) {
  auto drained =
      shards_[static_cast<std::size_t>(device)]->drain_queue();
  for (auto& p : drained) {
    // A preemption-parked batch waiting in the dying device's queue rides
    // the same drain: its tile checkpoints cross to the sibling and the
    // resumed rows stay bit-exact (counted with the mid-launch failovers).
    const bool from_checkpoint = p.resume.active && p.resume.off > 0;
    const int target = pick_target(device);
    if (target >= 0 &&
        shards_[static_cast<std::size_t>(target)]->inject(p)) {
      metrics_.on_failover();
      if (from_checkpoint) metrics_.on_tiles_resumed();
      continue;
    }
    // No placeable sibling can take it. Hand it back to the source (its
    // own queue still executes under Drain semantics, and a cancelling
    // shutdown resolves it as Cancelled); if even that fails — the source
    // is stopping — resolve it here so the future never dangles.
    if (shards_[static_cast<std::size_t>(device)]->inject(p)) continue;
    Timing t;
    t.total_s =
        std::chrono::duration<double>(Clock::now() - p.enqueued).count();
    metrics_.on_failed(t);
    p.promise.set_value(immediate_response(
        p.req.kind, Status::Failed,
        "device quarantined and no healthy sibling available"));
  }
}

bool Cluster::in_brownout() const {
  if (!opt_.health.enabled || opt_.brownout_min_healthy <= 0) return false;
  return static_cast<double>(monitor_.placeable_count()) <
         opt_.brownout_min_healthy * static_cast<double>(shards_.size());
}

void Cluster::shutdown(ShutdownMode mode) {
  std::lock_guard<std::mutex> lk(shutdown_mu_);
  if (stopped_.load()) return;
  stopping_.store(true);
  // Phase 1: signal every device before joining any, so devices drain (and
  // drain-steal from each other) concurrently.
  for (auto& s : shards_) s->begin_shutdown(mode);
  for (auto& s : shards_) s->finish_shutdown();
  stopped_.store(true);
}

std::size_t Cluster::queue_depth() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->queue_depth();
  return total;
}

std::vector<MetricsSnapshot> Cluster::per_device_metrics() const {
  std::vector<MetricsSnapshot> parts;
  parts.reserve(shards_.size());
  for (const auto& s : shards_) parts.push_back(s->metrics());
  return parts;
}

MetricsSnapshot Cluster::metrics() const {
  std::vector<MetricsSnapshot> parts = per_device_metrics();
  parts.push_back(metrics_.snapshot());
  return MetricsSnapshot::merged(parts, opt_.machine.hbm_bandwidth);
}

std::string Cluster::metrics_json() const {
  std::ostringstream os;
  os << "{\n\"merged\": " << metrics().json() << ",\n\"health\": [";
  const auto states = monitor_.states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    os << (i ? "," : "") << '"' << health_state_name(states[i]) << '"';
  }
  os << "],\n\"devices\": [";
  const auto parts = per_device_metrics();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    os << (i ? ",\n" : "\n") << parts[i].json();
  }
  os << "\n]\n}";
  return os.str();
}

}  // namespace ascan::serve
