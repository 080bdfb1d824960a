// Host execution engine owned by acc::Device: the fiber executor (sub-core
// bodies as fibers on at most one carrier thread per host core), pooled
// KernelContexts / trace-op arenas and reusable scheduler scratch.
//
// The engine holds its own MachineConfig copy so pooled KernelContexts
// (which keep a reference to it) stay valid even when the owning Device is
// moved — Session::exclude_core move-assigns a replacement Device, and the
// engine travels with it by unique_ptr.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ascendc/context.hpp"
#include "sim/executor.hpp"
#include "sim/fault.hpp"
#include "sim/l2_cache.hpp"
#include "sim/report.hpp"
#include "sim/scheduler.hpp"
#include "sim/timeline.hpp"

namespace ascend::acc {

/// Where one sub-core of a launch runs (produced by the planner in
/// runtime.hpp, consumed by the context pool below).
struct SubcorePlan {
  int block_idx;
  SubcoreKind kind;
  int sub_idx;
};

class LaunchEngine {
 public:
  explicit LaunchEngine(const sim::MachineConfig& cfg);
  ~LaunchEngine();
  LaunchEngine(const LaunchEngine&) = delete;
  LaunchEngine& operator=(const LaunchEngine&) = delete;

  const sim::MachineConfig& config() const { return cfg_; }
  /// Helper carrier threads alive (at most hardware_concurrency - 1).
  int helper_threads() const { return executor_.helper_threads(); }

  /// RAII lease over pooled per-sub-core contexts: contexts are taken from
  /// the engine's free lists (or built on first use), reset for the new
  /// launch, and handed back — arenas and trace capacity intact — when the
  /// lease is destroyed.
  class ContextLease {
   public:
    ContextLease() = default;
    ContextLease(ContextLease&& o) noexcept
        : eng_(o.eng_), ctxs_(std::move(o.ctxs_)) {
      o.eng_ = nullptr;
    }
    ContextLease& operator=(ContextLease&&) = delete;
    ContextLease(const ContextLease&) = delete;
    ContextLease& operator=(const ContextLease&) = delete;
    ~ContextLease();

    KernelContext& operator[](std::size_t i) { return *ctxs_[i]; }
    std::size_t size() const { return ctxs_.size(); }

   private:
    friend class LaunchEngine;
    LaunchEngine* eng_ = nullptr;
    std::vector<std::unique_ptr<KernelContext>> ctxs_;
  };

  ContextLease lease_contexts(const std::vector<SubcorePlan>& plan,
                              LaunchShared* shared, int block_dim);

  /// Runs body(s) for every sub-core s of `plan` as a fiber and waits for
  /// all of them. The launch uses C = min(blocks, host cores) carriers —
  /// the calling thread and C-1 helpers — and carrier c runs every
  /// sub-core of the blocks b = c (mod C), so a block's cube->vector flag
  /// handoffs never leave its carrier. Returns false if the launch
  /// deadlocked (see sim::FiberExecutor::run); `poison` then made every
  /// blocked sub-core unwind. `body` must not throw (the launch wrapper
  /// catches per sub-core).
  bool run_subcores(const std::vector<SubcorePlan>& plan,
                    const std::function<void(int)>& body,
                    const std::function<void()>& poison);

  struct TimingRequest {
    sim::Timeline* timeline = nullptr;
    double watchdog_s = 0;
    /// Armed injector of the device, or nullptr for fault-free timing.
    sim::FaultInjector* injector = nullptr;
    sim::L2Cache* l2 = nullptr;
  };

  /// Gathers the lease's recorded traces, produces the launch Report by
  /// discrete-event replay and returns the trace-op arenas to the lease's
  /// builders for reuse. On a FaultError the arenas are recycled before it
  /// propagates.
  sim::Report time_lease(ContextLease& lease, LaunchShared& shared,
                         const TimingRequest& req);

 private:
  KernelContext* acquire(const SubcorePlan& p, LaunchShared* shared,
                         int block_dim, std::uint32_t global_subcore,
                         std::vector<std::unique_ptr<KernelContext>>& out);
  void release(std::vector<std::unique_ptr<KernelContext>>& ctxs) noexcept;
  sim::Report replay(const TimingRequest& req);

  sim::MachineConfig cfg_;
  sim::FiberExecutor executor_;
  std::vector<int> carrier_of_;  ///< per-launch sub-core -> carrier scratch
  sim::SchedScratch scratch_;
  std::vector<std::unique_ptr<KernelContext>> cube_pool_;
  std::vector<std::unique_ptr<KernelContext>> vec_pool_;
  sim::KernelTrace trace_;             ///< reused across launches
  std::vector<std::uint32_t> id_map_;  ///< canonical-id renumber scratch
};

}  // namespace ascend::acc
