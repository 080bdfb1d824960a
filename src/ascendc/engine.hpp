// Host execution engine owned by acc::Device: the fiber executor (sub-core
// bodies as fibers on the calling thread, joined by helper carriers only
// for launches that run long), per-shape sub-core plans, the pooled
// launch state, KernelContexts and trace-op arenas, and reusable scheduler
// scratch. A warmed launch allocates nothing.
//
// The engine holds its own MachineConfig copy so pooled KernelContexts
// (which keep a reference to it) stay valid even when the owning Device is
// moved — Session::exclude_core move-assigns a replacement Device, and the
// engine travels with it by unique_ptr.
#pragma once

#include <cstdint>
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

enum class LaunchMode { Mix, VectorOnly, CubeOnly };

/// Where one sub-core of a launch runs (produced by LaunchEngine::plan,
/// consumed by the context pool below). Sub-cores are numbered block by
/// block, each block's sub-cores consecutive.
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

  /// The sub-cores of a `block_dim`-block launch in `mode`. Built on first
  /// use of each (mode, block_dim) and kept for the engine's life. Throws
  /// if the machine has fewer cores of the mode's kind than `block_dim`.
  const std::vector<SubcorePlan>& plan(LaunchMode mode, int block_dim);

  /// Starts a launch of `plan`: re-arms the shared launch state and binds
  /// one pooled KernelContext per sub-core (built on first use, reset
  /// afterwards — arenas and trace capacity intact). The contexts stay
  /// bound until the next prepare().
  void prepare(const std::vector<SubcorePlan>& plan, int block_dim);
  KernelContext& context(std::size_t subcore) { return *ctxs_[subcore]; }
  LaunchShared& shared() { return shared_; }

  /// Runs body(s) for every sub-core s of `plan` as a fiber and waits for
  /// all of them. The calling thread claims whole blocks in block order
  /// and runs them, so a block's cube->vector flag handoffs never leave
  /// its claimer; helpers join only a launch that runs past
  /// sim::FiberExecutor::kHelperBudget with blocks unclaimed. Returns
  /// false if the launch deadlocked (see sim::FiberExecutor::run);
  /// `poison` then made every blocked sub-core unwind. `body` must not
  /// throw (the launch wrapper catches per sub-core).
  bool run_subcores(const std::vector<SubcorePlan>& plan,
                    sim::FnRef<void(int)> body, sim::FnRef<void()> poison);

  struct TimingRequest {
    sim::Timeline* timeline = nullptr;
    double watchdog_s = 0;
    /// Armed injector of the device, or nullptr for fault-free timing.
    sim::FaultInjector* injector = nullptr;
    sim::L2Cache* l2 = nullptr;
  };

  /// Gathers the bound contexts' recorded traces, produces the launch
  /// Report by discrete-event replay and returns the trace-op arenas to
  /// the contexts' builders for reuse. On a FaultError the arenas are
  /// recycled before it propagates.
  sim::Report time_launch(const TimingRequest& req);

 private:
  sim::Report replay(const TimingRequest& req);

  sim::MachineConfig cfg_;
  sim::FiberExecutor executor_;
  /// plans_[mode][block_dim], empty until first used.
  std::vector<std::vector<SubcorePlan>> plans_[3];
  LaunchShared shared_;
  sim::SchedScratch scratch_;
  /// Pooled contexts by kind; a launch binds the first ones it needs.
  std::vector<std::unique_ptr<KernelContext>> cube_pool_;
  std::vector<std::unique_ptr<KernelContext>> vec_pool_;
  std::vector<KernelContext*> ctxs_;   ///< this launch's, by sub-core
  sim::KernelTrace trace_;             ///< reused across launches
  std::vector<std::uint32_t> id_map_;  ///< canonical-id renumber scratch
};

}  // namespace ascend::acc
