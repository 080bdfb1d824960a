// Kernel launcher: runs a kernel body once per logical sub-core (each as a
// fiber, on at most one carrier thread per host core), merges the
// recorded traces, and feeds them to the discrete-event scheduler to
// obtain the simulated execution report.
//
// Launch modes mirror how AscendC kernels occupy the 910B:
//  * Mix:        block = one AI core (1 AIC + vec_per_core AIVs). The body
//                runs on every sub-core; branch on ctx.is_cube() /
//                ctx.GetSubBlockIdx() like an AscendC MIX kernel.
//  * VectorOnly: block = one AIV core (up to 2x the AI-core count).
//  * CubeOnly:   block = one AIC core.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <exception>
#include <mutex>
#include <string>
#include <vector>

#include "ascendc/context.hpp"
#include "ascendc/device.hpp"
#include "ascendc/engine.hpp"
#include "sim/report.hpp"
#include "sim/scheduler.hpp"

namespace ascend::acc {

/// Type-erased span of a GM output buffer registered with a launch so a
/// faulted attempt can be rolled back (see LaunchSpec::outputs).
struct GmGuard {
  std::byte* data = nullptr;
  std::size_t bytes = 0;
};

template <typename T>
GmGuard guard_output(GlobalTensor<T> t) {
  return {reinterpret_cast<std::byte*>(t.data()), t.size() * sizeof(T)};
}

struct LaunchSpec {
  int block_dim = 1;
  LaunchMode mode = LaunchMode::Mix;
  const char* name = "kernel";
  /// When set, the scheduler records every op's interval for inspection /
  /// chrome-trace export (see sim/trace_export.hpp).
  sim::Timeline* timeline = nullptr;
  /// Simulated-time watchdog deadline for this launch (0 = device default,
  /// which is disabled unless cfg.watchdog_s is set). A hang or
  /// pathological straggler aborts with sim::TimeoutError at the deadline.
  double watchdog_s = 0;
  /// GM output buffers of the kernel (at most two; unused entries stay
  /// null). When the device has an armed fault injector they are
  /// snapshotted before the launch and restored if the launch aborts on a
  /// fault, making launches idempotent-relaunchable: a failed attempt never
  /// leaves partial writes visible. Held inline so a launch allocates
  /// nothing for them.
  std::array<GmGuard, 2> outputs = {};
};

/// Launches `body(ctx)` per sub-core and returns the simulated report.
/// Functional effects on GM buffers happen eagerly; the report's time is
/// what the 910B would take.
///
/// Host execution runs on the device's LaunchEngine: sub-core bodies run as
/// fibers on the calling thread, joined by the device's helper carriers
/// only when the launch runs long, and kernel contexts, trace arenas and
/// fiber stacks are reused across launches; a warmed launch allocates
/// nothing. Reports, traces and GM effects do not depend on how the
/// fibers interleave. A launch whose sub-cores all block on barriers or
/// flags that no sibling will release throws an Error naming it.
template <typename F>
sim::Report launch(Device& dev, const LaunchSpec& spec, F&& body) {
  LaunchEngine& eng = dev.engine();
  const std::vector<SubcorePlan>& plan = eng.plan(spec.mode, spec.block_dim);
  const int n = static_cast<int>(plan.size());

  // Fault-aware launches snapshot their registered outputs up front: the
  // functional pass writes GM eagerly, so rolling back on an abort is what
  // keeps a failed attempt invisible (and the relaunch idempotent).
  sim::FaultInjector* injector = dev.fault_injector().get();
  const bool fault_armed = injector != nullptr && injector->armed();
  std::vector<std::vector<std::byte>> output_snapshots;
  if (fault_armed) {
    for (const GmGuard& g : spec.outputs) {
      output_snapshots.emplace_back(g.data, g.data + g.bytes);
    }
  }

  eng.prepare(plan, spec.block_dim);
  LaunchShared& shared = eng.shared();
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto run_subcore = [&](int s) {
    try {
      body(eng.context(static_cast<std::size_t>(s)));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      shared.poison();
    }
  };
  const auto poison = [&] { shared.poison(); };
  if (!eng.run_subcores(plan, run_subcore, poison)) {
    throw Error(std::string("launch '") + spec.name +
                "' deadlocked: every sub-core still running is blocked on a "
                "SyncAll or cross-core flag that no sibling will release");
  }
  if (first_error) std::rethrow_exception(first_error);

  LaunchEngine::TimingRequest req;
  req.timeline = spec.timeline;
  req.watchdog_s = spec.watchdog_s;
  req.injector = fault_armed ? injector : nullptr;
  req.l2 = &dev.l2();
  try {
    return eng.time_launch(req);
  } catch (sim::FaultError& e) {
    for (std::size_t g = 0; g < output_snapshots.size(); ++g) {
      std::copy(output_snapshots[g].begin(), output_snapshots[g].end(),
                spec.outputs[g].data);
    }
    if (e.subcore() >= 0 && e.subcore() < n) {
      e.set_block(plan[static_cast<std::size_t>(e.subcore())].block_idx);
    }
    throw;
  }
}

}  // namespace ascend::acc
