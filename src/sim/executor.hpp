// Host execution engine primitive: runs one kernel launch's sub-core
// bodies as stackful fibers on at most one carrier thread per host core.
//
// A launch is an SPMD set of sub-core bodies that synchronise only through
// SyncAll barriers and cross-core flags (DESIGN.md "Host execution
// engine"). Giving each body an OS thread — up to 60 per launch — made the
// host kernel's scheduler the bottleneck: thousands of futex wakeups and
// involuntary context switches per second on a few host cores. Here each
// body is a ucontext fiber with its own stack; a body that must wait for a
// sibling yields to its carrier instead of blocking a thread. Fibers are
// observationally invisible: Reports, traces and values are bit-identical
// to a thread per sub-core (tests/golden/executor.txt).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ascend::sim {

namespace detail {
void fiber_block(bool (*ready)(void*), void* arg);
}  // namespace detail

/// Suspends the calling sub-core fiber until `ready()` holds; the carrier
/// runs its other fibers meanwhile and re-evaluates `ready` between them.
/// Whatever makes `ready` true must call fiber_progress() afterwards.
/// Only callable from a sub-core body of a running launch.
template <typename Pred>
void fiber_wait_until(Pred ready) {
  if (ready()) return;
  detail::fiber_block([](void* p) { return (*static_cast<Pred*>(p))(); },
                      &ready);
}

/// Announces a change a blocked sibling may be waiting for (a barrier
/// released, a flag set, a poison): bumps the running launch's progress
/// word and wakes its idle carriers. No-op outside a launch.
void fiber_progress();

/// Persistent helper carriers of one device. run(n, carrier) runs
/// carrier(0) on the calling thread and carrier(1..n-1) on helper threads,
/// and returns when all n returned; so a device never holds more than
/// hardware_concurrency - 1 helpers.
///
/// Handoff discipline (see DESIGN.md "Host hot path"): dispatch is a
/// single release-store of a packed generation|width word that helpers
/// wait on directly (std::atomic::wait), and completion is an atomic
/// countdown whose last decrementer flips a separate per-generation done
/// flag — the dispatcher sleeps and wakes at most once per launch and no
/// helper touches a mutex on the launch path.
class SubcorePool {
 public:
  SubcorePool() = default;
  ~SubcorePool();

  SubcorePool(const SubcorePool&) = delete;
  SubcorePool& operator=(const SubcorePool&) = delete;

  /// `carrier` must not throw and must not re-enter run().
  void run(int n, const std::function<void(int)>& carrier);

  /// Helper threads currently alive.
  int helpers() const;

 private:
  void ensure_helpers(int n);
  void helper_loop(int carrier_idx, std::uint32_t start_word);

  /// word_ layout: [generation:23][stop:1][width:8], width = number of
  /// carriers of the launch. One atomic word carries everything a helper
  /// may read without an assignment, so a helper beyond the current width
  /// never races the dispatcher's plain write of carrier_ — it reads the
  /// word, sees it is not assigned, and goes back to waiting. Generation
  /// wraparound (2^23 launches) is harmless: every launch notifies all
  /// waiters, so no helper can sleep across a full wrap unwoken.
  static constexpr std::uint32_t kWidthMask = 0xffu;
  static constexpr std::uint32_t kStopBit = 0x100u;
  static constexpr std::uint32_t kGenOne = 0x200u;
  static constexpr std::uint32_t gen_of(std::uint32_t w) {
    return w & ~(kWidthMask | kStopBit);
  }

  alignas(64) std::atomic<std::uint32_t> word_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  /// Generation tag of the last fully-completed launch; the dispatcher
  /// waits on this, not on done_, so intermediate countdown steps never
  /// wake it.
  alignas(64) std::atomic<std::uint32_t> done_flag_{0};
  /// Dispatched carrier body. Written by the (single) dispatcher before
  /// the word_ release-store; read only by assigned helpers.
  const std::function<void(int)>* carrier_ = nullptr;
  mutable std::mutex threads_mu_;  ///< guards threads_ growth vs helpers()
  std::vector<std::thread> threads_;
};

/// Runs a launch's sub-core bodies as fibers. Fiber stacks are kept across
/// launches (one per sub-core index of the widest launch so far).
class FiberExecutor {
 public:
  FiberExecutor();
  ~FiberExecutor();

  FiberExecutor(const FiberExecutor&) = delete;
  FiberExecutor& operator=(const FiberExecutor&) = delete;

  /// Runs body(s) for every sub-core s as a fiber on carrier carrier_of[s]
  /// (carriers 0..max(carrier_of)); inside a carrier, fibers resume
  /// round-robin in sub-core order. Returns false if the launch
  /// deadlocked: every live carrier went idle with no progress, so
  /// `poison` was called once to make every blocked fiber unwind, and all
  /// fibers ran to completion. `body` must not throw; `poison` must make
  /// every pending fiber_wait_until predicate true.
  bool run(const std::vector<int>& carrier_of,
           const std::function<void(int)>& body,
           const std::function<void()>& poison);

  /// Helper carrier threads currently alive.
  int helper_threads() const { return helpers_.helpers(); }

  /// Carriers available to one launch: one per host core.
  static int max_carriers();

  struct Fiber;

 private:
  SubcorePool helpers_;
  std::vector<std::unique_ptr<Fiber>> fibers_;  ///< stacks live here
  std::vector<std::vector<Fiber*>> per_carrier_;  ///< per-launch scratch
};

}  // namespace ascend::sim
