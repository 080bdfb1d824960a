// Host execution engine primitive: runs one kernel launch's sub-core
// bodies as stackful fibers on the calling thread, and on helper carriers
// only when the launch runs long enough to pay for them.
//
// A launch is an SPMD set of blocks of sub-core bodies that synchronise
// only through SyncAll barriers and cross-core flags (DESIGN.md "Host
// execution engine"). Each body is a fiber with its own stack; a body that
// must wait for a sibling yields to its carrier instead of blocking a
// thread. On x86-64 a switch saves and restores only the callee-saved
// registers, the stack pointer and the FP control words — no signal-mask
// syscall. Carriers claim whole blocks from a shared counter, the caller
// first; helpers are woken only once a launch has run past
// kHelperBudget with blocks still unclaimed. Fibers are observationally
// invisible: Reports, traces and values are bit-identical to a thread per
// sub-core (tests/golden/executor.txt). A warmed launch allocates nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ascend::sim {

/// Non-owning reference to a callable: what the launch path passes in
/// place of std::function, which may allocate. The referenced callable
/// must outlive every call through the reference.
template <typename Sig>
class FnRef;

template <typename R, typename... A>
class FnRef<R(A...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FnRef> &&
             std::is_invocable_r_v<R, F&, A...>)
  FnRef(F&& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, A... a) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(o))(
              std::forward<A>(a)...);
        }) {}

  R operator()(A... a) const { return call_(obj_, std::forward<A>(a)...); }

 private:
  void* obj_;
  R (*call_)(void*, A...);
};

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

/// Persistent helper carriers of one device. start(n, carrier) runs
/// carrier(1..n-1) on helper threads (created on first use) and returns
/// at once; join() waits until all of them returned. A device never holds
/// more than hardware_concurrency - 1 helpers.
///
/// Handoff discipline (see DESIGN.md "Host hot path"): dispatch is a
/// single release-store of a packed generation|width word that helpers
/// wait on directly (std::atomic::wait), and completion is an atomic
/// countdown whose last decrementer flips a separate per-generation done
/// flag — join() sleeps and wakes at most once per launch and no helper
/// touches a mutex on the launch path.
class SubcorePool {
 public:
  SubcorePool() = default;
  ~SubcorePool();

  SubcorePool(const SubcorePool&) = delete;
  SubcorePool& operator=(const SubcorePool&) = delete;

  /// `carrier` must not throw, must not re-enter the pool and must stay
  /// alive until join() returns. Every start() is followed by one join().
  void start(int n, const FnRef<void(int)>& carrier);
  void join();

  /// Helper threads currently alive.
  int helpers() const;

 private:
  void ensure_helpers(int n);
  void helper_loop(int carrier_idx, std::uint32_t start_word);

  /// word_ layout: [generation:23][stop:1][width:8], width = number of
  /// carriers of the launch, the caller included. One atomic word carries
  /// everything a helper may read without an assignment, so a helper
  /// beyond the current width never races the dispatcher's plain write of
  /// carrier_ — it reads the word, sees it is not assigned, and goes back
  /// to waiting. Generation wraparound (2^23 launches) is harmless: every
  /// start notifies all waiters, so no helper can sleep across a full wrap
  /// unwoken.
  static constexpr std::uint32_t kWidthMask = 0xffu;
  static constexpr std::uint32_t kStopBit = 0x100u;
  static constexpr std::uint32_t kGenOne = 0x200u;
  static constexpr std::uint32_t gen_of(std::uint32_t w) {
    return w & ~(kWidthMask | kStopBit);
  }

  alignas(64) std::atomic<std::uint32_t> word_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  /// Generation tag of the last fully-completed dispatch; join() waits on
  /// this, not on done_, so intermediate countdown steps never wake it.
  alignas(64) std::atomic<std::uint32_t> done_flag_{0};
  /// Dispatched carrier body. Written by the (single) dispatcher before
  /// the word_ release-store; read only by assigned helpers.
  const FnRef<void(int)>* carrier_ = nullptr;
  mutable std::mutex threads_mu_;  ///< guards threads_ growth vs helpers()
  std::vector<std::thread> threads_;
};

/// Runs a launch's sub-core bodies as fibers. Fiber stacks are kept across
/// launches (one per sub-core index of the widest launch so far).
class FiberExecutor {
 public:
  /// How long a launch runs on the calling thread alone before it wakes
  /// helper carriers for its unclaimed blocks. Set by measurement on a
  /// 4-core host (DESIGN.md "Host execution engine"): at 20 µs, 16-row
  /// batched scans that finish sooner alone woke helpers; at 200 µs,
  /// MCScan's long blocks ran on one thread for too long.
  static constexpr std::chrono::microseconds kHelperBudget{50};

  FiberExecutor();
  ~FiberExecutor();

  FiberExecutor(const FiberExecutor&) = delete;
  FiberExecutor& operator=(const FiberExecutor&) = delete;

  /// Runs body(s) for every sub-core s of `blocks` blocks of `per_block`
  /// sub-cores each (sub-core s belongs to block s / per_block). Carriers
  /// claim whole blocks in block order, the calling thread first, and a
  /// claimed block's fibers stay on their claimer; inside a carrier,
  /// fibers resume round-robin in claim order. Returns false if the
  /// launch deadlocked: every live carrier went idle with no progress and
  /// no block left to claim, so `poison` was called once to make every
  /// blocked fiber unwind, and all fibers ran to completion. `body` must
  /// not throw; `poison` must make every pending fiber_wait_until
  /// predicate true.
  bool run(int blocks, int per_block, FnRef<void(int)> body,
           FnRef<void()> poison);

  /// Helper carrier threads currently alive.
  int helper_threads() const { return helpers_.helpers(); }

  struct Fiber;

 private:
  SubcorePool helpers_;
  std::vector<std::unique_ptr<Fiber>> fibers_;  ///< stacks live here
};

}  // namespace ascend::sim
