// Host execution engine primitive: the persistent sub-core worker pool
// that replaces thread-per-launch spawning.
//
// Motivation (see DESIGN.md "Host execution engine"): every kernel launch
// used to create and join up to 60 fresh std::threads and re-allocate every
// KernelContext and scheduler scratch structure. Multi-launch workloads
// (radix sort, batched top-p sampling) pay that cost thousands of times per
// figure, making the *host* the bottleneck of the machine model. The pieces
// here keep that state alive across launches without changing any simulated
// result: pooled execution is bit-identical to spawned execution.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/config.hpp"

namespace ascend::sim {

/// Resolves MachineConfig::executor: Auto consults the ASCAN_EXECUTOR
/// environment variable ("spawn" or "pool") and defaults to Pool.
ExecutorMode resolve_executor_mode(ExecutorMode requested);

/// Persistent pool of sub-core workers. One launch dispatches `n` bodies,
/// each of which may block on launch barriers/flags until every sibling has
/// arrived — so tasks are assigned statically, one worker per sub-core
/// index, and the pool is sized to the largest launch seen (a full MIX
/// launch may block all 60 sub-cores simultaneously; fewer workers would
/// deadlock the barrier). The pool grows once per high-water mark and never
/// shrinks mid-launch; workers are joined on destruction.
///
/// Handoff discipline (see DESIGN.md "Host hot path"): a full-width launch
/// used to move ~60 workers through the pool mutex twice per launch — once
/// to read the dispatched body under the lock and once to bump the done
/// count — a serial convoy of hundreds of futex transitions per launch
/// that dominated host wall time once batch formation itself went
/// lock-free. Dispatch is now a single release-store of a packed
/// generation|width word that workers wait on directly
/// (std::atomic::wait), and completion is an atomic countdown whose last
/// decrementer flips a separate per-generation done flag — the dispatcher
/// sleeps and wakes at most once per launch and no worker ever touches a
/// mutex on the launch path.
class SubcorePool {
 public:
  SubcorePool() = default;
  ~SubcorePool();

  SubcorePool(const SubcorePool&) = delete;
  SubcorePool& operator=(const SubcorePool&) = delete;

  /// Runs body(0) .. body(n-1) concurrently (worker i runs body(i)) and
  /// blocks until all of them returned. Bodies must not re-enter run().
  /// Exceptions must be handled inside `body` (the launch wrapper already
  /// catches per-sub-core and poisons the launch barrier).
  void run(int n, const std::function<void(int)>& body);

  /// Workers currently alive (the high-water mark of launch widths).
  int workers() const;

 private:
  void ensure_workers(int n);
  void worker_loop(int worker_idx, std::uint32_t start_word);

  /// word_ layout: [generation:23][stop:1][width:8]. One atomic word
  /// carries everything a worker may read without a launch assignment, so
  /// a straggler from an earlier, wider launch (worker_idx >= width) never
  /// races the dispatcher's plain writes to body_ — it reads the word,
  /// sees it is not assigned, and goes back to waiting. Generation
  /// wraparound (2^23 launches) is harmless: every launch notifies all
  /// waiters, so no worker can sleep across a full wrap unwoken.
  static constexpr std::uint32_t kWidthMask = 0xffu;
  static constexpr std::uint32_t kStopBit = 0x100u;
  static constexpr std::uint32_t kGenOne = 0x200u;
  static constexpr std::uint32_t gen_of(std::uint32_t w) {
    return w & ~(kWidthMask | kStopBit);
  }

  // Hot atomics on separate cache lines: workers hammer done_ with RMWs at
  // launch end while later sleepers poll word_.
  alignas(64) std::atomic<std::uint32_t> word_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  /// Generation tag of the last fully-completed launch. The dispatcher
  /// waits on this, not on done_, so the n-1 intermediate countdown steps
  /// never wake it.
  alignas(64) std::atomic<std::uint32_t> done_flag_{0};
  /// Dispatched body. Written by the (single) dispatcher before the word_
  /// release-store; read only by workers assigned to the current launch,
  /// which acquire-loaded the new word first.
  const std::function<void(int)>* body_ = nullptr;
  mutable std::mutex threads_mu_;  ///< guards threads_ growth vs workers()
  std::vector<std::thread> threads_;
};

}  // namespace ascend::sim
