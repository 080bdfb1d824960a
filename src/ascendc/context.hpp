// Per-sub-core kernel execution context plus the shared launch state
// (barriers, cross-core flags) used by the functional pass.
//
// A kernel launch runs the kernel body once per logical sub-core, each as a
// fiber (sim/executor.hpp); waiting at a barrier or on a flag yields to the
// sub-core's carrier thread instead of blocking it. In MIX mode a block is
// one AI core: sub-core 0 is the AIC (cube) core and sub-cores
// 1..vec_per_core are the AIV (vector) cores. In vector-only mode each
// block is a single AIV core.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ascendc/tensor.hpp"
#include "sim/config.hpp"
#include "sim/trace.hpp"

namespace ascend::acc {

class KernelContext;

/// Barrier with poison propagation: if any participant fails, every waiter
/// (current and future) throws instead of deadlocking. Waiting yields the
/// sub-core's fiber.
class SimpleBarrier {
 public:
  explicit SimpleBarrier(int count) : threshold_(count) {}

  void arrive_and_wait();
  void poison();
  /// Re-arms the barrier for `count` participants, unpoisoned. Only
  /// between launches.
  void reset(int count);

 private:
  int threshold_;
  std::atomic<int> waiting_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> poisoned_{false};
};

/// A shared array of cross-core synchronisation flags. set(i) publishes the
/// id of the trace op that performed the set; wait(i) yields the waiting
/// sub-core's fiber until then and records a dependency edge on that op.
class CrossFlags {
 public:
  void set(KernelContext& ctx, std::size_t i);
  void wait(KernelContext& ctx, std::size_t i);

  std::size_t size() const { return size_; }
  void poison();

 private:
  friend class LaunchShared;
  /// Re-arms the array as `name` with `n` unset flags, keeping its storage
  /// when it is large enough.
  void rearm(std::string_view name, std::size_t n);

  std::string name_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> setter_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::atomic<bool> poisoned_{false};
};

/// State shared by all sub-cores of one launch. One instance per device
/// serves every launch: reset() re-arms it, and flag arrays keep their
/// storage from one launch to the next.
class LaunchShared {
 public:
  LaunchShared() = default;

  /// Re-arms the state for a launch of `num_subcores` sub-cores: barrier
  /// unpoisoned, op ids from 1, no flag arrays. Only between launches.
  void reset(int num_subcores);

  SimpleBarrier& barrier() { return barrier_; }
  std::atomic<std::uint32_t>& op_ids() { return op_ids_; }

  /// Named flag arrays, created on first use in a launch (all sub-cores
  /// must agree on the size).
  CrossFlags& flags(std::string_view name, std::size_t n);

  void poison();

 private:
  SimpleBarrier barrier_{0};
  std::atomic<std::uint32_t> op_ids_{1};
  std::mutex mu_;
  /// The first flags_used_ arrays are this launch's; the rest are storage
  /// that earlier launches used.
  std::vector<std::unique_ptr<CrossFlags>> flags_;
  std::size_t flags_used_ = 0;
};

enum class SubcoreKind : std::uint8_t { Cube, Vector };

class KernelContext {
 public:
  KernelContext(const sim::MachineConfig& cfg, LaunchShared* shared,
                int block_idx, int block_dim, SubcoreKind kind, int sub_idx,
                std::uint32_t global_subcore);

  /// Re-initialises a pooled context for a new launch: rebinds the shared
  /// launch state and identity, rewinds the arenas (allocations are kept,
  /// not zeroed — kernels write before they read) and clears the trace
  /// builder while keeping its op-vector capacity. The context's sub-core
  /// kind is fixed at construction (the arenas are shaped by it).
  void reset(LaunchShared* shared, int block_idx, int block_dim, int sub_idx,
             std::uint32_t global_subcore);

  // --- Identity (mirrors AscendC's GetBlockIdx / GetSubBlockIdx) -----------
  int GetBlockIdx() const { return block_idx_; }
  int GetBlockDim() const { return block_dim_; }
  /// 0 for the cube core; 0..vec_per_core-1 for vector cores of the block.
  int GetSubBlockIdx() const { return sub_idx_; }
  bool is_cube() const { return kind_ == SubcoreKind::Cube; }
  bool is_vector() const { return kind_ == SubcoreKind::Vector; }

  const sim::MachineConfig& cfg() const { return cfg_; }
  sim::TraceBuilder& trace() { return trace_; }
  LaunchShared& shared() { return *shared_; }

  /// Global synchronisation of all sub-cores of the launch (AscendC
  /// SyncAll). Functionally a barrier; in simulated time every sub-core's
  /// barrier op completes simultaneously.
  void SyncAll();

  // --- Scratchpad arenas -----------------------------------------------------
  /// Bump-allocates `bytes` in the physical buffer backing `pos`,
  /// enforcing the hardware capacities. 32-byte aligned like the UB.
  std::byte* arena_alloc(TPosition pos, std::size_t bytes);

  // --- Trace helpers (used by the intrinsics layer) ---------------------------
  /// Records a fixed-duration op. Hazard edges: deps on last_write of every
  /// read state and last_write/last_read of every written state; updates
  /// the states afterwards. Null states are skipped.
  std::uint32_t record_compute(sim::EngineKind engine, double cycles,
                               const char* tag,
                               std::initializer_list<BufferState*> reads,
                               std::initializer_list<BufferState*> writes);

  /// Records a GM transfer op (arbitrated by the HBM model).
  std::uint32_t record_transfer(sim::EngineKind engine, std::uint64_t bytes,
                                std::uint64_t gm_addr, bool gm_write,
                                const char* tag, BufferState* local_read,
                                BufferState* local_write);

  /// Marks the most recent op as serialising: everything issued afterwards
  /// on this sub-core depends on it (scalar read-backs, flag waits).
  void serialise_after(std::uint32_t op_id) {
    trace_.set_serial_anchor(op_id);
  }

 private:
  const sim::MachineConfig& cfg_;
  LaunchShared* shared_;
  int block_idx_;
  int block_dim_;
  SubcoreKind kind_;
  int sub_idx_;
  sim::TraceBuilder trace_;
  std::uint32_t sync_count_ = 0;

  struct Arena {
    std::vector<std::byte> mem;
    std::size_t used = 0;
  };
  Arena ub_, l1_, l0a_, l0b_, l0c_;
  Arena& arena_for(TPosition pos);
};

}  // namespace ascend::acc
