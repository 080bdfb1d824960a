// Fluid-flow model of the shared memory system: an on-chip L2 bandwidth
// pool and an off-chip HBM pool.
//
// Every in-flight GM transfer is a "flow" with a remaining byte count, a
// per-flow rate cap (the MTE engine's streaming bandwidth) and two demand
// fractions derived from the L2 model: l2_frac (all traffic streams through
// the L2) and hbm_frac (misses plus dirty write-backs; can exceed 1 when a
// write triggers an eviction per line). Rates are assigned by iterative
// proportional throttling (a max-min/water-filling approximation): start
// every flow at its cap and repeatedly scale down flows that oversubscribe
// a pool. This reproduces the regimes behind the paper's figures: one core
// is MTE-limited, 20 cores on an L2-resident working set saturate the
// on-chip pool (copy "almost approaches the theoretical limit"), and larger
// working sets degrade to HBM-efficiency-limited streaming.
//
// Hot-path note: all sweeps run over `active_slots_`, kept sorted by slot
// index so iteration order — and therefore floating-point summation order —
// is identical to scanning the whole `flows_` vector and skipping inactive
// entries, while costing O(active) instead of O(ever-created).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace ascend::sim {

class HbmArbiter {
 public:
  HbmArbiter(double hbm_bytes_per_s, double l2_bytes_per_s)
      : hbm_bw_(hbm_bytes_per_s), l2_bw_(l2_bytes_per_s) {}

  /// Returns to the freshly constructed state with new pool bandwidths,
  /// keeping the vectors' capacity: a run on a reset arbiter hands out the
  /// same handles and rates as one on a new arbiter.
  void reset(double hbm_bytes_per_s, double l2_bytes_per_s);

  /// Registers a transfer starting at time `now`. The flow finishes when
  /// `bytes` have streamed at the assigned rate r; it consumes r*hbm_frac
  /// from the HBM pool and r*l2_frac from the L2 pool while active.
  std::uint32_t add_flow(double now, double bytes, double rate_cap,
                         double hbm_frac, double l2_frac);

  /// Time of the earliest flow completion, or +inf when no flows active.
  double next_completion_time() const { return next_completion_; }

  /// Advances the fluid state to `now` and pops every flow that completes
  /// at (or before) `now`. Returns their handles in ascending slot order.
  const std::vector<std::uint32_t>& advance_and_pop(double now);

  bool idle() const { return active_slots_.empty(); }
  double hbm_busy_time() const { return hbm_busy_time_; }

 private:
  struct Flow {
    double remaining = 0;
    double cap = 0;
    double hbm_frac = 0;
    double l2_frac = 0;
    double rate = 0;
    bool active = false;
  };

  void advance_to(double now);
  void recompute_rates();

  double hbm_bw_;
  double l2_bw_;
  double last_update_ = 0;
  double next_completion_ = kInf;
  double hbm_busy_time_ = 0;  ///< integral of (hbm demand > 0)
  int hbm_active_ = 0;        ///< active flows with hbm_frac > 0
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> active_slots_;  ///< sorted ascending
  std::vector<std::uint32_t> free_slots_cached_;
  std::vector<std::uint32_t> done_;  ///< advance_and_pop result buffer

  static constexpr double kInf = 1e300;
};

}  // namespace ascend::sim
