// Machine description and cost model for the simulated Ascend accelerator.
//
// The defaults describe the Ascend 910B4 used in the paper's evaluation:
// 20 AI Cores, each with one AI Cube (AIC) core and two AI Vector (AIV)
// cores (the 2:1 vector-to-cube ratio of the split DaVinci architecture),
// 800 GB/s of HBM bandwidth behind a shared L2, and the UB/L1/L0 scratchpad
// capacities documented for the DaVinci architecture.
//
// Cost-model philosophy (see DESIGN.md §4): scan is memory bound, so the
// *memory side* of the model (bytes moved per engine, shared-HBM
// arbitration, L2 hits) is derived from first principles and determines
// every bandwidth figure. The *compute side* constants (cube MACs/cycle,
// vector bytes/cycle, scalar read-back latency, per-instruction issue cost,
// kernel launch overhead) are taken from published DaVinci material where
// available and otherwise calibrated once against the single-core ratios the
// paper reports (Fig. 3); they are never tuned per-experiment.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ascend::sim {

struct MachineConfig {
  // --- Topology ------------------------------------------------------------
  int num_ai_cores = 20;  ///< AIC count ("blocks" at full occupancy)
  int vec_per_core = 2;   ///< AIV cores per AI core

  // --- Clocks and raw rates --------------------------------------------------
  double clock_hz = 1.8e9;          ///< core clock
  double hbm_bandwidth = 800e9;     ///< aggregate HBM bytes/s (910B4 peak)
  double hbm_efficiency = 0.75;     ///< achievable fraction of peak on streams
  /// Aggregate on-chip L2 bandwidth. Set to the nominal HBM peak: an
  /// L2-resident working set is what lets kernels "almost approach the
  /// theoretical limit given by the memory bandwidth" (paper §6.1).
  double l2_bandwidth = 800e9;
  double mte_bandwidth = 128e9;     ///< per-MTE engine GM bytes/s cap
  double local_copy_bytes_per_cycle = 40;  ///< L1<->L0 fractal-layout moves

  // --- Memory sizes ----------------------------------------------------------
  std::size_t l2_bytes = 96ull << 20;  ///< shared L2 cache capacity
  std::size_t l2_line_bytes = 512;
  std::size_t ub_bytes = 192ull << 10;   ///< per-AIV Unified Buffer
  std::size_t l1_bytes = 512ull << 10;   ///< per-AIC L1
  std::size_t l0a_bytes = 64ull << 10;   ///< per-AIC L0A (left matrix)
  std::size_t l0b_bytes = 64ull << 10;   ///< per-AIC L0B (right matrix)
  std::size_t l0c_bytes = 128ull << 10;  ///< per-AIC L0C (accumulator)

  // --- Cube unit -------------------------------------------------------------
  double cube_macs_per_cycle_f16 = 4096;  ///< 16x16x16 MACs per cycle
  double cube_macs_per_cycle_i8 = 8192;   ///< int8 doubles MAC throughput
  double cube_issue_cycles = 50;          ///< fixed cost per Mmad instruction

  // --- Vector unit -----------------------------------------------------------
  double vec_bytes_per_cycle = 256;   ///< SIMD throughput per AIV
  double vec_issue_cycles = 16;       ///< fixed cost per vector instruction
  double gather_bytes_per_cycle = 96; ///< GatherMask & friends are slower

  // --- Scalar unit -----------------------------------------------------------
  double scalar_read_cycles = 48;  ///< UB value -> scalar register (serialises)
  double scalar_op_cycles = 4;     ///< basic scalar arithmetic / control

  // --- Composite/macro instructions -------------------------------------------
  // The AscendC CumSum API is closed source; the paper measures it to be
  // ~5x slower than ScanU and ~9.6x slower than ScanUL1 at s = 128
  // (Fig. 3). This per-element cost reproduces the measured throughput of
  // that API and is used *only* by the vector-baseline kernel.
  double cumsum_cycles_per_elem = 2.55;
  // torch.masked_select on Ascend uses neither vector nor cube units
  // (paper §6.2); it is modelled as a scalar/AICPU loop at this cost.
  double scalar_loop_cycles_per_elem = 24;
  // Data-dependent two-way merge step of the baseline sort (per output
  // element, on one AIV). torch.sort's kernel is closed; calibrated so the
  // baseline matches the paper's radix-sort crossover (Fig. 11).
  double vec_merge_cycles_per_elem = 1.9;

  // --- Transfer / control overheads -------------------------------------------
  /// One-way GM/HBM access latency. Irrelevant to pipelined streaming
  /// kernels (double buffering hides it) but decisive for dependent
  /// GM round trips — cross-core flags and the adjacent-block chains of
  /// StreamScan / decoupled-lookback strategies (§2.1): "each data
  /// transfer between the AIC and AIV cores might be expensive" (§3.1).
  double gm_latency_s = 3e-7;
  double mte_issue_cycles = 40;    ///< fixed cost per DataCopy instruction
  double launch_overhead_s = 2.8e-6;  ///< host->device kernel launch
  double sync_all_s = 1.2e-6;         ///< global SyncAll barrier latency
  double flag_cost_cycles = 24;       ///< cross-core flag set/wait

  // --- Reliability -------------------------------------------------------------
  /// Extra cycles a GM transfer pays when a correctable (single-bit) HBM
  /// ECC event is scrubbed in-line (detect, correct, write back the line).
  double ecc_scrub_cycles = 2000;
  /// Default watchdog deadline for a kernel launch in *simulated* seconds
  /// (0 = disabled). A launch whose simulated clock would pass the deadline
  /// aborts with TimeoutError instead of hanging forever.
  double watchdog_s = 0;
  /// Launch-shape scaling of the watchdog: the effective deadline is
  /// watchdog_s + watchdog_scale * T_ref, where T_ref is a serial-work
  /// estimate of the launch derived from its own trace (total GM bytes at
  /// effective HBM bandwidth plus total recorded cycles at the nominal
  /// clock). A flat deadline tuned for small launches misclassifies
  /// giant-but-healthy launches (many rows x many tiles) as hangs and
  /// burns their retry budget; scaling grows the headroom with the shape
  /// while real hangs are still caught (a wedged engine never completes,
  /// deadline or not). 0 restores the flat pre-scaling deadline.
  double watchdog_scale = 8.0;

  // --- Derived helpers ---------------------------------------------------------
  double cycles_to_s(double cycles) const { return cycles / clock_hz; }
  int num_vec_cores() const { return num_ai_cores * vec_per_core; }

  /// The 910B4 configuration used throughout the paper's evaluation.
  static MachineConfig ascend_910b4() { return MachineConfig{}; }

  /// A single-AI-core configuration (used by unit tests and the
  /// single-core experiments of §4.1).
  static MachineConfig single_core() {
    MachineConfig c;
    c.num_ai_cores = 1;
    return c;
  }

  /// Copy of this config with a different AI-core count. Multi-device
  /// serving tests use it to build deliberately heterogeneous clusters
  /// (skewed per-device capacity) from one base description.
  MachineConfig with_ai_cores(int cores) const {
    MachineConfig c = *this;
    c.num_ai_cores = cores;
    return c;
  }
};

}  // namespace ascend::sim
