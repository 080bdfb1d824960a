// The three perfbench workloads and the per-layer probes of the traced run.
#pragma once

#include <cstdint>
#include <string>

#include "sim/report.hpp"
#include "util.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Paper operators back to back through ascan::Session.
RunResult run_paper_suite(const Options& opt);
/// Small cumsum rows through one serve::Engine: open loop, then drains.
RunResult run_serve_small(const Options& opt);
/// All four op kinds through a 2-device serve::Cluster: open loop, then
/// drains.
RunResult run_cluster_mixed(const Options& opt);

/// Traced run only: times the kernel and ascendc layers directly on
/// device-resident buffers (kernels.*, ascendc.launch_us_p50,
/// ascendc.alloc_us_p50).
void run_layer_probes(const Options& opt, RunResult& out);

/// Traced run only: the sim.* and ascendc.launches_per_op metrics of
/// `total`, the summed Report of `ops` operations that took `host_s`
/// seconds of host wall time.
void add_sim_metrics(const ascend::sim::Report& total, std::uint64_t ops,
                     double host_s, RunResult& out);

}  // namespace perfbench
