#include "ascendc/engine.hpp"

#include <algorithm>
#include <utility>

#include "ascendc/device.hpp"

namespace ascend::acc {

LaunchEngine::LaunchEngine(const sim::MachineConfig& cfg) : cfg_(cfg) {
  // Sized up front, so a plan reference stays valid for the engine's life.
  for (auto& by_dim : plans_) {
    by_dim.resize(static_cast<std::size_t>(
        std::max(cfg_.num_ai_cores, cfg_.num_vec_cores()) + 1));
  }
}

LaunchEngine::~LaunchEngine() = default;

// ---------------------------------------------------------------------------
// Sub-core plans and context pooling

const std::vector<SubcorePlan>& LaunchEngine::plan(LaunchMode mode,
                                                   int block_dim) {
  int max_blocks = cfg_.num_ai_cores;
  const char* what = "MIX launch of ";
  const char* cores = " AI cores";
  if (mode == LaunchMode::VectorOnly) {
    max_blocks = cfg_.num_vec_cores();
    what = "vector launch of ";
    cores = " AIV cores";
  } else if (mode == LaunchMode::CubeOnly) {
    what = "cube launch of ";
    cores = " AIC cores";
  }
  ASCAN_CHECK(block_dim >= 1 && block_dim <= max_blocks,
              what << block_dim << " blocks exceeds " << max_blocks << cores);
  std::vector<SubcorePlan>& plan =
      plans_[static_cast<int>(mode)][static_cast<std::size_t>(block_dim)];
  if (!plan.empty()) return plan;
  for (int b = 0; b < block_dim; ++b) {
    switch (mode) {
      case LaunchMode::Mix:
        plan.push_back({b, SubcoreKind::Cube, 0});
        for (int v = 0; v < cfg_.vec_per_core; ++v) {
          plan.push_back({b, SubcoreKind::Vector, v});
        }
        break;
      case LaunchMode::VectorOnly:
        plan.push_back({b, SubcoreKind::Vector, 0});
        break;
      case LaunchMode::CubeOnly:
        plan.push_back({b, SubcoreKind::Cube, 0});
        break;
    }
  }
  return plan;
}

void LaunchEngine::prepare(const std::vector<SubcorePlan>& plan,
                           int block_dim) {
  shared_.reset(static_cast<int>(plan.size()));
  ctxs_.clear();
  std::size_t cubes = 0;
  std::size_t vecs = 0;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    const SubcorePlan& p = plan[s];
    const bool cube = p.kind == SubcoreKind::Cube;
    auto& pool = cube ? cube_pool_ : vec_pool_;
    std::size_t& used = cube ? cubes : vecs;
    const auto global_subcore = static_cast<std::uint32_t>(s);
    if (used == pool.size()) {
      pool.push_back(std::make_unique<KernelContext>(
          cfg_, &shared_, p.block_idx, block_dim, p.kind, p.sub_idx,
          global_subcore));
    } else {
      pool[used]->reset(&shared_, p.block_idx, block_dim, p.sub_idx,
                        global_subcore);
    }
    ctxs_.push_back(pool[used++].get());
  }
}

// ---------------------------------------------------------------------------
// Sub-core dispatch

bool LaunchEngine::run_subcores(const std::vector<SubcorePlan>& plan,
                                sim::FnRef<void(int)> body,
                                sim::FnRef<void()> poison) {
  const int blocks = plan.empty() ? 0 : plan.back().block_idx + 1;
  const int per_block =
      blocks == 0 ? 0 : static_cast<int>(plan.size()) / blocks;
  return executor_.run(blocks, per_block, body, poison);
}

// ---------------------------------------------------------------------------
// Timing

sim::Report LaunchEngine::replay(const TimingRequest& req) {
  sim::Scheduler sched(cfg_, req.l2);
  return sched.run(trace_, req.timeline, {req.injector, req.watchdog_s},
                   &scratch_);
}

sim::Report LaunchEngine::time_launch(const TimingRequest& req) {
  const std::size_t n = ctxs_.size();
  trace_.per_subcore.resize(n);
  trace_.is_cube_subcore.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    trace_.per_subcore[s] = std::move(ctxs_[s]->trace().mutable_ops());
    trace_.is_cube_subcore[s] = ctxs_[s]->is_cube();
  }
  trace_.max_op_id = shared_.op_ids().load(std::memory_order_relaxed) - 1;

  // Canonical op ids. The shared atomic hands ids out in arrival order,
  // which interleaves the carriers' fibers nondeterministically. The
  // scheduler breaks simultaneous-event ties by id, so raw ids would leak
  // host timing into simulated time. Renumbering densely by (sub-core,
  // position) — both interleaving-independent — restores bit-reproducible
  // replays. Two passes: deps may reference ops of other sub-cores
  // (cross-core flag edges).
  id_map_.assign(static_cast<std::size_t>(trace_.max_op_id) + 1, 0);
  std::uint32_t next_id = 1;
  for (const auto& ops : trace_.per_subcore) {
    for (const sim::TraceOp& op : ops) id_map_[op.id] = next_id++;
  }
  for (auto& ops : trace_.per_subcore) {
    for (sim::TraceOp& op : ops) {
      op.id = id_map_[op.id];
      for (std::uint8_t d = 0; d < op.num_deps; ++d) {
        op.deps[d] = id_map_[op.deps[d]];
      }
    }
  }
  trace_.max_op_id = next_id - 1;

  // Hand the op vectors (and their capacity) back to the builders whether
  // the timing pass succeeds or aborts on an injected fault.
  auto recycle = [&] {
    for (std::size_t s = 0; s < n; ++s) {
      ctxs_[s]->trace().mutable_ops() = std::move(trace_.per_subcore[s]);
    }
  };
  try {
    const sim::Report rep = replay(req);
    recycle();
    return rep;
  } catch (...) {
    recycle();
    throw;
  }
}

// ---------------------------------------------------------------------------
// Device <-> engine wiring (out of line: LaunchEngine is forward-declared in
// device.hpp so every translation unit including the device doesn't pull in
// the engine, and unique_ptr needs the complete type here).

Device::Device(sim::MachineConfig cfg)
    : cfg_(cfg), l2_(cfg.l2_bytes, cfg.l2_line_bytes) {}
Device::~Device() = default;
Device::Device(Device&&) noexcept = default;
Device& Device::operator=(Device&&) noexcept = default;

LaunchEngine& Device::engine() {
  if (engine_ == nullptr) engine_ = std::make_unique<LaunchEngine>(cfg_);
  return *engine_;
}

}  // namespace ascend::acc
