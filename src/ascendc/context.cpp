#include "ascendc/context.hpp"

#include "sim/executor.hpp"

namespace ascend::acc {

// ---------------------------------------------------------------------------
// SimpleBarrier

void SimpleBarrier::arrive_and_wait() {
  if (poisoned_.load(std::memory_order_acquire)) {
    throw Error("barrier poisoned: a sibling sub-core failed");
  }
  // The generation cannot move before this arrival: it needs every
  // participant, this one included.
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  // acq_rel: the last arriver acquires every sibling's pre-barrier writes
  // and publishes them with the generation release below.
  if (waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 == threshold_) {
    waiting_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    sim::fiber_progress();
    return;
  }
  sim::fiber_wait_until([&] {
    return generation_.load(std::memory_order_acquire) != gen ||
           poisoned_.load(std::memory_order_acquire);
  });
  if (poisoned_.load(std::memory_order_acquire)) {
    throw Error("barrier poisoned: a sibling sub-core failed");
  }
}

void SimpleBarrier::poison() {
  poisoned_.store(true, std::memory_order_release);
  sim::fiber_progress();
}

void SimpleBarrier::reset(int count) {
  threshold_ = count;
  waiting_.store(0, std::memory_order_relaxed);
  generation_.store(0, std::memory_order_relaxed);
  poisoned_.store(false, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// CrossFlags

void CrossFlags::set(KernelContext& ctx, std::size_t i) {
  ASCAN_ASSERT(i < size_, "flag index out of range");
  // The set rides on the producer's MTE3 queue so it orders after the GM
  // write it publishes (hardware: flag written through GM/L2); the waiter
  // observes it one GM latency later.
  sim::TraceOp op;
  op.engine = sim::EngineKind::Mte3;
  op.kind = sim::TraceOp::Kind::FlagSet;
  op.cycles = ctx.cfg().flag_cost_cycles +
              ctx.cfg().gm_latency_s * ctx.cfg().clock_hz;
  op.tag = "flag.set";
  const std::uint32_t id = ctx.trace().push(op);
  setter_[i].store(id, std::memory_order_release);
  sim::fiber_progress();
}

void CrossFlags::wait(KernelContext& ctx, std::size_t i) {
  ASCAN_ASSERT(i < size_, "flag index out of range");
  std::uint32_t setter_id = 0;
  sim::fiber_wait_until([&] {
    setter_id = setter_[i].load(std::memory_order_acquire);
    return setter_id != 0 || poisoned_.load(std::memory_order_acquire);
  });
  if (setter_id == 0) {
    throw Error("flag wait poisoned: a sibling sub-core failed");
  }
  sim::TraceOp op;
  op.engine = sim::EngineKind::Scalar;
  op.kind = sim::TraceOp::Kind::FlagWait;
  op.cycles = ctx.cfg().flag_cost_cycles;
  op.tag = "flag.wait";
  op.add_dep(setter_id);
  const std::uint32_t id = ctx.trace().push(op);
  // Everything after the wait is ordered behind it.
  ctx.serialise_after(id);
}

void CrossFlags::poison() {
  poisoned_.store(true, std::memory_order_release);
  sim::fiber_progress();
}

void CrossFlags::rearm(std::string_view name, std::size_t n) {
  name_.assign(name);
  if (n > capacity_) {
    setter_ = std::make_unique<std::atomic<std::uint32_t>[]>(n);
    capacity_ = n;
  }
  size_ = n;
  for (std::size_t i = 0; i < n; ++i) {
    setter_[i].store(0, std::memory_order_relaxed);
  }
  poisoned_.store(false, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// LaunchShared

void LaunchShared::reset(int num_subcores) {
  barrier_.reset(num_subcores);
  op_ids_.store(1, std::memory_order_relaxed);
  flags_used_ = 0;
}

CrossFlags& LaunchShared::flags(std::string_view name, std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < flags_used_; ++i) {
    CrossFlags& f = *flags_[i];
    if (f.name_ != name) continue;
    ASCAN_ASSERT(f.size() == n, "flag array '" << name << "' size mismatch");
    return f;
  }
  if (flags_used_ == flags_.size()) {
    flags_.push_back(std::make_unique<CrossFlags>());
  }
  CrossFlags& f = *flags_[flags_used_++];
  f.rearm(name, n);
  return f;
}

void LaunchShared::poison() {
  barrier_.poison();
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < flags_used_; ++i) flags_[i]->poison();
}

// ---------------------------------------------------------------------------
// KernelContext

KernelContext::KernelContext(const sim::MachineConfig& cfg,
                             LaunchShared* shared, int block_idx,
                             int block_dim, SubcoreKind kind, int sub_idx,
                             std::uint32_t global_subcore)
    : cfg_(cfg),
      shared_(shared),
      block_idx_(block_idx),
      block_dim_(block_dim),
      kind_(kind),
      sub_idx_(sub_idx),
      trace_(global_subcore, &shared->op_ids()) {
  if (kind_ == SubcoreKind::Cube) {
    l1_.mem.resize(cfg.l1_bytes);
    l0a_.mem.resize(cfg.l0a_bytes);
    l0b_.mem.resize(cfg.l0b_bytes);
    l0c_.mem.resize(cfg.l0c_bytes);
  } else {
    ub_.mem.resize(cfg.ub_bytes);
  }
}

void KernelContext::reset(LaunchShared* shared, int block_idx, int block_dim,
                          int sub_idx, std::uint32_t global_subcore) {
  shared_ = shared;
  block_idx_ = block_idx;
  block_dim_ = block_dim;
  sub_idx_ = sub_idx;
  trace_.reset(global_subcore, &shared->op_ids());
  sync_count_ = 0;
  ub_.used = l1_.used = l0a_.used = l0b_.used = l0c_.used = 0;
}

void KernelContext::SyncAll() {
  sim::TraceOp op;
  op.engine = sim::EngineKind::Scalar;
  op.kind = sim::TraceOp::Kind::Barrier;
  op.barrier_epoch = ++sync_count_;
  op.tag = "sync_all";
  const std::uint32_t id = trace_.push(op);
  serialise_after(id);
  shared_->barrier().arrive_and_wait();
}

KernelContext::Arena& KernelContext::arena_for(TPosition pos) {
  switch (pos) {
    case TPosition::VECIN:
    case TPosition::VECCALC:
    case TPosition::VECOUT:
      ASCAN_CHECK(is_vector(), "UB positions only exist on vector cores");
      return ub_;
    case TPosition::A1:
    case TPosition::B1:
      ASCAN_CHECK(is_cube(), "L1 positions only exist on cube cores");
      return l1_;
    case TPosition::A2:
      ASCAN_CHECK(is_cube(), "L0A only exists on cube cores");
      return l0a_;
    case TPosition::B2:
      ASCAN_CHECK(is_cube(), "L0B only exists on cube cores");
      return l0b_;
    case TPosition::CO1:
      ASCAN_CHECK(is_cube(), "L0C only exists on cube cores");
      return l0c_;
    case TPosition::GM:
      break;
  }
  throw Error("cannot allocate a local buffer in GM");
}

std::byte* KernelContext::arena_alloc(TPosition pos, std::size_t bytes) {
  Arena& a = arena_for(pos);
  constexpr std::size_t kAlign = 32;
  const std::size_t offset = (a.used + kAlign - 1) / kAlign * kAlign;
  ASCAN_CHECK(offset + bytes <= a.mem.size(),
              "scratchpad " << tposition_name(pos) << " overflow: need "
                            << bytes << " B at offset " << offset
                            << ", capacity " << a.mem.size() << " B");
  a.used = offset + bytes;
  return a.mem.data() + offset;
}

std::uint32_t KernelContext::record_compute(
    sim::EngineKind engine, double cycles, const char* tag,
    std::initializer_list<BufferState*> reads,
    std::initializer_list<BufferState*> writes) {
  sim::TraceOp op;
  op.engine = engine;
  op.kind = sim::TraceOp::Kind::Compute;
  op.cycles = cycles;
  op.tag = tag;
  for (BufferState* s : reads) {
    if (s != nullptr) op.add_dep(s->last_write_op);
  }
  for (BufferState* s : writes) {
    if (s != nullptr) {
      op.add_dep(s->last_write_op);
      op.add_dep(s->last_read_op);
    }
  }
  const std::uint32_t id = trace_.push(op);
  for (BufferState* s : reads) {
    if (s != nullptr) s->last_read_op = id;
  }
  for (BufferState* s : writes) {
    if (s != nullptr) s->last_write_op = id;
  }
  return id;
}

std::uint32_t KernelContext::record_transfer(sim::EngineKind engine,
                                             std::uint64_t bytes,
                                             std::uint64_t gm_addr,
                                             bool gm_write, const char* tag,
                                             BufferState* local_read,
                                             BufferState* local_write) {
  sim::TraceOp op;
  op.engine = engine;
  op.kind = sim::TraceOp::Kind::Transfer;
  op.cycles = cfg_.mte_issue_cycles;  // setup cost before streaming
  op.bytes = bytes;
  op.gm_addr = gm_addr;
  op.gm_write = gm_write;
  op.tag = tag;
  if (local_read != nullptr) op.add_dep(local_read->last_write_op);
  if (local_write != nullptr) {
    op.add_dep(local_write->last_write_op);
    op.add_dep(local_write->last_read_op);
  }
  const std::uint32_t id = trace_.push(op);
  if (local_read != nullptr) local_read->last_read_op = id;
  if (local_write != nullptr) local_write->last_write_op = id;
  return id;
}

}  // namespace ascend::acc
