#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <sstream>
#include <vector>

#include "common/math_util.hpp"
#include "sim/hbm_arbiter.hpp"

namespace ascend::sim {

namespace {
constexpr double kInf = 1e300;

struct OpState {
  const TraceOp* op = nullptr;
  std::uint32_t engine = 0;        // dense engine index
  std::uint32_t pending_deps = 0;  // explicit edges not yet finished
  double start = 0;
  double finish = -1;  // <0: not finished
  bool started = false;
  bool engine_released = false;
};

using Event = std::pair<double, std::uint32_t>;  // (time, op id)

/// Min-heap of pending completions whose storage outlives one run.
struct EventQueue
    : std::priority_queue<Event, std::vector<Event>, std::greater<>> {
  void clear() { c.clear(); }
};
}  // namespace

// Every per-launch working structure of the hot loop lives here so a
// persistent SchedScratch turns one launch's O(num_ops) heap churn (per-op
// dependent lists, hash maps, per-event hot lists) into vector reuse.
// The ready-queue design: each dense engine index owns an in-order FIFO of
// its op ids with a head cursor (`fifo_head`) marking the oldest unstarted
// op; an engine enters `hot` only when something that could unblock its
// head happened (engine freed, or a dependency of some queued op finished
// — tracked by the incremental `pending_deps` counters). The main loop
// never rescans FIFOs.
struct SchedScratch::Impl {
  std::vector<OpState> st;
  // Per-engine FIFOs: outer vector sized to num_engines, inner vectors
  // cleared per launch but keeping their capacity.
  std::vector<std::vector<std::uint32_t>> fifo;
  std::vector<std::uint32_t> fifo_head;
  std::vector<double> engine_free;
  std::vector<double> engine_busy;
  // Dependents in CSR form (replaces a vector-of-vectors that cost one
  // heap allocation per op with outgoing edges).
  std::vector<std::uint32_t> dep_offsets;
  std::vector<std::uint32_t> dep_edges;
  std::vector<std::uint32_t> dep_fill;
  // Barrier groups in CSR form, indexed by epoch (replaces two hash maps).
  std::vector<std::uint32_t> barrier_offsets;
  std::vector<std::uint32_t> barrier_members;
  std::vector<std::uint32_t> barrier_started;
  std::vector<std::uint32_t> barrier_fill;
  // In-flight GM transfers: flow handle -> op id (replaces a hash map; the
  // arbiter hands out compact slot indices).
  std::vector<std::uint32_t> flow_to_op;
  // Engines to re-examine, double-buffered across loop iterations.
  std::vector<std::uint32_t> hot_engines;
  std::vector<std::uint32_t> hot_next;
  // Fault decisions.
  std::vector<FaultKind> op_fault;
  std::vector<double> subcore_scale;
  // GM bandwidth arbitration and the event heap; reset per run.
  HbmArbiter arbiter{0, 0};
  EventQueue events;
};

SchedScratch::SchedScratch() : impl_(std::make_unique<Impl>()) {}
SchedScratch::~SchedScratch() = default;

Report Scheduler::run(const KernelTrace& trace, Timeline* timeline,
                      const SchedulerFaults& faults, SchedScratch* scratch) {
  // Callers without a persistent scratch get a run-local one.
  std::unique_ptr<SchedScratch> local_scratch;
  if (scratch == nullptr) {
    local_scratch = std::make_unique<SchedScratch>();
    scratch = local_scratch.get();
  }
  SchedScratch::Impl& sc = *scratch->impl_;

  Report rep;
  rep.launches = 1;

  const std::uint32_t max_id = trace.max_op_id;
  sc.st.assign(max_id + 1, OpState{});
  std::vector<OpState>& st = sc.st;

  FaultInjector* inj =
      faults.injector != nullptr && faults.injector->armed() ? faults.injector
                                                             : nullptr;
  double watchdog = faults.watchdog_s > 0 ? faults.watchdog_s : cfg_.watchdog_s;
  if (watchdog <= 0) watchdog = kInf;

  // Dense engine indexing: subcore * kNumEngineKinds + kind.
  const std::uint32_t num_subcores =
      static_cast<std::uint32_t>(trace.per_subcore.size());
  const std::uint32_t num_engines = num_subcores * kNumEngineKinds;

  if (sc.fifo.size() < num_engines) sc.fifo.resize(num_engines);
  for (std::uint32_t e = 0; e < num_engines; ++e) sc.fifo[e].clear();
  sc.fifo_head.assign(num_engines, 0);
  sc.engine_free.assign(num_engines, 0.0);
  sc.engine_busy.assign(num_engines, 0.0);
  std::vector<std::vector<std::uint32_t>>& fifo = sc.fifo;
  std::vector<std::uint32_t>& fifo_head = sc.fifo_head;
  std::vector<double>& engine_free = sc.engine_free;
  std::vector<double>& engine_busy = sc.engine_busy;

  // First pass: op states, per-engine FIFOs, dependency/barrier counts and
  // byte accounting.
  sc.dep_offsets.assign(max_id + 2, 0);
  std::uint32_t max_epoch = 0;
  double total_cycles = 0;
  for (std::uint32_t s = 0; s < num_subcores; ++s) {
    for (const TraceOp& op : trace.per_subcore[s]) {
      OpState& o = st[op.id];
      o.op = &op;
      o.engine = s * kNumEngineKinds + static_cast<std::uint32_t>(op.engine);
      fifo[o.engine].push_back(op.id);
      o.pending_deps = op.num_deps;
      for (std::uint8_t d = 0; d < op.num_deps; ++d) {
        ++sc.dep_offsets[op.deps[d] + 1];
      }
      if (op.kind == TraceOp::Kind::Barrier) {
        max_epoch = std::max(max_epoch, op.barrier_epoch);
      }
      if (op.kind == TraceOp::Kind::Transfer) {
        if (op.gm_write) {
          rep.gm_write_bytes += op.bytes;
        } else {
          rep.gm_read_bytes += op.bytes;
        }
      }
      total_cycles += op.cycles;
      ++rep.num_ops;
    }
  }

  // Launch-shape watchdog scaling: grow the deadline with a serial-work
  // estimate of *this* trace so a giant-but-healthy launch is never
  // misclassified as a hang by a deadline tuned for small ones. Real hangs
  // are unaffected — a wedged engine never completes, and the t_next >= inf
  // check below converts it to TimeoutError regardless of the deadline.
  if (watchdog < kInf && cfg_.watchdog_scale > 0) {
    const double total_bytes =
        static_cast<double>(rep.gm_read_bytes + rep.gm_write_bytes);
    const double t_ref =
        total_bytes / (cfg_.hbm_bandwidth * cfg_.hbm_efficiency) +
        cfg_.cycles_to_s(total_cycles);
    watchdog += cfg_.watchdog_scale * t_ref;
  }

  // Dependents and barrier groups in CSR form. Fill order matches the old
  // push_back order (sub-cores ascending, ops in trace order), so the
  // scheduler examines edges in exactly the same sequence as before.
  for (std::uint32_t i = 1; i <= max_id + 1; ++i) {
    sc.dep_offsets[i] += sc.dep_offsets[i - 1];
  }
  sc.dep_edges.resize(sc.dep_offsets[max_id + 1]);
  sc.dep_fill.assign(max_id + 1, 0);
  sc.barrier_offsets.assign(max_epoch + 2, 0);
  sc.barrier_started.assign(max_epoch + 1, 0);
  for (std::uint32_t s = 0; s < num_subcores; ++s) {
    for (const TraceOp& op : trace.per_subcore[s]) {
      for (std::uint8_t d = 0; d < op.num_deps; ++d) {
        const std::uint32_t dep = op.deps[d];
        sc.dep_edges[sc.dep_offsets[dep] + sc.dep_fill[dep]++] = op.id;
      }
      if (op.kind == TraceOp::Kind::Barrier) {
        ++sc.barrier_offsets[op.barrier_epoch + 1];
      }
    }
  }
  for (std::uint32_t e = 1; e <= max_epoch + 1; ++e) {
    sc.barrier_offsets[e] += sc.barrier_offsets[e - 1];
  }
  sc.barrier_members.resize(sc.barrier_offsets[max_epoch + 1]);
  sc.barrier_fill.assign(max_epoch + 1, 0);
  for (std::uint32_t s = 0; s < num_subcores; ++s) {
    for (const TraceOp& op : trace.per_subcore[s]) {
      if (op.kind != TraceOp::Kind::Barrier) continue;
      const std::uint32_t ep = op.barrier_epoch;
      sc.barrier_members[sc.barrier_offsets[ep] + sc.barrier_fill[ep]++] =
          op.id;
    }
  }

  // Fault decisions are made up-front in trace order — (sub-core, per-sub-
  // core transfer ordinal) keys are interleaving-independent, so the same
  // plan seed yields the same decisions on every run.
  sc.subcore_scale.assign(num_subcores, 1.0);
  std::vector<double>& subcore_scale = sc.subcore_scale;
  sc.op_fault.clear();
  std::vector<FaultKind>& op_fault = sc.op_fault;
  if (inj != nullptr) {
    const std::uint64_t launch = inj->begin_launch();
    op_fault.assign(max_id + 1, FaultKind::None);
    for (std::uint32_t s = 0; s < num_subcores; ++s) {
      subcore_scale[s] = inj->clock_scale(launch, s);
      if (subcore_scale[s] != 1.0) ++rep.throttled_subcores;
      std::uint32_t transfer_ordinal = 0;
      for (const TraceOp& op : trace.per_subcore[s]) {
        if (op.kind != TraceOp::Kind::Transfer) continue;
        op_fault[op.id] = inj->transfer_fault(launch, s, transfer_ordinal++);
      }
    }
  }
  std::uint64_t hangs_started = 0;
  int first_hang_subcore = -1;

  HbmArbiter& arbiter = sc.arbiter;
  arbiter.reset(cfg_.hbm_bandwidth * cfg_.hbm_efficiency, cfg_.l2_bandwidth);

  // Aborts the run at simulated time `t`, surfacing the partial report
  // inside a typed error so callers can account for the wasted attempt.
  auto abort_run = [&](FaultKind kind, double t, int subcore,
                       const char* what) {
    rep.time_s = t;
    rep.hbm_busy_s = arbiter.hbm_busy_time();
    std::ostringstream os;
    os << what << " (kernel aborted at t=" << t << "s, sub-core " << subcore
       << ")";
    switch (kind) {
      case FaultKind::MteTransient:
        ++rep.mte_faults;
        throw TransferError(os.str(), kind, rep, subcore);
      case FaultKind::EccDouble:
        ++rep.ecc_double;
        throw EccError(os.str(), kind, rep, subcore);
      default:
        rep.hangs += hangs_started;
        throw TimeoutError(os.str(), FaultKind::Hang, rep, subcore);
    }
  };

  EventQueue& events = sc.events;
  events.clear();  // an aborted run may have left events behind
  sc.flow_to_op.clear();  // flow handle -> op id; 0 = no in-flight op

  double now = cfg_.launch_overhead_s;
  std::uint64_t remaining_ops = rep.num_ops;

  sc.hot_engines.clear();
  sc.hot_next.clear();
  std::vector<std::uint32_t>& hot_engines = sc.hot_engines;
  std::vector<std::uint32_t>& hot = sc.hot_next;
  for (std::uint32_t e = 0; e < num_engines; ++e) {
    if (!fifo[e].empty()) hot_engines.push_back(e);
  }

  auto on_finished = [&](std::uint32_t id, double t,
                         std::vector<std::uint32_t>& hot_out) {
    OpState& o = st[id];
    if (o.finish >= 0) return;  // already completed
    o.finish = t;
    const std::uint32_t e = o.engine;
    if (!o.engine_released) {
      engine_free[e] = t;
      engine_busy[e] += t - o.start;
      o.engine_released = true;
      hot_out.push_back(e);
    }
    const std::uint32_t dep_begin = sc.dep_offsets[id];
    const std::uint32_t dep_end = sc.dep_offsets[id + 1];
    for (std::uint32_t i = dep_begin; i < dep_end; ++i) {
      OpState& d = st[sc.dep_edges[i]];
      ASCAN_ASSERT(d.pending_deps > 0);
      if (--d.pending_deps == 0) hot_out.push_back(d.engine);
    }
    --remaining_ops;
  };

  auto try_start = [&](std::uint32_t e) {
    while (fifo_head[e] < fifo[e].size()) {
      if (engine_free[e] > now + 1e-18) return;  // engine busy
      const std::uint32_t id = fifo[e][fifo_head[e]];
      OpState& o = st[id];
      if (o.pending_deps > 0) return;  // head not ready yet
      const TraceOp& op = *o.op;
      o.started = true;
      o.start = now;
      ++fifo_head[e];
      // Straggler model: a throttled sub-core issues and computes slower
      // across the board (its clock is scaled down, not one engine).
      const double scale = subcore_scale[op.subcore];
      switch (op.kind) {
        case TraceOp::Kind::Compute:
        case TraceOp::Kind::FlagSet:
        case TraceOp::Kind::FlagWait: {
          const double dur = cfg_.cycles_to_s(op.cycles) / scale;
          engine_free[e] = now + dur;
          events.emplace(now + dur, id);
          break;
        }
        case TraceOp::Kind::Transfer: {
          const FaultKind fk =
              op_fault.empty() ? FaultKind::None : op_fault[id];
          if (fk == FaultKind::Hang) {
            // Wedged engine: the op never completes; the watchdog (or the
            // stall detector below) converts this into TimeoutError.
            engine_free[e] = kInf;
            ++hangs_started;
            if (first_hang_subcore < 0) {
              first_hang_subcore = static_cast<int>(op.subcore);
            }
            break;
          }
          double setup = cfg_.cycles_to_s(op.cycles) / scale;
          if (fk == FaultKind::EccSingle) {
            // Correctable ECC: scrub the line in-line and continue.
            setup += cfg_.cycles_to_s(cfg_.ecc_scrub_cycles);
            ++rep.ecc_single;
          }
          if (fk == FaultKind::MteTransient || fk == FaultKind::EccDouble) {
            // The DMA errors right after issue; the abort fires when this
            // event is popped, so earlier completions still count.
            engine_free[e] = kInf;
            events.emplace(now + setup, id);
            break;
          }
          if (op.bytes == 0) {  // degenerate copy: just the setup cost
            engine_free[e] = now + setup;
            events.emplace(now + setup, id);
            break;
          }
          // All GM traffic streams through the L2; misses and dirty
          // write-backs additionally load the HBM pool.
          double hbm_frac = 1.0;
          double l2_frac = 1.0;
          if (l2_ != nullptr && op.gm_addr != 0) {
            const L2Access a = l2_->access(op.gm_addr, op.bytes, op.gm_write);
            rep.l2_hit_bytes += a.hit_bytes;
            hbm_frac = static_cast<double>(a.miss_bytes + a.writeback_bytes) /
                       static_cast<double>(op.bytes);
            if (op.gm_write) {
              // Write-allocate: the written data lands in the L2; only the
              // evicted dirty lines consume HBM bandwidth.
              hbm_frac = static_cast<double>(a.writeback_bytes) /
                         static_cast<double>(op.bytes);
            }
          }
          const std::uint32_t flow = arbiter.add_flow(
              now + setup, static_cast<double>(op.bytes), cfg_.mte_bandwidth,
              hbm_frac, l2_frac);
          if (sc.flow_to_op.size() <= flow) sc.flow_to_op.resize(flow + 1, 0);
          sc.flow_to_op[flow] = id;
          engine_free[e] = kInf;  // MTE handles one DataCopy at a time
          break;
        }
        case TraceOp::Kind::Barrier: {
          engine_free[e] = kInf;  // blocks until the whole epoch arrives
          const std::uint32_t ep = op.barrier_epoch;
          const std::uint32_t cnt = ++sc.barrier_started[ep];
          const std::uint32_t group_begin = sc.barrier_offsets[ep];
          const std::uint32_t group_end = sc.barrier_offsets[ep + 1];
          if (cnt == group_end - group_begin) {
            const double t = now + cfg_.sync_all_s;
            for (std::uint32_t i = group_begin; i < group_end; ++i) {
              events.emplace(t, sc.barrier_members[i]);
            }
          }
          break;
        }
      }
    }
  };

  while (remaining_ops > 0) {
    for (std::uint32_t e : hot_engines) try_start(e);
    hot_engines.clear();

    const double t_event = events.empty() ? kInf : events.top().first;
    const double t_flow = arbiter.next_completion_time();
    const double t_next = std::min(t_event, t_flow);
    if (t_next > watchdog || (t_next >= kInf && hangs_started > 0)) {
      // Watchdog: the launch's simulated clock would pass its deadline
      // (hung engine, or pathological straggler slowness). Poisoned-barrier
      // semantics already released every functional thread, so surfacing
      // the timeout here can never deadlock siblings.
      const double t_abort = watchdog < kInf ? std::max(now, watchdog) : now;
      abort_run(FaultKind::Hang, t_abort, first_hang_subcore,
                hangs_started > 0 ? "watchdog: kernel hang"
                                  : "watchdog: deadline exceeded");
    }
    ASCAN_ASSERT(t_next < kInf, "simulation deadlock with "
                                    << remaining_ops << " ops unreachable");
    now = std::max(now, t_next);

    hot.clear();
    while (!events.empty() && events.top().first <= now + 1e-18) {
      const std::uint32_t id = events.top().second;
      events.pop();
      if (!op_fault.empty() && (op_fault[id] == FaultKind::MteTransient ||
                                op_fault[id] == FaultKind::EccDouble)) {
        abort_run(op_fault[id], now, static_cast<int>(st[id].op->subcore),
                  op_fault[id] == FaultKind::MteTransient
                      ? "transient MTE transfer failure"
                      : "uncorrectable HBM ECC error");
      }
      on_finished(id, now, hot);
    }
    for (std::uint32_t flow : arbiter.advance_and_pop(now)) {
      ASCAN_ASSERT(flow < sc.flow_to_op.size() && sc.flow_to_op[flow] != 0);
      const std::uint32_t id = sc.flow_to_op[flow];
      sc.flow_to_op[flow] = 0;
      // The MTE engine is free to issue its next DMA as soon as the bytes
      // have streamed; consumers of the data observe it one GM latency
      // later (dependent edges resolve at now + latency).
      OpState& o = st[id];
      if (!o.engine_released) {
        engine_free[o.engine] = now;
        engine_busy[o.engine] += now - o.start;
        o.engine_released = true;
        hot.push_back(o.engine);
      }
      events.emplace(now + cfg_.gm_latency_s, id);
    }
    std::swap(hot_engines, hot);
  }

  rep.time_s = now;
  rep.hbm_busy_s = arbiter.hbm_busy_time();

  if (timeline != nullptr) {
    timeline->is_cube_subcore = trace.is_cube_subcore;
    timeline->total_s = now;
    timeline->events.reserve(rep.num_ops);
    for (std::uint32_t su = 0; su < num_subcores; ++su) {
      for (const TraceOp& op : trace.per_subcore[su]) {
        const OpState& o = st[op.id];
        timeline->events.push_back({op.tag, su, op.engine, op.kind, o.start,
                                    o.finish, op.bytes});
      }
    }
  }

  for (std::uint32_t s = 0; s < num_subcores; ++s) {
    const bool cube =
        s < trace.is_cube_subcore.size() && trace.is_cube_subcore[s];
    for (int k = 0; k < kNumEngineKinds; ++k) {
      const double busy = engine_busy[s * kNumEngineKinds + k];
      switch (static_cast<EngineKind>(k)) {
        case EngineKind::Compute:
          (cube ? rep.cube_busy_s : rep.vec_busy_s) += busy;
          break;
        case EngineKind::Scalar:
          rep.scalar_busy_s += busy;
          break;
        default:
          rep.mte_busy_s += busy;
          break;
      }
    }
  }
  return rep;
}

}  // namespace ascend::sim
