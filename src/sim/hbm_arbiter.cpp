#include "sim/hbm_arbiter.hpp"

#include <algorithm>
#include <cmath>

namespace ascend::sim {

namespace {
constexpr double kEps = 1e-15;      // seconds; completion-time tolerance
constexpr double kByteEps = 1e-6;   // bytes considered "done"
}  // namespace

void HbmArbiter::reset(double hbm_bytes_per_s, double l2_bytes_per_s) {
  hbm_bw_ = hbm_bytes_per_s;
  l2_bw_ = l2_bytes_per_s;
  last_update_ = 0;
  next_completion_ = kInf;
  hbm_busy_time_ = 0;
  hbm_active_ = 0;
  flows_.clear();
  active_slots_.clear();
  free_slots_cached_.clear();
  done_.clear();
}

std::uint32_t HbmArbiter::add_flow(double now, double bytes, double rate_cap,
                                   double hbm_frac, double l2_frac) {
  ASCAN_ASSERT(bytes > 0 && rate_cap > 0);
  advance_to(now);
  Flow f;
  f.remaining = bytes;
  f.cap = rate_cap;
  f.hbm_frac = std::max(hbm_frac, 0.0);
  f.l2_frac = std::max(l2_frac, 0.0);
  f.active = true;
  std::uint32_t handle;
  // Reuse finished slots to keep the vector compact across long kernels.
  if (!free_slots_cached_.empty()) {
    handle = free_slots_cached_.back();
    free_slots_cached_.pop_back();
    flows_[handle] = f;
  } else {
    handle = static_cast<std::uint32_t>(flows_.size());
    flows_.push_back(f);
  }
  // Keep active_slots_ sorted so every sweep visits flows in ascending slot
  // order (bit-identical FP summation vs. the full-vector scan it replaces).
  active_slots_.insert(
      std::lower_bound(active_slots_.begin(), active_slots_.end(), handle),
      handle);
  if (f.hbm_frac > 0.0) ++hbm_active_;
  recompute_rates();
  return handle;
}

void HbmArbiter::advance_to(double now) {
  const double dt = now - last_update_;
  if (dt <= 0) {
    last_update_ = std::max(last_update_, now);
    return;
  }
  for (std::uint32_t i : active_slots_) {
    Flow& f = flows_[i];
    f.remaining -= f.rate * dt;
  }
  // Assigned rates are strictly positive, so the HBM pool is busy exactly
  // while some active flow demands HBM bytes.
  if (hbm_active_ > 0) hbm_busy_time_ += dt;
  last_update_ = now;
}

const std::vector<std::uint32_t>& HbmArbiter::advance_and_pop(double now) {
  advance_to(now);
  done_.clear();
  std::size_t keep = 0;
  for (std::size_t k = 0; k < active_slots_.size(); ++k) {
    const std::uint32_t i = active_slots_[k];
    Flow& f = flows_[i];
    if (f.remaining <= kByteEps) {
      f.active = false;
      if (f.hbm_frac > 0.0) --hbm_active_;
      done_.push_back(i);
      free_slots_cached_.push_back(i);
    } else {
      active_slots_[keep++] = i;  // compaction preserves ascending order
    }
  }
  if (!done_.empty()) {
    active_slots_.resize(keep);
    recompute_rates();
  } else if (active_slots_.empty()) {
    recompute_rates();
  }
  return done_;
}

void HbmArbiter::recompute_rates() {
  if (active_slots_.empty()) {
    next_completion_ = kInf;
    return;
  }
  // Start at cap, then repeatedly throttle the pool that is oversubscribed.
  for (std::uint32_t i : active_slots_) {
    flows_[i].rate = flows_[i].cap;
  }
  auto throttle_pool = [&](double limit, double Flow::* frac) {
    double use = 0;
    for (std::uint32_t i : active_slots_) {
      const Flow& f = flows_[i];
      use += f.rate * f.*frac;
    }
    if (use <= limit * (1 + 1e-9)) return false;
    const double scale = limit / use;
    for (std::uint32_t i : active_slots_) {
      Flow& f = flows_[i];
      if (f.*frac > 0.0) f.rate *= scale;
    }
    return true;
  };
  for (int iter = 0; iter < 16; ++iter) {
    bool changed = throttle_pool(hbm_bw_, &Flow::hbm_frac);
    changed = throttle_pool(l2_bw_, &Flow::l2_frac) || changed;
    if (!changed) break;
  }
  next_completion_ = kInf;
  for (std::uint32_t i : active_slots_) {
    const Flow& f = flows_[i];
    ASCAN_ASSERT(f.rate > 0);
    next_completion_ =
        std::min(next_completion_, last_update_ + f.remaining / f.rate + kEps);
  }
}

}  // namespace ascend::sim
