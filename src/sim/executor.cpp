#include "sim/executor.hpp"

#include <atomic>
#include <cstdlib>

#include "common/check.hpp"

namespace ascend::sim {

// ---------------------------------------------------------------------------
// Mode resolution

namespace {

const char* env_lower(const char* name, std::string& out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return nullptr;
  out.assign(v);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out.c_str();
}

}  // namespace

ExecutorMode resolve_executor_mode(ExecutorMode requested) {
  if (requested != ExecutorMode::Auto) return requested;
  std::string buf;
  if (env_lower("ASCAN_EXECUTOR", buf) != nullptr) {
    if (buf == "spawn") return ExecutorMode::Spawn;
    if (buf == "pool") return ExecutorMode::Pool;
    throw Error("ASCAN_EXECUTOR must be 'spawn' or 'pool', got '" + buf + "'");
  }
  return ExecutorMode::Pool;
}

// ---------------------------------------------------------------------------
// SubcorePool

SubcorePool::~SubcorePool() {
  word_.fetch_or(kStopBit, std::memory_order_release);
  word_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int SubcorePool::workers() const {
  std::lock_guard<std::mutex> lk(threads_mu_);
  return static_cast<int>(threads_.size());
}

void SubcorePool::ensure_workers(int n) {
  std::lock_guard<std::mutex> lk(threads_mu_);
  while (static_cast<int>(threads_.size()) < n) {
    const int idx = static_cast<int>(threads_.size());
    // A worker spawned now must ignore every launch that already passed: it
    // observes the current word as its starting point. run() publishes this
    // launch's word only after ensure_workers returns, so the newcomer
    // still sees that as a change and participates.
    threads_.emplace_back(&SubcorePool::worker_loop, this, idx,
                          word_.load(std::memory_order_relaxed));
  }
}

void SubcorePool::run(int n, const std::function<void(int)>& body) {
  ASCAN_ASSERT(n > 0 && n <= static_cast<int>(kWidthMask),
               "SubcorePool::run: launch width exceeds the packed word");
  ASCAN_ASSERT(body_ == nullptr, "SubcorePool::run is not reentrant");
  ensure_workers(n);
  body_ = &body;
  done_.store(0, std::memory_order_relaxed);
  const std::uint32_t prev = word_.load(std::memory_order_relaxed);
  const std::uint32_t next =
      (gen_of(prev) + kGenOne) | static_cast<std::uint32_t>(n);
  // The release-store publishes body_ and the done_ reset to every worker
  // that acquire-loads the new word.
  word_.store(next, std::memory_order_release);
  word_.notify_all();
  // Wait for the whole launch on the done flag, not the countdown: only
  // the last worker's store changes it, so the intermediate n-1 decrements
  // cannot wake the dispatcher.
  const std::uint32_t gen = gen_of(next);
  for (std::uint32_t f = done_flag_.load(std::memory_order_acquire);
       f != gen; f = done_flag_.load(std::memory_order_acquire)) {
    done_flag_.wait(f, std::memory_order_acquire);
  }
  body_ = nullptr;
}

void SubcorePool::worker_loop(int worker_idx, std::uint32_t start_word) {
  std::uint32_t seen = start_word;
  for (;;) {
    std::uint32_t w = word_.load(std::memory_order_acquire);
    while (w == seen) {
      word_.wait(w, std::memory_order_acquire);
      w = word_.load(std::memory_order_acquire);
    }
    if ((w & kStopBit) != 0) return;
    seen = w;
    const int n = static_cast<int>(w & kWidthMask);
    if (worker_idx >= n) continue;  // not assigned; never touch body_/done_
    (*body_)(worker_idx);
    // acq_rel so the release sequence on done_ chains every sibling's body
    // effects into the last increment, whose done_flag_ release-store the
    // dispatcher acquires — run() returns with all n bodies visible.
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        static_cast<std::uint32_t>(n)) {
      done_flag_.store(gen_of(w), std::memory_order_release);
      done_flag_.notify_one();
    }
  }
}

}  // namespace ascend::sim
