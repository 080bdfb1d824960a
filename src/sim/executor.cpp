#include "sim/executor.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <exception>

#include "common/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace ascend::sim {

// ---------------------------------------------------------------------------
// SubcorePool: helper carriers

SubcorePool::~SubcorePool() {
  word_.fetch_or(kStopBit, std::memory_order_release);
  word_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int SubcorePool::helpers() const {
  std::lock_guard<std::mutex> lk(threads_mu_);
  return static_cast<int>(threads_.size());
}

void SubcorePool::ensure_helpers(int n) {
  std::lock_guard<std::mutex> lk(threads_mu_);
  while (static_cast<int>(threads_.size()) < n) {
    const int carrier = static_cast<int>(threads_.size()) + 1;
    // A helper spawned now must ignore every launch that already passed:
    // it observes the current word as its starting point. run() publishes
    // this launch's word only after ensure_helpers returns, so the
    // newcomer still sees that as a change and participates.
    threads_.emplace_back(&SubcorePool::helper_loop, this, carrier,
                          word_.load(std::memory_order_relaxed));
  }
}

void SubcorePool::run(int n, const std::function<void(int)>& carrier) {
  ASCAN_ASSERT(n > 0 && n <= static_cast<int>(kWidthMask),
               "SubcorePool::run: carrier count exceeds the packed word");
  if (n == 1) {
    carrier(0);
    return;
  }
  ASCAN_ASSERT(carrier_ == nullptr, "SubcorePool::run is not reentrant");
  ensure_helpers(n - 1);
  carrier_ = &carrier;
  done_.store(0, std::memory_order_relaxed);
  const std::uint32_t prev = word_.load(std::memory_order_relaxed);
  const std::uint32_t next =
      (gen_of(prev) + kGenOne) | static_cast<std::uint32_t>(n);
  // The release-store publishes carrier_ and the done_ reset to every
  // helper that acquire-loads the new word.
  word_.store(next, std::memory_order_release);
  word_.notify_all();
  carrier(0);
  // Wait for the helpers on the done flag, not the countdown: only the
  // last helper's store changes it.
  const std::uint32_t gen = gen_of(next);
  for (std::uint32_t f = done_flag_.load(std::memory_order_acquire);
       f != gen; f = done_flag_.load(std::memory_order_acquire)) {
    done_flag_.wait(f, std::memory_order_acquire);
  }
  carrier_ = nullptr;
}

void SubcorePool::helper_loop(int carrier_idx, std::uint32_t start_word) {
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
    if (carrier_idx >= n) continue;  // not assigned; never touch carrier_
    (*carrier_)(carrier_idx);
    // acq_rel so the release sequence on done_ chains every helper's
    // effects into the last increment, whose done_flag_ release-store the
    // dispatcher acquires — run() returns with all carriers visible.
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 2 ==
        static_cast<std::uint32_t>(n)) {
      done_flag_.store(gen_of(w), std::memory_order_release);
      done_flag_.notify_one();
    }
  }
}

// ---------------------------------------------------------------------------
// Fibers

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::size_t kStackBytes = std::size_t{4} << 20;
#else
constexpr std::size_t kStackBytes = std::size_t{1} << 20;
#endif

/// State shared by the carriers of one launch.
struct Launch {
  /// Bumped by every change a blocked fiber may wait for; idle carriers
  /// sleep on it.
  alignas(64) std::atomic<std::uint32_t> progress{0};
  const std::function<void(int)>* body = nullptr;
  const std::function<void()>* poison = nullptr;
  const std::vector<std::vector<FiberExecutor::Fiber*>>* per_carrier = nullptr;

  // Deadlock detection (slow path only: taken when a carrier has nothing
  // to run). A deadlock is every live carrier idle at the same progress
  // value: no fiber is running, so nothing can bump the word again.
  std::mutex idle_mu;
  int live_carriers = 0;   ///< carriers with unfinished fibers
  int idle_carriers = 0;   ///< carriers asleep at progress == idle_word
  std::uint32_t idle_word = 0;
  bool deadlocked = false;
};

/// What a carrier thread knows while it runs a launch.
struct Carrier {
  Launch* launch = nullptr;
  const std::vector<FiberExecutor::Fiber*>* mine = nullptr;
  std::size_t live = 0;     ///< unfinished fibers of this carrier
  std::size_t cursor = 0;   ///< next fiber the current round visits
  bool resumed = false;     ///< the current round ran a fiber
  ucontext_t ctx{};         ///< carrier context while its fibers run
  FiberExecutor::Fiber* current = nullptr;  ///< running fiber, or null
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  bool left_carrier = false;  ///< the last switch started on the carrier
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_fiber = nullptr;
#endif
};

thread_local Carrier* tl_carrier = nullptr;

}  // namespace

struct FiberExecutor::Fiber {
  Fiber() {
    const long page = ::sysconf(_SC_PAGESIZE);
    guard = static_cast<std::size_t>(page > 0 ? page : 4096);
    void* p = ::mmap(nullptr, kStackBytes + guard, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    ASCAN_CHECK(p != MAP_FAILED, "fiber stack allocation failed");
    mapping = static_cast<std::byte*>(p);
    // The lowest page traps stack overflow instead of corrupting a
    // neighbour.
    ::mprotect(mapping, guard, PROT_NONE);
    ::getcontext(&ctx);
#if defined(__SANITIZE_THREAD__)
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }
  ~Fiber() {
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsan_fiber);
#endif
    ::munmap(mapping, kStackBytes + guard);
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  void* stack() const { return mapping + guard; }

  std::byte* mapping = nullptr;
  std::size_t guard = 0;
  ucontext_t ctx{};
  int subcore = 0;
  bool done = false;
  /// Wait predicate of a blocked fiber (null: runnable).
  bool (*ready)(void*) = nullptr;
  void* ready_arg = nullptr;
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_fiber = nullptr;
#endif
};

namespace {

using Fiber = FiberExecutor::Fiber;

void fiber_entry();

/// Prepares `f` to start the launch body from the top of its stack.
void start_fresh(Fiber& f) {
  f.done = false;
  f.ready = nullptr;
#if defined(__SANITIZE_ADDRESS__)
  f.fake_stack = nullptr;
#endif
  f.ctx.uc_stack.ss_sp = f.stack();
  f.ctx.uc_stack.ss_size = kStackBytes;
  f.ctx.uc_link = nullptr;
  ::makecontext(&f.ctx, &fiber_entry, 0);
}

/// The next fiber of the carrier's current round whose wait predicate
/// holds, in sub-core order, or null once the round has visited them all.
Fiber* next_in_round(Carrier& c) {
  while (c.cursor < c.mine->size()) {
    Fiber* f = (*c.mine)[c.cursor++];
    if (f->done) continue;
    if (f->ready != nullptr && !f->ready(f->ready_arg)) continue;
    f->ready = nullptr;
    c.resumed = true;
    return f;
  }
  return nullptr;
}

/// Called right after a switch lands in `self` (null: the carrier).
void arrived([[maybe_unused]] Carrier& c, [[maybe_unused]] Fiber* self) {
#if defined(__SANITIZE_ADDRESS__)
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(
      self != nullptr ? self->fake_stack : c.fake_stack, &from_bottom,
      &from_size);
  if (c.left_carrier) {  // learn the carrier's stack for switches back
    c.stack_bottom = from_bottom;
    c.stack_size = from_size;
  }
#endif
}

/// Switches from `from` to `to` (null on either side: the carrier).
/// Fibers hand over to the next runnable fiber of the round directly, so a
/// fiber that runs straight through costs one switch, not a round trip
/// through the carrier. A finished fiber passes `final`: its context is
/// never resumed, so nothing is saved and its fake stack is released.
/// Returns when `from` is resumed.
void transfer(Carrier& c, Fiber* from, Fiber* to, bool final) {
  c.current = to;
  // Every switch is bracketed by the sanitizer fiber hooks: ASan must
  // learn the stack it lands on (or it reports false stack overflows on
  // the foreign stack), TSan the logical thread that runs next.
#if defined(__SANITIZE_ADDRESS__)
  c.left_carrier = from == nullptr;
  void** save = from != nullptr ? &from->fake_stack : &c.fake_stack;
  __sanitizer_start_switch_fiber(final ? nullptr : save,
                                 to != nullptr ? to->stack() : c.stack_bottom,
                                 to != nullptr ? kStackBytes : c.stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to != nullptr ? to->tsan_fiber : c.tsan_fiber, 0);
#endif
  ucontext_t* target = to != nullptr ? &to->ctx : &c.ctx;
  if (final) {
    ::setcontext(target);
  } else {
    ::swapcontext(from != nullptr ? &from->ctx : &c.ctx, target);
  }
  arrived(c, from);
}

void fiber_entry() {
  Carrier& c = *tl_carrier;
  Fiber& f = *c.current;
  arrived(c, &f);
  try {
    (*c.launch->body)(f.subcore);
  } catch (...) {
    // The launch wrapper catches per sub-core; a throw reaching here is a
    // bug, and unwinding past the fiber's first frame is impossible.
    std::terminate();
  }
  f.done = true;
  --c.live;
  transfer(c, &f, next_in_round(c), /*final=*/true);
}

/// Sleeps until the progress word leaves `snap`, or detects a deadlock.
/// Returns false if this carrier found the launch deadlocked.
bool idle_wait(Launch& l, std::uint32_t snap) {
  {
    std::lock_guard<std::mutex> lk(l.idle_mu);
    if (l.progress.load() != snap) return true;
    if (l.idle_word != snap) {
      l.idle_word = snap;
      l.idle_carriers = 0;
    }
    if (++l.idle_carriers == l.live_carriers) {
      --l.idle_carriers;
      if (l.deadlocked) return true;  // poison is already under way
      l.deadlocked = true;
      return false;
    }
  }
  l.progress.wait(snap);
  std::lock_guard<std::mutex> lk(l.idle_mu);
  if (l.idle_word == snap && l.idle_carriers > 0) --l.idle_carriers;
  return true;
}

void declare_deadlock(Launch& l) {
  (*l.poison)();
  fiber_progress();
}

void run_carrier(Launch& l, int idx) noexcept {
  Carrier c;
  c.launch = &l;
  c.mine = &(*l.per_carrier)[static_cast<std::size_t>(idx)];
  c.live = c.mine->size();
#if defined(__SANITIZE_THREAD__)
  c.tsan_fiber = __tsan_get_current_fiber();
#endif
  tl_carrier = &c;
  // Each carrier prepares its own fibers, in parallel with the others and
  // off the dispatcher's critical path.
  for (Fiber* f : *c.mine) start_fresh(*f);
  // One round visits every fiber once; it ends back on the carrier when
  // the last fiber it ran yields or finishes with nothing left to visit.
  while (c.live > 0) {
    const std::uint32_t snap = l.progress.load();
    c.cursor = 0;
    c.resumed = false;
    if (Fiber* f = next_in_round(c)) transfer(c, nullptr, f, false);
    if (c.live > 0 && !c.resumed && !idle_wait(l, snap)) declare_deadlock(l);
  }
  bool deadlock = false;
  {
    // The last busy carrier leaving may strand the idle ones: if they all
    // sleep at the current progress value, nothing will ever wake them.
    std::lock_guard<std::mutex> lk(l.idle_mu);
    --l.live_carriers;
    if (l.live_carriers > 0 && !l.deadlocked &&
        l.idle_word == l.progress.load() &&
        l.idle_carriers == l.live_carriers) {
      l.deadlocked = deadlock = true;
    }
  }
  if (deadlock) declare_deadlock(l);
  tl_carrier = nullptr;
}

}  // namespace

namespace detail {

void fiber_block(bool (*ready)(void*), void* arg) {
  Carrier* c = tl_carrier;
  ASCAN_ASSERT(c != nullptr && c->current != nullptr,
               "fiber_wait_until called outside a sub-core fiber");
  Fiber& f = *c->current;
  f.ready = ready;
  f.ready_arg = arg;
  // Yield point. Two invariants keep every thread_local of the sub-core
  // code sound (the Mmad scratch rows and widened tiles in
  // ascendc/intrinsics.hpp): a fiber never migrates between carriers — it
  // resumes on the thread it started on — and nothing yields inside an
  // intrinsic, only at SyncAll and cross-core flag waits, so no thread_local
  // state is live across a switch to a sibling fiber.
  transfer(*c, &f, next_in_round(*c), /*final=*/false);
}

}  // namespace detail

void fiber_progress() {
  Carrier* c = tl_carrier;
  if (c == nullptr) return;
  c->launch->progress.fetch_add(1);
  c->launch->progress.notify_all();
}

// ---------------------------------------------------------------------------
// FiberExecutor

FiberExecutor::FiberExecutor() = default;
FiberExecutor::~FiberExecutor() = default;

int FiberExecutor::max_carriers() {
  static const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return hw;
}

bool FiberExecutor::run(const std::vector<int>& carrier_of,
                        const std::function<void(int)>& body,
                        const std::function<void()>& poison) {
  const std::size_t n = carrier_of.size();
  while (fibers_.size() < n) fibers_.push_back(std::make_unique<Fiber>());

  const int carriers =
      n == 0 ? 0 : *std::max_element(carrier_of.begin(), carrier_of.end()) + 1;
  if (carriers == 0) return true;
  per_carrier_.resize(static_cast<std::size_t>(carriers));
  for (auto& mine : per_carrier_) mine.clear();
  for (std::size_t s = 0; s < n; ++s) {
    Fiber& f = *fibers_[s];
    f.subcore = static_cast<int>(s);
    per_carrier_[static_cast<std::size_t>(carrier_of[s])].push_back(&f);
  }
  Launch l;
  l.body = &body;
  l.poison = &poison;
  l.per_carrier = &per_carrier_;
  l.live_carriers = carriers;
  helpers_.run(carriers, [&l](int c) { run_carrier(l, c); });
  return !l.deadlocked;
}

}  // namespace ascend::sim
