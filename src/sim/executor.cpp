#include "sim/executor.hpp"

#include <sys/mman.h>
#include <unistd.h>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <algorithm>
#include <cstddef>
#include <cstring>
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
    // A helper spawned now must ignore every dispatch that already passed:
    // it observes the current word as its starting point. start()
    // publishes this dispatch's word only after ensure_helpers returns, so
    // the newcomer still sees that as a change and participates.
    threads_.emplace_back(&SubcorePool::helper_loop, this, carrier,
                          word_.load(std::memory_order_relaxed));
  }
}

void SubcorePool::start(int n, const FnRef<void(int)>& carrier) {
  ASCAN_ASSERT(n > 1 && n <= static_cast<int>(kWidthMask),
               "SubcorePool::start: carrier count outside the packed word");
  ASCAN_ASSERT(carrier_ == nullptr, "SubcorePool::start is not reentrant");
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
}

void SubcorePool::join() {
  // Wait on the done flag, not the countdown: only the last helper's
  // store changes it. Only the dispatcher writes word_'s generation.
  const std::uint32_t gen = gen_of(word_.load(std::memory_order_relaxed));
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
    // effects into the last increment, whose done_flag_ release-store
    // join() acquires — it returns with all carriers visible.
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 2 ==
        static_cast<std::uint32_t>(n)) {
      done_flag_.store(gen_of(w), std::memory_order_release);
      done_flag_.notify_one();
    }
  }
}

// ---------------------------------------------------------------------------
// Context switch: prepare a context that starts `entry` on a fresh stack,
// and switch from one context to another, saving the first.

namespace {

#if defined(__x86_64__)

extern "C" void ascan_fiber_jump(void** save_sp, void* load_sp);

// Pushes what the System V ABI makes callee-saved — rbx, rbp, r12-r15,
// the MXCSR control bits and the x87 control word — stores the stack
// pointer to *save_sp, loads load_sp and pops the same set from there
// (the frame layout of Boost.Context's fcontext). Every other register is
// caller-saved, so the compiler already spilled it around the call. No
// signal mask is touched, so no syscall is made.
asm(R"(
    .pushsection .text
    .p2align 4
    .globl ascan_fiber_jump
    .hidden ascan_fiber_jump
    .type ascan_fiber_jump, @function
ascan_fiber_jump:
    subq $56, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %r12, 8(%rsp)
    movq %r13, 16(%rsp)
    movq %r14, 24(%rsp)
    movq %r15, 32(%rsp)
    movq %rbx, 40(%rsp)
    movq %rbp, 48(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    movq 8(%rsp), %r12
    movq 16(%rsp), %r13
    movq 24(%rsp), %r14
    movq 32(%rsp), %r15
    movq 40(%rsp), %rbx
    movq 48(%rsp), %rbp
    addq $56, %rsp
    ret
    .size ascan_fiber_jump, .-ascan_fiber_jump
    .popsection
)");

struct Context {
  void* sp = nullptr;
};

/// Lays out the frame ascan_fiber_jump pops at the top of the stack: zero
/// registers, the caller's FP control words, and `entry` as the return
/// address, above which a null return address ends stack unwinding.
void context_prepare(Context& c, void* stack, std::size_t bytes,
                     void (*entry)()) {
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack) + bytes) & ~std::uintptr_t{15};
  auto* sp = reinterpret_cast<std::uint64_t*>(top);
  *--sp = 0;
  *--sp = reinterpret_cast<std::uint64_t>(entry);
  sp -= 7;
  std::memset(sp, 0, 7 * sizeof(std::uint64_t));
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  std::memcpy(sp, &mxcsr, sizeof(mxcsr));
  std::memcpy(reinterpret_cast<std::byte*>(sp) + 4, &fpu_cw, sizeof(fpu_cw));
  c.sp = sp;
}

void context_switch(Context& from, const Context& to) {
  ascan_fiber_jump(&from.sp, to.sp);
}

#else  // other architectures: glibc ucontext, one sigprocmask per switch

struct Context {
  ucontext_t uc{};
};

void context_prepare(Context& c, void* stack, std::size_t bytes,
                     void (*entry)()) {
  ::getcontext(&c.uc);
  c.uc.uc_stack.ss_sp = stack;
  c.uc.uc_stack.ss_size = bytes;
  c.uc.uc_link = nullptr;
  ::makecontext(&c.uc, entry, 0);
}

void context_switch(Context& from, const Context& to) {
  ::swapcontext(&from.uc, &to.uc);
}

#endif

// ---------------------------------------------------------------------------
// Fibers

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::size_t kStackBytes = std::size_t{4} << 20;
#else
constexpr std::size_t kStackBytes = std::size_t{1} << 20;
#endif

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
  Context ctx;
  int subcore = 0;
  bool done = false;
  /// Next fiber claimed by the same carrier in this launch.
  Fiber* next = nullptr;
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
using Clock = std::chrono::steady_clock;

/// Carriers available to one launch: one per host core.
int max_carriers() {
  static const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return hw;
}

/// State shared by the carriers of one launch.
struct Launch {
  Launch(FnRef<void(int)> b, FnRef<void()> p) : body(b), poison(p) {}

  /// Bumped by every change a blocked fiber may wait for; idle carriers
  /// sleep on it.
  alignas(64) std::atomic<std::uint32_t> progress{0};
  /// Next block no carrier has claimed yet.
  alignas(64) std::atomic<int> next_block{0};
  int blocks = 0;
  int per_block = 0;
  const std::unique_ptr<Fiber>* fibers = nullptr;  ///< indexed by sub-core
  FnRef<void(int)> body;
  FnRef<void()> poison;

  // Helper recruitment, read and written by the calling thread only.
  SubcorePool* pool = nullptr;
  const FnRef<void(int)>* helper = nullptr;  ///< carrier body of helpers
  bool may_recruit = false;
  bool recruited = false;
  Clock::time_point start;

  // Deadlock detection (slow path only: taken when a carrier has nothing
  // to run and no block to claim). A deadlock is every live carrier idle
  // at the same progress value: no fiber is running and none can start,
  // so nothing can bump the word again.
  std::mutex idle_mu;
  int live_carriers = 1;   ///< the caller, plus every helper that joined
  int idle_carriers = 0;   ///< carriers asleep at progress == idle_word
  std::uint32_t idle_word = 0;
  bool deadlocked = false;
};

/// What a carrier thread knows while it runs a launch.
struct Carrier {
  Launch* launch = nullptr;
  Fiber* head = nullptr;    ///< fibers claimed, in claim order
  Fiber* tail = nullptr;
  Fiber* cursor = nullptr;  ///< next fiber the current round visits
  std::size_t live = 0;     ///< unfinished fibers of this carrier
  bool resumed = false;     ///< the current round ran a fiber
  Context ctx;              ///< carrier context while its fibers run
  Fiber* current = nullptr;  ///< running fiber, or null
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

void fiber_entry();

/// The next fiber of the carrier's current round whose wait predicate
/// holds, in claim order, or null once the round has visited them all.
Fiber* next_in_round(Carrier& c) {
  while (c.cursor != nullptr) {
    Fiber* f = c.cursor;
    c.cursor = f->next;
    if (f->done) continue;
    if (f->ready != nullptr && !f->ready(f->ready_arg)) continue;
    f->ready = nullptr;
    c.resumed = true;
    return f;
  }
  return nullptr;
}

/// Claims the next unclaimed block for `c` and prepares its fibers.
/// Returns false once every block has been claimed.
bool claim_block(Carrier& c) {
  Launch& l = *c.launch;
  if (l.next_block.load(std::memory_order_relaxed) >= l.blocks) return false;
  const int b = l.next_block.fetch_add(1, std::memory_order_relaxed);
  if (b >= l.blocks) return false;
  if (c.live == 0) c.head = c.tail = nullptr;  // drop finished fibers
  for (int i = 0; i < l.per_block; ++i) {
    const int s = b * l.per_block + i;
    Fiber& f = *l.fibers[s];
    f.subcore = s;
    f.done = false;
    f.ready = nullptr;
    f.next = nullptr;
#if defined(__SANITIZE_ADDRESS__)
    f.fake_stack = nullptr;
#endif
    context_prepare(f.ctx, f.stack(), kStackBytes, &fiber_entry);
    (c.tail != nullptr ? c.tail->next : c.head) = &f;
    c.tail = &f;
  }
  c.live += static_cast<std::size_t>(l.per_block);
  return true;
}

/// Called on the calling thread at each fiber boundary: once the launch
/// has run past the budget with blocks left unclaimed, wakes helpers to
/// claim them.
void maybe_recruit(Launch& l) {
  if (!l.may_recruit) return;
  const int unclaimed =
      l.blocks - l.next_block.load(std::memory_order_relaxed);
  if (unclaimed <= 0) return;
  if (Clock::now() - l.start < FiberExecutor::kHelperBudget) return;
  l.may_recruit = false;
  l.recruited = true;
  l.pool->start(1 + std::min(unclaimed, max_carriers() - 1), *l.helper);
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
/// never resumed, so its fake stack is released. Returns when `from` is
/// resumed.
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
#else
  (void)final;
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to != nullptr ? to->tsan_fiber : c.tsan_fiber, 0);
#endif
  context_switch(from != nullptr ? from->ctx : c.ctx,
                 to != nullptr ? to->ctx : c.ctx);
  arrived(c, from);
}

void fiber_entry() {
  Carrier& c = *tl_carrier;
  Fiber& f = *c.current;
  arrived(c, &f);
  try {
    c.launch->body(f.subcore);
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
  l.poison();
  fiber_progress();
}

/// Carrier `idx` of a launch: 0 is the calling thread, the rest are
/// helpers that joined part-way.
void run_carrier(Launch& l, int idx) noexcept {
  Carrier c;
  c.launch = &l;
#if defined(__SANITIZE_THREAD__)
  c.tsan_fiber = __tsan_get_current_fiber();
#endif
  tl_carrier = &c;
  if (idx > 0) {
    // Join the deadlock count before claiming anything: a carrier only
    // idles once no block is left to claim, so no carrier can find the
    // launch deadlocked while this one may still run a block.
    std::lock_guard<std::mutex> lk(l.idle_mu);
    ++l.live_carriers;
  }
  // One round visits every claimed fiber once; it ends back on the
  // carrier when the last fiber it ran yields or finishes with nothing
  // left to visit. A carrier claims the next block when all its fibers
  // have finished or are parked, and idles only when none is left.
  for (;;) {
    const std::uint32_t snap = l.progress.load();
    c.cursor = c.head;
    c.resumed = false;
    if (Fiber* f = next_in_round(c)) transfer(c, nullptr, f, false);
    if (idx == 0) maybe_recruit(l);
    if (c.live > 0 && c.resumed) continue;
    if (claim_block(c)) continue;
    if (c.live == 0) break;
    if (!idle_wait(l, snap)) declare_deadlock(l);
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
  // resumes on the thread that claimed its block — and nothing yields
  // inside an intrinsic, only at SyncAll and cross-core flag waits, so no
  // thread_local state is live across a switch to a sibling fiber.
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

bool FiberExecutor::run(int blocks, int per_block, FnRef<void(int)> body,
                        FnRef<void()> poison) {
  const std::size_t n = static_cast<std::size_t>(std::max(blocks, 0)) *
                        static_cast<std::size_t>(std::max(per_block, 0));
  if (n == 0) return true;
  while (fibers_.size() < n) fibers_.push_back(std::make_unique<Fiber>());

  Launch l(body, poison);
  l.blocks = blocks;
  l.per_block = per_block;
  l.fibers = fibers_.data();
  const auto helper = [&l](int idx) { run_carrier(l, idx); };
  const FnRef<void(int)> helper_ref(helper);
  l.pool = &helpers_;
  l.helper = &helper_ref;
  l.may_recruit = blocks > 1 && max_carriers() > 1;
  if (l.may_recruit) l.start = Clock::now();
  run_carrier(l, 0);
  if (l.recruited) helpers_.join();
  return !l.deadlocked;
}

}  // namespace ascend::sim
