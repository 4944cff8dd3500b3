#include "sim/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <ucontext.h>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#define REPRO_FIBER_MMAP_STACKS 1
#endif

// Fast userspace context switch. glibc's swapcontext makes a
// rt_sigprocmask syscall on every switch (~220 ns each way on this class
// of hardware); at three handoffs per rank-step that syscall dominates
// large-p runs. On x86-64 we switch stacks directly, saving only what the
// SysV ABI makes the callee's problem: the six callee-saved GP registers
// plus the MXCSR/x87 control words. Signal masks are per-thread, not
// per-fiber, so skipping them is semantically safe here. Define
// REPRO_FIBER_UCONTEXT to force the portable ucontext path.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(REPRO_FIBER_UCONTEXT)
#define REPRO_FIBER_FAST_SWITCH 1
#endif

#if defined(REPRO_FIBER_FAST_SWITCH)
extern "C" void repro_fiber_swap(void** save_sp, void* load_sp);
asm(R"(
.text
.align 16
.globl repro_fiber_swap
.hidden repro_fiber_swap
.type repro_fiber_swap, @function
repro_fiber_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    retq
.size repro_fiber_swap, .-repro_fiber_swap
)");
#endif

// Sanitizer detection. The engine switches stacks in user space, and both
// sanitizers must be told about every switch: AddressSanitizer's fake-stack
// and stack-bounds bookkeeping corrupts otherwise, and ThreadSanitizer
// would attribute one fiber's accesses to another's shadow stack and
// report the serialized handoffs as races.
#if defined(__SANITIZE_ADDRESS__)
#define REPRO_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#define REPRO_TSAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#ifndef REPRO_ASAN_FIBERS
#define REPRO_ASAN_FIBERS 1
#endif
#endif
#if __has_feature(thread_sanitizer)
#ifndef REPRO_TSAN_FIBERS
#define REPRO_TSAN_FIBERS 1
#endif
#endif
#endif

#if defined(REPRO_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}
#endif

#if defined(REPRO_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

#include "util/error.hpp"

namespace repro::sim {

namespace {

// ASan fiber-switch annotations (no-ops in non-ASan builds). Protocol:
// the context that is about to switch away calls start (saving its fake
// stack and naming the destination stack); the first statement executed in
// the destination calls finish (restoring the destination's fake stack and
// optionally learning the bounds of the stack just left).
inline void asan_start_switch(void** fake_stack_save, const void* bottom,
                              std::size_t size) {
#if defined(REPRO_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

inline void asan_finish_switch(void* fake_stack, const void** bottom_old,
                               std::size_t* size_old) {
#if defined(REPRO_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
#else
  (void)fake_stack;
  if (bottom_old != nullptr) *bottom_old = nullptr;
  if (size_old != nullptr) *size_old = 0;
#endif
}

// TSan fiber annotations (no-ops in non-TSan builds). Each rank fiber
// owns a TSan context from its start until its stack returns to the pool;
// every stack switch is preceded by a switch of TSan's current context.
// Flags 0 make each switch a happens-before edge, which is exactly the
// engine's serialization: only real data races between threads (sweep
// workers running separate engines) remain reportable.
inline void* tsan_current_fiber() {
#if defined(REPRO_TSAN_FIBERS)
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void* tsan_create_fiber() {
#if defined(REPRO_TSAN_FIBERS)
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void tsan_switch_to_fiber(void* fiber) {
#if defined(REPRO_TSAN_FIBERS)
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

inline void tsan_destroy_fiber(void* fiber) {
#if defined(REPRO_TSAN_FIBERS)
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

// Fiber stacks are 4 MiB of address space. Pages are committed on first
// touch, so idle ranks cost a few KB each.
constexpr std::size_t kFiberStackBytes = std::size_t{4} * 1024 * 1024;

#if defined(REPRO_FIBER_FAST_SWITCH)
// Builds the initial stack image repro_fiber_swap's restore path consumes:
// the FP-control word, six zeroed callee-saved registers, the entry
// address its final `ret` jumps to, and a null fake return address so the
// entry function sees an ABI-conformant rsp (≡ 8 mod 16) and a walk off
// its frame faults loudly instead of executing garbage.
void* make_fiber_sp(void* lo, std::size_t size, void (*entry)()) {
  std::uintptr_t top = reinterpret_cast<std::uintptr_t>(lo) + size;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* words = reinterpret_cast<std::uint64_t*>(top);
  words[-1] = 0;  // fake return address for `entry`
  words[-2] = reinterpret_cast<std::uint64_t>(entry);
  for (int i = 3; i <= 8; ++i) words[-i] = 0;  // rbp, rbx, r12..r15
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  words[-9] = static_cast<std::uint64_t>(mxcsr) |
              (static_cast<std::uint64_t>(fcw) << 32);
  return words - 9;
}
#endif

// The engine whose fibers run on this thread; set for the duration of
// run_fibers. Fibers cannot outlive run(), and each engine's fibers all
// live on the thread that called run(), so a plain thread_local suffices
// even with several engines running on different sweep workers. (It must
// be thread_local: a process-wide global here is a data race between
// sweep workers, which sweep_test reports under TSan.)
thread_local Engine* t_fiber_engine = nullptr;

}  // namespace

// One simulated rank: clock, state, inbox, plus its fiber (context and
// stack).
struct Engine::Rank {
  explicit Rank(int id_) : id(id_) {}

  int id;
  double clock = 0.0;
  State state = State::Ready;
  std::deque<Delivery> inbox;

  // The stack is borrowed from the engine's pool on the fiber's first
  // resume and returned the moment the rank finishes, so a run never holds
  // more stacks than it has simultaneously live fibers.
#if defined(REPRO_FIBER_FAST_SWITCH)
  void* fiber_sp = nullptr;  // saved stack pointer while switched away
#else
  ucontext_t ctx{};
#endif
  bool fiber_started = false;
  StackBlock stack;  // empty (base == nullptr) unless started and live
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;  // TSan context while started and live
};

void Engine::free_stack(StackBlock& block) {
  if (block.base == nullptr) return;
#if defined(REPRO_FIBER_MMAP_STACKS)
  (void)munmap(block.base, block.alloc);
#else
  ::operator delete(block.base);
#endif
  block = StackBlock{};
}

Engine::StackBlock Engine::acquire_stack() {
  if (!stack_pool_.empty()) {
    StackBlock block = stack_pool_.back();
    stack_pool_.pop_back();
    return block;
  }
  StackBlock block;
  const std::size_t want = kFiberStackBytes;
#if defined(REPRO_FIBER_MMAP_STACKS)
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t usable = ((want + page - 1) / page) * page;
  const std::size_t total = usable + page;
#if defined(MAP_STACK)
  const int flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK;
#else
  const int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#endif
  void* base = mmap(nullptr, total, PROT_READ | PROT_WRITE, flags, -1, 0);
  REPRO_REQUIRE(base != MAP_FAILED, "fiber stack allocation failed");
  // Guard page below the stack: an overflow faults loudly instead of
  // silently corrupting a neighbouring fiber's stack.
  (void)mprotect(base, page, PROT_NONE);
  block.base = base;
  block.alloc = total;
  block.lo = static_cast<char*>(base) + page;
  block.size = usable;
#else
  block.base = ::operator new(want);
  block.alloc = want;
  block.lo = block.base;
  block.size = want;
#endif
  return block;
}

Engine::Engine(int nranks) {
  REPRO_REQUIRE(nranks >= 1, "engine needs at least one rank");
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    ranks_.push_back(std::make_unique<Rank>(r));
  }
}

Engine::~Engine() {
  for (auto& r : ranks_) {
    tsan_destroy_fiber(r->tsan_fiber);
    free_stack(r->stack);
  }
  for (StackBlock& block : stack_pool_) free_stack(block);
}

int RankCtx::size() const { return engine_->size(); }
double RankCtx::now() const { return engine_->now(rank_); }
void RankCtx::advance(double dt) { engine_->advance(rank_, dt); }
void RankCtx::checkpoint() { engine_->checkpoint(rank_); }
void RankCtx::block() { engine_->block(rank_); }
void RankCtx::post(double time, int dst, Payload payload) {
  engine_->post(time, dst, std::move(payload));
}
std::deque<Delivery>& RankCtx::inbox() { return engine_->inbox(rank_); }

double Engine::now(int rank) const { return ranks_[rank]->clock; }

void Engine::advance(int rank, double dt) {
  REPRO_REQUIRE(dt >= 0.0, "cannot advance a clock backwards");
  ranks_[rank]->clock += dt;
}

void Engine::checkpoint(int rank) {
  // State stays Ready; the scheduler resumes us once we are the
  // minimum-clock runnable rank and all due events are delivered.
  yield_to_scheduler(rank);
}

void Engine::block(int rank) {
  ranks_[rank]->state = State::Blocked;
  yield_to_scheduler(rank);
}

void Engine::post(double time, int dst, Payload payload) {
  REPRO_REQUIRE(dst >= 0 && dst < size(), "post: bad destination rank");
  event_heap_.push_back(Event{time, next_seq_++, dst, std::move(payload)});
  std::push_heap(event_heap_.begin(), event_heap_.end(), std::greater<>{});
}

std::deque<Delivery>& Engine::inbox(int rank) { return ranks_[rank]->inbox; }

void Engine::deliver_front_event() {
  std::pop_heap(event_heap_.begin(), event_heap_.end(), std::greater<>{});
  Event ev = std::move(event_heap_.back());
  event_heap_.pop_back();
  ++events_processed_;
  Rank& dst = *ranks_[ev.dst];
  dst.inbox.push_back(Delivery{ev.time, ev.seq, std::move(ev.payload)});
  if (dst.state == State::Blocked) {
    dst.state = State::Ready;
    // A woken rank resumes no earlier than the arrival that woke it.
    dst.clock = std::max(dst.clock, ev.time);
    push_ready(dst.id);
  }
}

void Engine::push_ready(int rank) {
  ready_heap_.push_back(ReadyEntry{ranks_[rank]->clock, rank});
  std::push_heap(ready_heap_.begin(), ready_heap_.end(), std::greater<>{});
}

void Engine::mark_done(int rank) {
  ranks_[rank]->state = State::Done;
  --live_ranks_;
}

void Engine::deadlock(const std::string& where) const {
  // A deadlock report at p=4096 must stay readable (and cheap to build):
  // summarize the state counts and show only the first few live ranks.
  std::ostringstream os;
  int ready = 0;
  int blocked = 0;
  int done = 0;
  for (const auto& r : ranks_) {
    switch (r->state) {
      case State::Ready:
        ++ready;
        break;
      case State::Blocked:
        ++blocked;
        break;
      case State::Done:
        ++done;
        break;
    }
  }
  os << "simulation deadlock (" << where << "); " << ranks_.size()
     << " ranks: " << ready << " ready, " << blocked << " blocked, " << done
     << " done;";
  constexpr int kMaxListed = 8;
  int listed = 0;
  for (const auto& r : ranks_) {
    if (r->state == State::Done) continue;
    if (listed == kMaxListed) break;
    os << " [rank " << r->id << ": "
       << (r->state == State::Ready ? "ready" : "blocked")
       << " @t=" << r->clock << " inbox=" << r->inbox.size() << "]";
    ++listed;
  }
  const int live = ready + blocked;
  if (live > listed) os << " (+" << live - listed << " more)";
  throw util::Error(os.str());
}

void Engine::scheduler_loop() {
  for (;;) {
    if (live_ranks_ == 0) return;
    if (first_error_ && !aborting_) {
      // Tear down remaining ranks: each resume throws AbortRun in the rank
      // context, unwinding it to completion.
      aborting_ = true;
    }
    if (aborting_) {
      for (auto& r : ranks_) {
        if (r->state != State::Done) {
          r->state = State::Ready;  // unblock so the abort can propagate
          resume(r->id);
        }
      }
      continue;
    }

    if (ready_heap_.empty()) {
      // Nobody is runnable: the next event (if any) must wake someone.
      if (event_heap_.empty()) deadlock("no ready ranks, no pending events");
      deliver_front_event();
      continue;
    }
    // Deliver every event due at or before the chosen rank's clock so that
    // its view of the world is complete when it runs. An event delivery can
    // wake a rank with an even smaller clock, so re-peek afterwards. The
    // heap top is exact (never stale): a parked Ready rank's clock cannot
    // change, so entries are pushed once and popped exactly when resumed.
    const ReadyEntry next = ready_heap_.front();
    if (!event_heap_.empty() && event_heap_.front().time <= next.clock) {
      deliver_front_event();
      continue;
    }
    std::pop_heap(ready_heap_.begin(), ready_heap_.end(), std::greater<>{});
    ready_heap_.pop_back();
    resume(next.rank);
    // The rank yielded: if it is still runnable (checkpoint), re-park it
    // with its advanced clock; Blocked ranks re-enter through an event
    // wake, Done ranks never run again.
    if (ranks_[next.rank]->state == State::Ready) push_ready(next.rank);
  }
}

void Engine::run(const std::function<void(RankCtx&)>& rank_main) {
  // All run-scoped state is reset here, not just the per-rank fields
  // below: a reused engine (retry paths, engine pooling) must not inherit
  // undelivered events, a sticky abort flag, or a stale error from an
  // earlier run — stale events would leak into the new run's inboxes, and
  // a sticky abort would kill every rank at its first yield.
  event_heap_.clear();
  next_seq_ = 0;
  events_processed_ = 0;
  context_switches_ = 0;
  aborting_ = false;
  first_error_ = nullptr;
  live_ranks_ = size();
  ready_heap_.clear();
  ready_heap_.reserve(ranks_.size());
  for (auto& r : ranks_) {
    r->state = State::Ready;
    r->clock = 0.0;
    r->inbox.clear();
    r->fiber_started = false;
    // All entries share clock 0 and ascend in rank id, so the vector is
    // already a valid min-(clock, rank) heap.
    ready_heap_.push_back(ReadyEntry{0.0, r->id});
  }

  const std::exception_ptr scheduler_error = run_fibers(rank_main);

  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
  if (scheduler_error) std::rethrow_exception(scheduler_error);
}

// --- fibers ------------------------------------------------------------

void Engine::start_fiber(Rank& r) {
  // Lazy start: the stack is borrowed from the pool (or mapped fresh) on
  // the fiber's first resume, not when the run begins — so stacks freed by
  // early-finishing ranks are reused by ranks that start later.
  r.stack = acquire_stack();
  r.asan_fake_stack = nullptr;
  r.tsan_fiber = tsan_create_fiber();
#if defined(REPRO_ASAN_FIBERS)
  // A fresh fiber has no live frames, but the range may still carry the
  // redzone poison of frames an earlier fiber (or an earlier engine's
  // mapping at the same address) abandoned by switching away for good.
  __asan_unpoison_memory_region(r.stack.lo, r.stack.size);
#endif
#if defined(REPRO_FIBER_FAST_SWITCH)
  r.fiber_sp =
      make_fiber_sp(r.stack.lo, r.stack.size, &Engine::fiber_trampoline);
#else
  REPRO_REQUIRE(getcontext(&r.ctx) == 0, "getcontext failed");
  r.ctx.uc_stack.ss_sp = r.stack.lo;
  r.ctx.uc_stack.ss_size = r.stack.size;
  r.ctx.uc_link = nullptr;
  makecontext(&r.ctx, &Engine::fiber_trampoline, 0);
#endif
  r.fiber_started = true;
}

void Engine::resume(int rank) {
  Rank& r = *ranks_[rank];
  if (!r.fiber_started) start_fiber(r);
  fiber_active_ = rank;
  asan_start_switch(&sched_fake_stack_, r.stack.lo, r.stack.size);
  tsan_switch_to_fiber(r.tsan_fiber);
#if defined(REPRO_FIBER_FAST_SWITCH)
  repro_fiber_swap(static_cast<void**>(sched_ctx_), r.fiber_sp);
#else
  swapcontext(static_cast<ucontext_t*>(sched_ctx_), &r.ctx);
#endif
  asan_finish_switch(sched_fake_stack_, nullptr, nullptr);
  fiber_active_ = -1;
  if (r.state == State::Done && r.stack.base != nullptr) {
    // The fiber has fully unwound (its last act was the final switch
    // home), so its stack is idle and can serve the next starting fiber.
    tsan_destroy_fiber(r.tsan_fiber);
    r.tsan_fiber = nullptr;
    stack_pool_.push_back(r.stack);
    r.stack = StackBlock{};
  }
}

void Engine::yield_to_scheduler(int rank) {
  ++context_switches_;
  Rank& r = *ranks_[rank];
  asan_start_switch(&r.asan_fake_stack, sched_stack_bottom_,
                    sched_stack_size_);
  tsan_switch_to_fiber(sched_tsan_fiber_);
#if defined(REPRO_FIBER_FAST_SWITCH)
  repro_fiber_swap(&r.fiber_sp, *static_cast<void**>(sched_ctx_));
#else
  swapcontext(&r.ctx, static_cast<ucontext_t*>(sched_ctx_));
#endif
  asan_finish_switch(r.asan_fake_stack, nullptr, nullptr);
  if (aborting_) throw AbortRun{};
}

void Engine::fiber_main() {
  Rank& r = *ranks_[fiber_active_];
  try {
    if (!aborting_) {
      RankCtx ctx(this, r.id);
      (*fiber_rank_main_)(ctx);
    }
  } catch (const AbortRun&) {
    // torn down after another rank failed
  } catch (...) {
    if (!first_error_) first_error_ = std::current_exception();
  }
  mark_done(r.id);
  // Final switch home. The null fake-stack save tells ASan this fiber is
  // finished so its fake frames can be released.
  asan_start_switch(nullptr, sched_stack_bottom_, sched_stack_size_);
  tsan_switch_to_fiber(sched_tsan_fiber_);
#if defined(REPRO_FIBER_FAST_SWITCH)
  void* dead_sp = nullptr;  // nothing will ever switch back here
  repro_fiber_swap(&dead_sp, *static_cast<void**>(sched_ctx_));
#else
  swapcontext(&r.ctx, static_cast<ucontext_t*>(sched_ctx_));
#endif
  std::abort();  // a finished fiber must never be resumed
}

void Engine::fiber_trampoline() {
  Engine* e = t_fiber_engine;
  // First arrival on this fiber's stack: complete the switch and learn the
  // scheduler's stack bounds for the yields back.
  asan_finish_switch(nullptr, &e->sched_stack_bottom_,
                     &e->sched_stack_size_);
  e->fiber_main();
}

std::exception_ptr Engine::run_fibers(
    const std::function<void(RankCtx&)>& rank_main) {
#if defined(REPRO_FIBER_FAST_SWITCH)
  // The scheduler context is just its saved stack pointer: resume writes
  // this slot on the way out and yield_to_scheduler reads it on the way
  // back, all within this frame's lifetime.
  void* sched_sp = nullptr;
  sched_ctx_ = &sched_sp;
#else
  ucontext_t sched_ctx;
  sched_ctx_ = &sched_ctx;
#endif
  Engine* const prev_engine = t_fiber_engine;
  t_fiber_engine = this;
  fiber_rank_main_ = &rank_main;
  sched_fake_stack_ = nullptr;
  sched_stack_bottom_ = nullptr;
  sched_stack_size_ = 0;
  sched_tsan_fiber_ = tsan_current_fiber();

  std::exception_ptr scheduler_error;
  try {
    scheduler_loop();
  } catch (...) {
    // Deadlock: resume every live fiber so AbortRun unwinds its stack
    // (running destructors) before the run returns. A fully unwound fiber
    // is simply never switched to again.
    scheduler_error = std::current_exception();
    aborting_ = true;
    for (auto& r : ranks_) {
      if (r->state != State::Done) resume(r->id);
    }
  }

  fiber_rank_main_ = nullptr;
  t_fiber_engine = prev_engine;
  sched_ctx_ = nullptr;
  sched_tsan_fiber_ = nullptr;
  return scheduler_error;
}

}  // namespace repro::sim
