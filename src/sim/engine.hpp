// Conservative discrete-event engine for simulating a cluster of ranks.
//
// Each simulated rank runs arbitrary C++ code (the actual MD computation),
// but *time* is virtual: every rank owns a virtual clock that is advanced
// explicitly (compute costs, communication costs). The engine serializes
// execution — exactly one rank (or the scheduler) runs at any instant —
// and always resumes the runnable rank with the smallest virtual clock.
// Cross-rank effects (message arrivals) are global events processed in
// virtual-time order.
//
// Every rank is a cooperative fiber: its own stack, switched in user
// space on the thread that called run(). A simulated context switch is two
// stack switches with no kernel involvement — a hand-rolled register swap
// on x86-64, ucontext's swapcontext elsewhere. Both AddressSanitizer and
// ThreadSanitizer are told about every switch, so the sanitizer builds
// check the same engine that ships.
//
// Correctness argument (conservative order): a rank is resumed only when its
// clock is the minimum over all runnable ranks and no pending event is
// earlier. Any message is scheduled with an arrival time no earlier than its
// sender's clock at the send, so when a rank executes at time t, every
// arrival <= t has already been delivered to its inbox. Ties are broken
// deterministically (event sequence numbers, then rank ids), which makes
// whole simulations bit-reproducible.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/payload.hpp"

namespace repro::sim {

class Engine;

// Provenance shim for the host-clock benchmark, which records
// `to_string(default_engine_backend())` in its run header. The engine has
// exactly one backend; these exist only for that line and nothing else in
// the simulator may use them.
enum class EngineBackend { kFiber };
inline const char* to_string(EngineBackend) { return "fiber"; }
inline EngineBackend default_engine_backend() { return EngineBackend::kFiber; }

// A message (or any payload) delivered to a rank at a virtual time.
struct Delivery {
  double time = 0.0;
  std::uint64_t seq = 0;  // global order among equal-time deliveries
  Payload payload;
};

// Per-rank handle passed to the rank main function. All methods must be
// called from that rank's execution context only.
class RankCtx {
 public:
  RankCtx(Engine* engine, int rank) : engine_(engine), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const;
  double now() const;

  // Advances this rank's virtual clock (e.g. modeled computation time).
  // Cheap: does not reschedule.
  void advance(double dt);

  // Yields to the scheduler so that global virtual-time order is
  // re-established. Must be called before inspecting the inbox or touching
  // any state shared between ranks (the network resources, the message
  // store): after checkpoint() returns, every event with arrival <= now()
  // has been delivered and no other rank with a smaller clock is runnable.
  void checkpoint();

  // Blocks this rank until a new delivery arrives for it (the engine wakes
  // it with the delivery's time). Returns with now() >= the waking
  // delivery's time.
  void block();

  // Schedules a payload for delivery to rank dst at virtual time `time`
  // (must be >= now()).
  void post(double time, int dst, Payload payload);

  // Deliveries for this rank in arrival order. The consumer (e.g. the
  // simulated MPI layer) owns matching/removal semantics.
  std::deque<Delivery>& inbox();

 private:
  Engine* engine_;
  int rank_;
};

// Thrown inside rank contexts when the run is being torn down after an
// error in some other rank; rank code should let it propagate.
struct AbortRun {};

class Engine {
 public:
  explicit Engine(int nranks);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int size() const { return static_cast<int>(ranks_.size()); }

  // Runs `rank_main` once per rank to completion. Throws util::Error on
  // deadlock (every live rank blocked with no pending events) and rethrows
  // the first exception escaping a rank main. An engine may be run
  // repeatedly; every run starts from a clean slate (no events, clocks and
  // counters at zero), even after a previous run aborted.
  void run(const std::function<void(RankCtx&)>& rank_main);

  // --- introspection / statistics (reset at each run() entry) ---------
  // context_switches() counts *simulated* rank->scheduler handoffs, not OS
  // context switches (see docs/OBSERVABILITY.md).
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t context_switches() const { return context_switches_; }

 private:
  friend class RankCtx;

  enum class State { Ready, Blocked, Done };

  struct Rank;

  double now(int rank) const;
  void advance(int rank, double dt);
  void checkpoint(int rank);
  void block(int rank);
  void post(double time, int dst, Payload payload);
  std::deque<Delivery>& inbox(int rank);

  // Scheduler internals (run on the scheduler context).
  void scheduler_loop();
  void deliver_front_event();
  void push_ready(int rank);
  void mark_done(int rank);
  [[noreturn]] void deadlock(const std::string& where) const;

  // Fiber switching: hand control to a rank / back to the scheduler.
  std::exception_ptr run_fibers(const std::function<void(RankCtx&)>& main);
  void resume(int rank);
  void yield_to_scheduler(int rank);
  void fiber_main();  // rank body, runs on the fiber's stack
  static void fiber_trampoline();

  struct Event {
    double time;
    std::uint64_t seq;
    int dst;
    Payload payload;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  // One parked runnable rank in the ready heap. The clock is a snapshot
  // taken at push time; it cannot go stale, because a parked Ready rank's
  // clock only changes while the rank itself runs (advance) or when a
  // Blocked rank is woken — and both transitions re-park the rank through
  // push_ready. Ties break on rank id, matching the old linear scan's
  // first-lowest-id pick, so simulations stay bit-identical.
  struct ReadyEntry {
    double clock;
    int rank;
    bool operator>(const ReadyEntry& o) const {
      if (clock != o.clock) return clock > o.clock;
      return rank > o.rank;
    }
  };

  // A pooled fiber stack (allocation base, usable range). Stacks are
  // recycled into the pool the moment their rank finishes and reused by
  // not-yet-started fibers, so peak stack memory tracks the number of
  // *simultaneously live* fibers, not the total rank count.
  struct StackBlock {
    void* base = nullptr;      // allocation base; first page is a guard
    std::size_t alloc = 0;     // full allocation size (incl. guard)
    void* lo = nullptr;        // usable stack bottom (ucontext/ASan view)
    std::size_t size = 0;      // usable stack size
  };
  StackBlock acquire_stack();
  static void free_stack(StackBlock& block);
  void start_fiber(Rank& r);

  std::vector<std::unique_ptr<Rank>> ranks_;
  void* sched_ctx_ = nullptr;   // fiber scheduler context, valid in run()
  const std::function<void(RankCtx&)>* fiber_rank_main_ = nullptr;
  int fiber_active_ = -1;  // rank whose fiber is (about to be) running
  // Scheduler-side sanitizer fiber bookkeeping (null unless ASan / TSan
  // is active).
  void* sched_fake_stack_ = nullptr;
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  void* sched_tsan_fiber_ = nullptr;
  std::vector<Event> event_heap_;  // min-heap via std::push_heap/greater
  // Indexed ready structure: min-(clock, rank) heap of parked runnable
  // ranks. Replaces the per-switch O(p) state scan — scheduling is
  // O(log p) per context switch, which is what lets the engine run
  // thousands of fiber ranks (see docs/ARCHITECTURE.md).
  std::vector<ReadyEntry> ready_heap_;
  int live_ranks_ = 0;  // ranks not yet Done (replaces the any_live scan)
  std::vector<StackBlock> stack_pool_;  // recycled fiber stacks
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t context_switches_ = 0;
  bool aborting_ = false;
  std::exception_ptr first_error_;
};

}  // namespace repro::sim
