#include "emc/sim/engine.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "emc/common/timer.hpp"

namespace emc::sim {

namespace {

/// Stack per process: glibc's default thread stack, mapped MAP_NORESERVE
/// so that only the pages a body touches are committed.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
const auto kGuardBytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));

/// libstdc++'s per-thread exception state (its unwind-cxx.h): the caught
/// exceptions that `throw;` rethrows and std::uncaught_exceptions().
/// Each coroutine keeps its own, swapped in on every switch; otherwise
/// a process blocked in a catch handler could rethrow another's.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

/// The engine running on this thread; new coroutines get only an index.
thread_local Engine* running_engine = nullptr;

/// SplitMix64 finalizer: bijective, so distinct sequence numbers keep
/// distinct (but permuted) tie-break keys under any salt.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

struct Process::Context {
  ucontext_t uc{};
  EhGlobals eh;
  char* stack = nullptr;  ///< lowest mapped byte: the PROT_NONE guard page
  // Sanitizer fiber state (ASan fake stack and stack bounds, TSan fiber).
  void* fake_stack = nullptr;
  const void* bottom = nullptr;
  std::size_t size = 0;
  void* fiber = nullptr;

  ~Context() { if (stack != nullptr) munmap(stack, kGuardBytes + kStackBytes); }

  /// Sets the context to enter Engine::start_process(@p index).
  void start(int index) {
    if (stack == nullptr) {
      void* base = mmap(nullptr, kGuardBytes + kStackBytes,
                        PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                        -1, 0);
      if (base == MAP_FAILED) throw std::bad_alloc();
      stack = static_cast<char*>(base);
      mprotect(stack, kGuardBytes, PROT_NONE);
    }
    getcontext(&uc);
    uc.uc_stack.ss_sp = stack + kGuardBytes;
    uc.uc_stack.ss_size = kStackBytes;  // uc_link stays null: never returns
    makecontext(&uc, reinterpret_cast<void (*)()>(&Engine::start_process), 1,
                index);
    eh = EhGlobals{};
    bottom = stack + kGuardBytes;
    size = kStackBytes;
#if defined(__SANITIZE_THREAD__)
    fiber = __tsan_create_fiber(0);
#endif
  }

  /// Suspends this running context and resumes @p to (for good if exiting).
  void switch_to(Context& to, [[maybe_unused]] bool exiting = false) {
    void* globals = abi::__cxa_get_globals();
    std::memcpy(&eh, globals, sizeof eh);
    std::memcpy(globals, &to.eh, sizeof to.eh);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack,
                                   to.bottom, to.size);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(to.fiber, 0);
#endif
    swapcontext(&uc, &to.uc);
    // Resumed: the scheduler only ever switches back from the process
    // it resumed (@p to), and a process only from the scheduler.
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, &to.bottom, &to.size);
#endif
  }
};

// ---------------------------------------------------------------- Process

Process::Process(Engine& engine, int index)
    : engine_(&engine), index_(index), context_(std::make_unique<Context>()) {}

Process::~Process() = default;

Time Process::now() const noexcept { return engine_->now(); }

void Process::advance(Time dt) {
  if (dt > 0.0) engine_->suspend(*this, dt, nullptr);
}

void Process::yield() { engine_->suspend(*this, 0.0, nullptr); }

double Process::charge_scale() const noexcept {
  return engine_->charge_scale();
}

void Process::wait(Waitable& w) {
  engine_->suspend(*this, std::numeric_limits<Time>::infinity(), &w);
}

bool Process::wait_for(Waitable& w, Time timeout) {
  return engine_->suspend(*this, timeout, &w);
}

void Process::notify_one(Waitable& w) { engine_->proc_notify(w, false); }

void Process::notify_all(Waitable& w) { engine_->proc_notify(w, true); }

double Process::charge(const std::function<void()>& work, double scale) {
  // EMC_LINT_ALLOW(det-clock): measurement-mode billing — host time is
  // read once around the charged work and converted to virtual time;
  // deterministic runs use charge_scale()=0 or the analytic cost model.
  WallTimer timer;
  const Time begin = now();
  work();
  const double elapsed = timer.seconds();
  advance(elapsed * scale * engine_->charge_scale());
  if (engine_->charge_observer_) {
    engine_->charge_observer_(index_, begin, now());
  }
  return elapsed;
}

// ----------------------------------------------------------------- Engine

Engine::Engine(int num_processes) {
  procs_.reserve(static_cast<std::size_t>(num_processes));
  for (int i = 0; i < num_processes; ++i) {
    procs_.emplace_back(std::unique_ptr<Process>(new Process(*this, i)));
  }
}

Engine::~Engine() = default;

void Engine::schedule(Process& p, Time at) {
  const std::uint64_t seq = seq_++;
  const std::uint64_t order =
      tiebreak_salt_ == 0 ? seq : mix64(seq ^ tiebreak_salt_);
  ready_.push(HeapEntry{std::max(at, clock_), order, &p, p.wake_epoch_});
}

Process* Engine::pop_ready(const Process* only) {
  for (; !ready_.empty(); ready_.pop()) {
    const HeapEntry next = ready_.top();
    // Skip a finished process, and the losing wake-up of a wait_for
    // that was both notified and timed (it keeps the old epoch).
    if (next.proc->done_ || next.epoch != next.proc->wake_epoch_) continue;
    if (only != nullptr && next.proc != only) return nullptr;
    ready_.pop();
    clock_ = std::max(clock_, next.at);
    ++next.proc->wake_epoch_;
    return next.proc;
  }
  return nullptr;
}

void Engine::start_process(int index) {
  Engine& engine = *running_engine;
  Process& self = *engine.procs_[static_cast<std::size_t>(index)];
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &engine.scheduler_->bottom,
                                  &engine.scheduler_->size);
#endif
  if (!engine.aborted_) {
    try {
      (*engine.body_)(self);
    } catch (const Aborted&) {
      // unwound by teardown; not an error in itself
    } catch (...) {
      if (!engine.first_error_) engine.first_error_ = std::current_exception();
      engine.aborted_ = true;
    }
  }
  self.done_ = true;
  --engine.unfinished_;
  self.context_->switch_to(*engine.scheduler_, /*exiting=*/true);
}

bool Engine::suspend(Process& self, Time timeout, Waitable* w) {
  check_abort();
  check_kill(self);
  if (w != nullptr) w->waiters_.push_back(&self);
  // Wake-up at the timeout, capped at the kill time: compute that would
  // cross it stops there, and a doomed waiter cannot park forever. A
  // plain wait (no finite wake-up) relies on notify alone. When a
  // notify wins, the epoch bump on resume makes this entry stale.
  const Time wake = std::min(clock_ + std::max(timeout, 0.0), self.kill_at_);
  if (w == nullptr || wake != std::numeric_limits<Time>::infinity()) {
    schedule(self, wake);
  }
  // When self is next anyway, keep running: no switch there and back.
  if (pop_ready(&self) == nullptr) {
    self.context_->switch_to(*scheduler_);
    check_abort();
  }
  bool notified = false;
  if (w != nullptr) {
    const auto it = std::find(w->waiters_.begin(), w->waiters_.end(), &self);
    notified = it == w->waiters_.end();
    if (!notified) w->waiters_.erase(it);  // timed out, or killed
  }
  check_kill(self);
  return notified;
}

void Engine::proc_notify(Waitable& w, bool all) {
  check_abort();
  // FIFO; the released waiters run once the notifier next blocks.
  const auto released = w.waiters_.begin() +
      (all ? static_cast<std::ptrdiff_t>(w.waiters_.size())
           : std::min<std::ptrdiff_t>(1, std::ssize(w.waiters_)));
  for (auto it = w.waiters_.begin(); it != released; ++it) {
    schedule(**it, clock_);
  }
  w.waiters_.erase(w.waiters_.begin(), released);
}

Time Engine::run(const std::function<void(Process&)>& body) {
  ready_ = {};  // drop wake-ups that an aborted run left queued
  for (auto& p : procs_) {
    p->context_->start(p->index_);
    p->done_ = false;
    schedule(*p, clock_);
  }
  Process::Context scheduler;
#if defined(__SANITIZE_THREAD__)
  scheduler.fiber = __tsan_get_current_fiber();
#endif
  scheduler_ = &scheduler;
  body_ = &body;
  Engine* const outer = std::exchange(running_engine, this);
  aborted_ = false;
  first_error_ = nullptr;
  unfinished_ = size();

  while (unfinished_ > 0) {
    if (!aborted_) {
      if (Process* next = pop_ready()) {
        scheduler.switch_to(*next->context_);
        continue;
      }
      // Every unfinished process is parked on a Waitable and nothing
      // is scheduled: nobody can ever make progress.
      std::string what =
          "simulation deadlock: " + std::to_string(unfinished_) +
          " process(es) blocked on conditions with an empty event queue";
      if (deadlock_explainer_) {
        // The explainer (the correctness verifier) reads the frozen
        // wait-for state; its failures must not mask the deadlock.
        try {
          const std::string extra = deadlock_explainer_();
          if (!extra.empty()) what += "\n" + extra;
        } catch (...) {
        }
      }
      first_error_ = std::make_exception_ptr(Deadlock(what));
      aborted_ = true;
    }
    // Abort teardown, in index order: a parked process unwinds with
    // Aborted, and one that never started skips its body.
    for (auto& p : procs_) {
      if (!p->done_) scheduler.switch_to(*p->context_);
    }
  }

  running_engine = outer;
#if defined(__SANITIZE_THREAD__)
  for (auto& p : procs_) __tsan_destroy_fiber(p->context_->fiber);
#endif
  if (first_error_) {
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
  return clock_;
}

}  // namespace emc::sim
