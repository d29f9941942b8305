// Engine implementation. Each process runs on its own mmap'ed stack,
// entered and left through emc_sim_switch_context below: a hand-written
// x86-64 SysV context switch. It saves what the ABI makes callee-saved
// — rbx, rbp, r12–r15, MXCSR and the x87 control word — on the
// outgoing stack, and restores the incoming stack's copy. Unlike glibc's swapcontext it makes no sigprocmask
// system call and does not save the whole x87 environment, so a switch
// never leaves user space. Deliberately not kept per process:
//  - the signal mask: nothing in the simulator changes it, so every
//    process shares the thread's;
//  - the x87 status word and exception flags: caller-saved under the
//    ABI (MXCSR is saved whole, so its SSE flags travel with it, but
//    nothing may rely on that).
// The switch uses no shadow stack (CET SHSTK) and is x86-64 only.
#include "emc/sim/engine.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <new>
#include <system_error>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "emc/common/timer.hpp"

#if !defined(__x86_64__)
#error "emc::sim: port emc_sim_switch_context and SwitchFrame (src/sim/engine.cpp) to this architecture"
#endif

/// Saves the running context's callee-saved state on its stack, stores
/// its stack pointer in *@p from, and resumes the context whose saved
/// stack pointer is @p to. Returns when another switch resumes *from.
extern "C" void emc_sim_switch_context(void** from, void* to);
/// Return address of a new context's first frame: calls rbx(r12d), which
/// never returns. `.cfi_undefined rip` ends every backtrace here.
extern "C" void emc_sim_context_entry();

asm(R"(
  .pushsection .text
  .p2align 4
  .globl emc_sim_switch_context
  .hidden emc_sim_switch_context
  .type emc_sim_switch_context, @function
emc_sim_switch_context:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp                # every saved stack has the same layout
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size emc_sim_switch_context, .-emc_sim_switch_context

  .p2align 4
  .globl emc_sim_context_entry
  .hidden emc_sim_context_entry
  .type emc_sim_context_entry, @function
emc_sim_context_entry:
  .cfi_startproc
  .cfi_undefined rip
  movl %r12d, %edi
  call *%rbx
  ud2
  .cfi_endproc
  .size emc_sim_context_entry, .-emc_sim_context_entry
  .popsection
)");

namespace emc::sim {

namespace {

/// Stack per process: glibc's default thread stack, mapped MAP_NORESERVE
/// so that only the pages a body touches are committed.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
const auto kGuardBytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));

/// A suspended context's stack at its saved stack pointer, lowest
/// address first: what emc_sim_switch_context pops to resume it.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t unused;
  std::uint64_t r15;
  std::uint64_t r14;
  std::uint64_t r13;
  std::uint64_t r12;  ///< a new context: its process index
  void (*rbx)(int);   ///< a new context: Engine::start_process
  std::uint64_t rbp;  ///< a new context: 0, ending frame-pointer walks
  void (*ret)();      ///< a new context: emc_sim_context_entry
};
static_assert(sizeof(SwitchFrame) == 64);

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
  void* sp = nullptr;  ///< saved stack pointer while suspended
  EhGlobals eh;
  char* stack = nullptr;  ///< lowest mapped byte: the PROT_NONE guard page
  // Sanitizer fiber state (ASan fake stack and stack bounds, TSan fiber).
  void* fake_stack = nullptr;
  const void* bottom = nullptr;
  std::size_t size = 0;
  void* fiber = nullptr;

  ~Context() { if (stack != nullptr) munmap(stack, kGuardBytes + kStackBytes); }

  /// Sets the context to enter Engine::start_process(@p index), with the
  /// creating thread's FP control state.
  void start(int index) {
    if (stack == nullptr) {
      void* base = mmap(nullptr, kGuardBytes + kStackBytes,
                        PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                        -1, 0);
      if (base == MAP_FAILED) throw std::bad_alloc();
      // Fails with ENOMEM once the process has vm.max_map_count
      // mappings; an unguarded stack would overflow silently.
      if (mprotect(base, kGuardBytes, PROT_NONE) != 0) {
        const int err = errno;
        munmap(base, kGuardBytes + kStackBytes);
        throw std::system_error(err, std::generic_category(),
                                "guard page for a process stack");
      }
      stack = static_cast<char*>(base);
    }
    // The entry's call leaves start_process with rsp ≡ 8 (mod 16), as
    // after any call: the frame's return slot ends at the 16-aligned top.
    SwitchFrame frame{};
    asm("stmxcsr %0\n\tfnstcw %1" : "=m"(frame.mxcsr), "=m"(frame.x87_cw));
    frame.r12 = static_cast<std::uint32_t>(index);
    frame.rbx = &Engine::start_process;
    frame.ret = &emc_sim_context_entry;
    sp = stack + kGuardBytes + kStackBytes - sizeof frame;
    std::memcpy(sp, &frame, sizeof frame);
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
    emc_sim_switch_context(&sp, to.sp);
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
