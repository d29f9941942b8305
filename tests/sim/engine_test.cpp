// Discrete-event engine semantics: virtual-clock ordering,
// determinism, waitable hand-off, charge accounting, error paths, and
// the per-process machine state the context switch must carry.
#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "emc/sim/engine.hpp"

namespace emc::sim {
namespace {

TEST(Engine, SingleProcessAdvancesClock) {
  Engine engine(1);
  const Time end = engine.run([](Process& p) {
    EXPECT_EQ(p.now(), 0.0);
    p.advance(1.5);
    EXPECT_DOUBLE_EQ(p.now(), 1.5);
    p.advance(0.5);
    EXPECT_DOUBLE_EQ(p.now(), 2.0);
  });
  EXPECT_DOUBLE_EQ(end, 2.0);
}

TEST(Engine, NegativeOrZeroAdvanceIsNoop) {
  Engine engine(1);
  const Time end = engine.run([](Process& p) {
    p.advance(0.0);
    p.advance(-5.0);
  });
  EXPECT_DOUBLE_EQ(end, 0.0);
}

TEST(Engine, ProcessesInterleaveByVirtualTime) {
  // Two processes advancing different amounts must observe a globally
  // ordered clock: the recorded (time, index) sequence is sorted.
  Engine engine(2);
  std::vector<std::pair<double, int>> log;
  engine.run([&log](Process& p) {
    const double step = p.index() == 0 ? 1.0 : 0.4;
    for (int i = 0; i < 5; ++i) {
      p.advance(step);
      log.emplace_back(p.now(), p.index());
    }
  });
  ASSERT_EQ(log.size(), 10u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].first, log[i].first) << "clock went backwards";
  }
}

TEST(Engine, RunsEveryProcessExactlyOnce) {
  Engine engine(17);
  std::atomic<int> count{0};
  engine.run([&count](Process&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 17);
}

TEST(Engine, WaitableHandsOffBetweenProcesses) {
  // Process 1 waits; process 0 advances then notifies; the waiter
  // resumes at the notifier's clock.
  Engine engine(2);
  Waitable ready;
  bool flag = false;
  double waiter_resume_time = -1.0;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(2.0);
      flag = true;
      p.notify_all(ready);
    } else {
      while (!flag) p.wait(ready);
      waiter_resume_time = p.now();
    }
  });
  EXPECT_DOUBLE_EQ(waiter_resume_time, 2.0);
}

TEST(Engine, NotifyOneReleasesSingleWaiter) {
  Engine engine(3);
  Waitable gate;
  int released = 0;
  int token = 0;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(1.0);
      token = 1;
      p.notify_one(gate);
      p.advance(1.0);
      token = 2;
      p.notify_all(gate);
    } else {
      while (token == 0 ||
             (released >= 1 && token < 2)) {
        p.wait(gate);
      }
      ++released;
    }
  });
  EXPECT_EQ(released, 2);
}

TEST(Engine, DeadlockIsDetected) {
  Engine engine(2);
  Waitable never;
  EXPECT_THROW(engine.run([&never](Process& p) { p.wait(never); }), Deadlock);
}

TEST(Engine, ExceptionInOneProcessPropagates) {
  Engine engine(4);
  Waitable never;
  EXPECT_THROW(engine.run([&never](Process& p) {
                 if (p.index() == 2) throw std::logic_error("boom");
                 p.wait(never);  // others parked; must be torn down
               }),
               std::logic_error);
}

TEST(Engine, ChargeBillsMeasuredTime) {
  Engine engine(1);
  engine.run([](Process& p) {
    const double before = p.now();
    const double measured = p.charge([] {
      volatile double x = 0;
      for (int i = 0; i < 100000; ++i) x += i;
    });
    EXPECT_GT(measured, 0.0);
    EXPECT_DOUBLE_EQ(p.now(), before + measured);
  });
}

TEST(Engine, ChargeScaleMultiplies) {
  Engine engine(1);
  engine.run([](Process& p) {
    const double measured = p.charge(
        [] {
          volatile double x = 0;
          for (int i = 0; i < 100000; ++i) x += i;
        },
        2.0);
    EXPECT_NEAR(p.now(), 2.0 * measured, 1e-12);
  });
}

TEST(Engine, RepeatedRunsAccumulateTime) {
  Engine engine(2);
  const Time t1 = engine.run([](Process& p) { p.advance(1.0); });
  EXPECT_DOUBLE_EQ(t1, 1.0);
  const Time t2 = engine.run([](Process& p) { p.advance(1.0); });
  EXPECT_DOUBLE_EQ(t2, 2.0);
}

TEST(Engine, SameTimeEventsOrderedBySchedulingSequence) {
  // Determinism check: repeated identical runs produce identical logs.
  auto run_once = [] {
    Engine engine(4);
    std::vector<int> order;
    engine.run([&order](Process& p) {
      for (int i = 0; i < 3; ++i) {
        p.advance(1.0);  // all processes collide at t=1,2,3
        order.push_back(p.index());
      }
    });
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Engine, YieldDoesNotAdvanceClock) {
  Engine engine(1);
  const Time end = engine.run([](Process& p) {
    p.advance(1.0);
    p.yield();
    EXPECT_DOUBLE_EQ(p.now(), 1.0);
  });
  EXPECT_DOUBLE_EQ(end, 1.0);
}

TEST(Engine, ChargeScaleCalibratesVirtualCost) {
  Engine engine(1);
  engine.set_charge_scale(0.5);
  EXPECT_DOUBLE_EQ(engine.charge_scale(), 0.5);
  engine.run([](Process& p) {
    EXPECT_DOUBLE_EQ(p.charge_scale(), 0.5);
    const double measured = p.charge([] {
      volatile double x = 0;
      for (int i = 0; i < 200000; ++i) x += i;
    });
    // Virtual cost is half the measured host cost.
    EXPECT_NEAR(p.now(), 0.5 * measured, 1e-12);
  });
}

TEST(Engine, ChargeScaleComposesWithExplicitScale) {
  Engine engine(1);
  engine.set_charge_scale(2.0);
  engine.run([](Process& p) {
    const double measured = p.charge(
        [] {
          volatile double x = 0;
          for (int i = 0; i < 200000; ++i) x += i;
        },
        3.0);
    EXPECT_NEAR(p.now(), 6.0 * measured, 1e-12);
  });
}

TEST(Engine, ManyProcessesScale) {
  // 64 ranks is the paper's largest setting; make sure the engine
  // handles it with plenty of context switches.
  Engine engine(64);
  std::atomic<long> switches{0};
  engine.run([&switches](Process& p) {
    for (int i = 0; i < 50; ++i) {
      p.advance(0.001 * (p.index() + 1));
      switches.fetch_add(1);
    }
  });
  EXPECT_EQ(switches.load(), 64 * 50);
}

TEST(Engine, WaitForReturnsTrueWhenNotifiedBeforeDeadline) {
  Engine engine(2);
  Waitable ready;
  bool notified = false;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(1.0);
      p.notify_all(ready);
    } else {
      notified = p.wait_for(ready, 10.0);
      EXPECT_DOUBLE_EQ(p.now(), 1.0);  // resumed at notify time
    }
  });
  EXPECT_TRUE(notified);
}

TEST(Engine, WaitForTimesOutAtDeadline) {
  Engine engine(2);
  Waitable never;
  bool notified = true;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(5.0);  // keeps the world alive past the deadline
    } else {
      notified = p.wait_for(never, 2.5);
      EXPECT_DOUBLE_EQ(p.now(), 2.5);  // woke exactly at the deadline
    }
  });
  EXPECT_FALSE(notified);
}

TEST(Engine, WaitForTimeoutDeregistersWaiter) {
  // After a timeout the process must be off the waiter list: a later
  // notify_all must not try to wake it a second time.
  Engine engine(2);
  Waitable cond;
  int wakeups = 0;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(4.0);
      p.notify_all(cond);  // fires long after the waiter gave up
      p.advance(1.0);
    } else {
      if (!p.wait_for(cond, 1.0)) ++wakeups;
      p.advance(10.0);  // keep running; a stale wake would corrupt state
    }
  });
  EXPECT_EQ(wakeups, 1);
}

TEST(Engine, StaleTimeoutDoesNotRewakeNotifiedProcess) {
  // Notified before the deadline: the abandoned timeout entry still
  // sits in the ready heap at t=50.5 and must be skipped (epoch
  // guard), not grant the parked process a bogus second wake.
  Engine engine(2);
  Waitable ready;
  std::vector<double> resumes;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      p.advance(0.5);
      p.notify_all(ready);
      p.advance(100.0);     // outlive the stale timeout entry
      p.notify_all(ready);  // the only legitimate second wake
    } else {
      EXPECT_TRUE(p.wait_for(ready, 50.0));
      resumes.push_back(p.now());
      p.wait(ready);  // park again; only a real notify may wake us
      resumes.push_back(p.now());
    }
  });
  ASSERT_EQ(resumes.size(), 2u);
  EXPECT_DOUBLE_EQ(resumes[0], 0.5);
  EXPECT_DOUBLE_EQ(resumes[1], 100.5);  // not 50.5: stale entry ignored
}

// Order in which four processes (all scheduled at t=0) first run,
// under a given same-time tie-break salt.
std::vector<int> start_order(std::uint64_t salt) {
  Engine engine(4);
  engine.set_tiebreak_salt(salt);
  std::vector<int> order;
  engine.run([&order](Process& p) { order.push_back(p.index()); });
  return order;
}

TEST(Engine, TiebreakSaltZeroKeepsFifoOrderAndIsDeterministic) {
  EXPECT_EQ(start_order(0), (std::vector<int>{0, 1, 2, 3}));
  for (const std::uint64_t salt : {1ULL, 7ULL, 1234567ULL}) {
    EXPECT_EQ(start_order(salt), start_order(salt)) << "salt " << salt;
  }
}

TEST(Engine, SomeSaltPerturbsSameTimeOrdering) {
  // The salts exist to flush order-dependence out of same-time events;
  // at least one small salt must produce a non-FIFO start order.
  const auto baseline = start_order(0);
  bool differs = false;
  for (std::uint64_t salt = 1; salt <= 8 && !differs; ++salt) {
    differs = start_order(salt) != baseline;
  }
  EXPECT_TRUE(differs);
}

TEST(Engine, DeadlockExplainerTextIsAppended) {
  Engine engine(2);
  engine.set_deadlock_explainer([] { return std::string("extra context"); });
  Waitable never;
  try {
    engine.run([&never](Process& p) { p.wait(never); });
    FAIL() << "expected Deadlock";
  } catch (const Deadlock& e) {
    EXPECT_NE(std::string(e.what()).find("extra context"), std::string::npos)
        << e.what();
  }
}

TEST(Engine, ThrowingDeadlockExplainerIsSwallowed) {
  // A broken explainer must not mask the Deadlock report itself.
  Engine engine(1);
  engine.set_deadlock_explainer(
      []() -> std::string { throw std::runtime_error("broken explainer"); });
  Waitable never;
  EXPECT_THROW(engine.run([&never](Process& p) { p.wait(never); }), Deadlock);
}

TEST(Engine, EachProcessRethrowsItsOwnCaughtException) {
  // Both processes block inside their catch handlers; p0 leaves its
  // handler first although p1 entered its own later (non-LIFO), so a
  // caught-exception chain shared between processes would hand p0
  // p1's exception on `throw;`.
  Engine engine(2);
  std::vector<std::string> rethrown(2);
  engine.run([&](Process& p) {
    const auto i = static_cast<std::size_t>(p.index());
    try {
      throw std::runtime_error("mine-" + std::to_string(i));
    } catch (const std::runtime_error&) {
      try {
        p.advance(i == 0 ? 1.0 : 0.5);
        p.advance(i == 0 ? 1.0 : 5.0);
        throw;
      } catch (const std::runtime_error& e) {
        rethrown[i] = e.what();
      }
    }
  });
  EXPECT_EQ(rethrown[0], "mine-0");
  EXPECT_EQ(rethrown[1], "mine-1");
}

TEST(Engine, UncaughtExceptionCountIsPerProcess) {
  // p0 blocks in a destructor while its exception unwinds; p1 runs
  // meanwhile and must not see p0's in-flight exception.
  struct BlockingGuard {
    Process& p;
    int* seen;
    ~BlockingGuard() {
      p.advance(1.0);
      *seen = std::uncaught_exceptions();
    }
  };
  Engine engine(2);
  int seen_unwinding = -1;
  int seen_other = -1;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      try {
        BlockingGuard guard{p, &seen_unwinding};
        throw std::runtime_error("unwinding");
      } catch (const std::runtime_error&) {
      }
    } else {
      p.advance(0.5);
      seen_other = std::uncaught_exceptions();
    }
  });
  EXPECT_EQ(seen_unwinding, 1);
  EXPECT_EQ(seen_other, 0);
}

TEST(Engine, RingOf4096ProcessesFinishesAtClosedFormClock) {
  // A token travels a 4096-process ring twice; every holder advances
  // dt (a power of two, so the sum is exact) and wakes its successor.
  constexpr int kProcs = 4096;
  constexpr int kLaps = 2;
  constexpr Time kDt = 1.0 / 1024;
  Engine engine(kProcs);
  std::vector<Waitable> turn(kProcs);
  int holder = 0;
  long hops = 0;
  const Time end = engine.run([&](Process& p) {
    const int i = p.index();
    for (int lap = 0; lap < kLaps; ++lap) {
      while (holder != i) p.wait(turn[static_cast<std::size_t>(i)]);
      p.advance(kDt);
      ++hops;
      holder = (i + 1) % kProcs;
      p.notify_one(turn[static_cast<std::size_t>(holder)]);
    }
  });
  EXPECT_EQ(hops, static_cast<long>(kProcs) * kLaps);
  EXPECT_EQ(end, kProcs * kLaps * kDt);
}

// Runs three processes that each advance 1.0 and returns their resume
// times; used to check that an engine is clean after a failed run.
std::vector<Time> resume_times_after(Engine& engine) {
  std::vector<Time> resumed(3, -1.0);
  engine.run([&resumed](Process& p) {
    p.advance(1.0);
    resumed[static_cast<std::size_t>(p.index())] = p.now();
  });
  return resumed;
}

TEST(Engine, RunsCleanlyAfterDeadlock) {
  Engine engine(3);
  Waitable never;
  EXPECT_THROW(engine.run([&never](Process& p) {
                 p.advance(p.index() + 1.0);
                 p.wait(never);
               }),
               Deadlock);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  const std::uint64_t events = engine.scheduled_events();
  EXPECT_EQ(resume_times_after(engine), (std::vector<Time>{4.0, 4.0, 4.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
  EXPECT_EQ(engine.scheduled_events() - events, 6u);  // start + advance
  EXPECT_FALSE(engine.aborted());
}

TEST(Engine, RunsCleanlyAfterBodyException) {
  // p1's wake-up at t=10 is still queued when p0 throws at t=1; the
  // next run must neither fire it nor start from its time.
  Engine engine(3);
  Waitable never;
  EXPECT_THROW(engine.run([&never](Process& p) {
                 if (p.index() == 0) {
                   p.advance(1.0);
                   throw std::logic_error("boom");
                 }
                 if (p.index() == 1) p.advance(10.0);
                 p.wait(never);
               }),
               std::logic_error);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  const std::uint64_t events = engine.scheduled_events();
  EXPECT_EQ(resume_times_after(engine), (std::vector<Time>{2.0, 2.0, 2.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.scheduled_events() - events, 6u);
  EXPECT_FALSE(engine.aborted());
}

// Divides at run time, so the result reflects the current SSE
// rounding mode rather than a value folded at compile time.
double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(Engine, RoundingModeIsPerProcess) {
  // p0 rounds upward across blocking switches; p1 runs in between and,
  // like the caller of run(), keeps round-to-nearest. fegetround reads
  // the x87 control word; one_third() exercises MXCSR.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one_third();
  Engine engine(2);
  std::vector<int> modes;
  bool p0_rounded_up = false;
  bool p1_rounded_nearest = false;
  engine.run([&](Process& p) {
    if (p.index() == 0) {
      std::fesetround(FE_UPWARD);
      p.advance(1.0);
      modes.push_back(std::fegetround());
      p.advance(1.0);
      modes.push_back(std::fegetround());
      p0_rounded_up = one_third() > nearest;
    } else {
      p.advance(0.5);
      modes.push_back(std::fegetround());
      p.advance(1.0);
      modes.push_back(std::fegetround());
      p1_rounded_nearest = one_third() == nearest;
    }
  });
  const int caller_mode = std::fegetround();
  const bool caller_rounds_nearest = one_third() == nearest;
  std::fesetround(FE_TONEAREST);  // keep later tests sane on failure
  EXPECT_EQ(modes, (std::vector<int>{FE_TONEAREST, FE_UPWARD,
                                     FE_TONEAREST, FE_UPWARD}));
  EXPECT_TRUE(p0_rounded_up);
  EXPECT_TRUE(p1_rounded_nearest);
  EXPECT_EQ(caller_mode, FE_TONEAREST);
  EXPECT_TRUE(caller_rounds_nearest);
}

TEST(Engine, FirstActivationHasAbiStackAlignment) {
  // A varargs call with floating-point arguments spills the vector
  // registers with aligned stores, so it faults on a stack that is not
  // 16-byte aligned at the call. It runs before any switch back, on the
  // frame the engine built for the process.
  Engine engine(3);
  std::vector<std::string> printed(3);
  std::vector<std::uintptr_t> misalignment(3, 1);
  engine.run([&](Process& p) {
    alignas(16) char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f %.1Lf", 1.5 + p.index(), 2.5L);
    const auto i = static_cast<std::size_t>(p.index());
    printed[i] = buf;
    misalignment[i] = reinterpret_cast<std::uintptr_t>(buf) % 16;
  });
  EXPECT_EQ(printed, (std::vector<std::string>{"1.5 2.5", "2.5 2.5",
                                               "3.5 2.5"}));
  EXPECT_EQ(misalignment, (std::vector<std::uintptr_t>{0, 0, 0}));
}

// Throws from @p depth frames down; every frame has a destructor, so
// the unwinder must run a cleanup in each of them on its way out.
[[gnu::noinline]] int throw_from_depth(int depth, int& unwound) {
  struct Count {
    int& n;
    ~Count() { ++n; }
  } count{unwound};
  if (depth == 0) throw std::runtime_error("deep");
  return throw_from_depth(depth - 1, unwound) + 1;
}

TEST(Engine, ExceptionFromDeepFramesIsCaughtOnFirstActivation) {
  Engine engine(2);
  std::vector<int> unwound(2, 0);
  std::vector<std::string> caught(2);
  engine.run([&](Process& p) {
    const auto i = static_cast<std::size_t>(p.index());
    try {
      throw_from_depth(1000, unwound[i]);
    } catch (const std::runtime_error& e) {
      caught[i] = e.what();
    }
    p.advance(1.0);
  });
  EXPECT_EQ(unwound, (std::vector<int>{1001, 1001}));
  EXPECT_EQ(caught, (std::vector<std::string>{"deep", "deep"}));
}

TEST(Engine, UncaughtExceptionFromDeepFramesIsRethrownByRun) {
  Engine engine(2);
  int unwound = 0;
  EXPECT_THROW(engine.run([&unwound](Process& p) {
                 if (p.index() == 1) throw_from_depth(1000, unwound);
                 p.advance(1.0);
               }),
               std::runtime_error);
  EXPECT_EQ(unwound, 1001);
}

}  // namespace
}  // namespace emc::sim
