// Unit tests: discrete-event engine, fibers, event queue, topology.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/topology.hpp"

namespace spbc::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });  // same time: insertion order
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int ran = 0;
  auto id = q.schedule(1.0, [&] { ++ran; });
  q.schedule(2.0, [&] { ++ran; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(ran, 1);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto id = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(Engine, TimeAdvancesMonotonically) {
  Engine e;
  std::vector<Time> stamps;
  e.at(0.5, [&] { stamps.push_back(e.now()); });
  e.at(0.25, [&] { stamps.push_back(e.now()); });
  e.at(1.0, [&] { stamps.push_back(e.now()); });
  e.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 0.25);
  EXPECT_DOUBLE_EQ(stamps[1], 0.5);
  EXPECT_DOUBLE_EQ(stamps[2], 1.0);
}

TEST(Engine, FiberWaitAdvancesVirtualTime) {
  Engine e;
  Time end = -1;
  e.spawn([&] {
    e.wait(1.5);
    e.wait(0.5);
    end = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(end, 2.0);
}

TEST(Engine, TwoFibersInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  e.spawn([&] {
    order.push_back(1);
    e.wait(1.0);
    order.push_back(3);
  });
  e.spawn([&] {
    order.push_back(2);
    e.wait(0.5);
    order.push_back(4);  // wakes at 0.5, before fiber 1's 1.0
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(Engine, ParkUnparkRoundTrip) {
  Engine e;
  bool done = false;
  Engine::TaskId id = e.spawn([&] {
    e.park();
    done = true;
  });
  e.at(3.0, [&] { e.unpark(id); });
  e.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, KillUnwindsStackWithDestructors) {
  Engine e;
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  Engine::TaskId id = e.spawn([&] {
    Sentinel s{&destroyed};
    e.park();  // killed here
    FAIL() << "should not resume";
  });
  e.at(1.0, [&] { e.kill(id); });
  e.run();
  EXPECT_TRUE(destroyed);
  EXPECT_TRUE(e.task_finished(id));
}

TEST(Engine, KillUnwindsAfterManySwitches) {
  Engine e;
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  Engine::TaskId id = e.spawn([&] {
    Sentinel s{&destroyed};
    for (;;) e.wait(1.0);  // one park/resume round trip per virtual second
  });
  e.at(10000.5, [&] { e.kill(id); });
  e.run();
  EXPECT_TRUE(destroyed);
  EXPECT_TRUE(e.task_finished(id));
  // The first start, 10,000 wait wake-ups, and the kill.
  EXPECT_EQ(e.stats().fiber_resumes, 10002u);
}

// A 16-byte-aligned local must land on a 16-byte boundary: the first frame of
// a fiber starts with the ABI stack alignment, and every later frame keeps
// it, before and after a switch.
bool aligned_local_ok() {
  alignas(16) volatile unsigned char buf[16];
  buf[0] = 1;
  return reinterpret_cast<uintptr_t>(&buf[0]) % 16 == 0;
}

TEST(Fiber, LocalsKeepAbiAlignment) {
  std::vector<bool> ok;
  Fiber f(
      [&ok] {
        ok.push_back(aligned_local_ok());
        Fiber::current()->yield();
        ok.push_back(aligned_local_ok());
      },
      64 * 1024);
  f.resume();
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(ok, (std::vector<bool>{true, true}));
}

void throw_from_depth(int depth) {
  if (depth == 0) throw std::runtime_error("inside the fiber");
  throw_from_depth(depth - 1);
}

TEST(Fiber, ExceptionThrownAndCaughtInsideBody) {
  int caught = 0;
  Fiber f(
      [&caught] {
        try {
          throw_from_depth(8);
        } catch (const std::runtime_error&) {
          ++caught;
        }
        Fiber::current()->yield();
        // Again after a switch, from the resumed stack.
        try {
          throw_from_depth(3);
        } catch (const std::runtime_error&) {
          ++caught;
        }
      },
      64 * 1024);
  f.resume();
  EXPECT_EQ(caught, 1);
  f.resume();
  EXPECT_EQ(caught, 2);
  EXPECT_TRUE(f.finished());
}

// Rounding mode is per fiber: a switch saves the outgoing context's
// floating-point control state and restores the incoming one's.
double third() {
  volatile double one = 1.0, three = 3.0;
  return one / three;
}

bool rounds_upward() {
#if defined(__x86_64__)
  // SSE arithmetic follows MXCSR; fegetround reports the x87 control word.
  if ((_mm_getcsr() & 0x6000u) != 0x4000u) return false;
#endif
  return std::fegetround() == FE_UPWARD;
}

bool rounds_to_nearest() {
#if defined(__x86_64__)
  if ((_mm_getcsr() & 0x6000u) != 0u) return false;
#endif
  return std::fegetround() == FE_TONEAREST;
}

TEST(Fiber, RoundingModeStaysInsideItsFiber) {
  ASSERT_TRUE(rounds_to_nearest());
  const double nearest = third();
  double up_a = 0, seen_b = 0;
  bool a_kept_mode = false, b_saw_nearest = false;
  Fiber a(
      [&] {
        std::fesetround(FE_UPWARD);
        up_a = third();
        Fiber::current()->yield();
        a_kept_mode = rounds_upward();
        std::fesetround(FE_TONEAREST);
      },
      64 * 1024);
  Fiber b(
      [&] {
        b_saw_nearest = rounds_to_nearest();
        seen_b = third();
      },
      64 * 1024);
  a.resume();
  EXPECT_NE(up_a, nearest);  // the mode really changed inside a
  EXPECT_TRUE(rounds_to_nearest()) << "leaked into the scheduler";
  EXPECT_EQ(third(), nearest);
  b.resume();
  EXPECT_TRUE(b_saw_nearest) << "leaked into a second fiber";
  EXPECT_EQ(seen_b, nearest);
  a.resume();
  EXPECT_TRUE(a_kept_mode) << "lost across a switch";
  EXPECT_TRUE(rounds_to_nearest());
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
}

TEST(Engine, DeadlockDetectedGracefully) {
  Engine e;
  e.set_abort_on_deadlock(false);
  e.spawn([&] { e.park(); });  // nobody will wake it
  e.run();
  EXPECT_TRUE(e.deadlocked());
  EXPECT_EQ(e.live_task_count(), 1u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int ran = 0;
  e.at(1.0, [&] { ++ran; });
  e.at(5.0, [&] { ++ran; });
  e.run_until(2.0);
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, SpawnFromFiber) {
  Engine e;
  int child_ran = 0;
  e.spawn([&] {
    e.spawn([&] { ++child_ran; });
    e.wait(1.0);
  });
  e.run();
  EXPECT_EQ(child_ran, 1);
}

TEST(Engine, ManyFibersScale) {
  Engine e(64 * 1024);
  int finished = 0;
  for (int i = 0; i < 512; ++i) {
    e.spawn([&e, &finished, i] {
      e.wait(0.001 * (i % 7));
      ++finished;
    });
  }
  e.run();
  EXPECT_EQ(finished, 512);
}

TEST(Topology, NodeMapping) {
  Topology t(64, 8);
  EXPECT_EQ(t.nranks(), 512);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(7), 0);
  EXPECT_EQ(t.node_of(8), 1);
  EXPECT_EQ(t.node_of(511), 63);
  EXPECT_TRUE(t.same_node(8, 15));
  EXPECT_FALSE(t.same_node(7, 8));
}

TEST(Topology, ForRanksFactory) {
  Topology t = Topology::for_ranks(32, 4);
  EXPECT_EQ(t.nodes(), 8);
  EXPECT_EQ(t.ranks_per_node(), 4);
}

}  // namespace
}  // namespace spbc::sim
