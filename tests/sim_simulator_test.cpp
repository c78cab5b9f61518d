#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace pas::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(milliseconds(3), [&] { order.push_back(3); });
  s.schedule_at(milliseconds(1), [&] { order.push_back(1); });
  s.schedule_at(milliseconds(2), [&] { order.push_back(2); });
  s.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(3));
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesNow) {
  Simulator s;
  TimeNs fired_at = -1;
  s.schedule_at(seconds(1), [&] {
    s.schedule_after(milliseconds(500), [&] { fired_at = s.now(); });
  });
  s.run_to_completion();
  EXPECT_EQ(fired_at, seconds(1.5));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const auto id = s.schedule_at(milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run_to_completion();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelledEventDoesNotAdvanceClock) {
  Simulator s;
  const auto id = s.schedule_at(seconds(100), [] {});
  s.schedule_at(milliseconds(1), [] {});
  s.cancel(id);
  s.run_to_completion();
  EXPECT_EQ(s.now(), milliseconds(1));
}

TEST(Simulator, RunUntilAdvancesExactly) {
  Simulator s;
  int fired = 0;
  s.schedule_at(milliseconds(10), [&] { ++fired; });
  s.schedule_at(milliseconds(30), [&] { ++fired; });
  s.run_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), milliseconds(20));
  s.run_until(milliseconds(40));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), milliseconds(40));
}

TEST(Simulator, RunUntilInclusiveOfBoundary) {
  Simulator s;
  bool ran = false;
  s.schedule_at(milliseconds(10), [&] { ran = true; });
  s.run_until(milliseconds(10));
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule_after(microseconds(1), chain);
  };
  s.schedule_after(0, chain);
  s.run_to_completion();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.executed_events(), 100u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator s;
  s.schedule_at(milliseconds(7), [&] {
    s.schedule_after(0, [&] { EXPECT_EQ(s.now(), milliseconds(7)); });
  });
  s.run_to_completion();
  EXPECT_EQ(s.now(), milliseconds(7));
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_after(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, SchedulingInPastAborts) {
  Simulator s;
  s.schedule_at(milliseconds(5), [] {});
  s.run_to_completion();
  EXPECT_DEATH(s.schedule_at(milliseconds(1), [] {}), "past");
}

TEST(Simulator, InterleavedSameTimeFifoProperty) {
  // Property check: under a randomized mix of timestamps (with heavy
  // duplication), events sharing a timestamp always fire in schedule order,
  // and timestamps themselves are non-decreasing.
  Simulator s;
  Rng rng(7);
  std::vector<std::pair<TimeNs, int>> fired;  // (timestamp, schedule index)
  constexpr int kEvents = 500;
  for (int i = 0; i < kEvents; ++i) {
    const TimeNs t = milliseconds(static_cast<TimeNs>(rng.next_below(20)));
    s.schedule_at(t, [&fired, &s, i] { fired.emplace_back(s.now(), i); });
  }
  s.run_to_completion();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GE(fired[i].first, fired[i - 1].first);
    if (fired[i].first == fired[i - 1].first) {
      EXPECT_GT(fired[i].second, fired[i - 1].second)
          << "same-timestamp events fired out of schedule order";
    }
  }
}

TEST(Simulator, CancelFromInsideCallback) {
  // A callback cancels a later event while the kernel is mid-drain.
  Simulator s;
  bool victim_ran = false;
  Simulator::EventId victim =
      s.schedule_at(milliseconds(2), [&] { victim_ran = true; });
  bool cancel_ok = false;
  s.schedule_at(milliseconds(1), [&] { cancel_ok = s.cancel(victim); });
  s.run_to_completion();
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(victim_ran);
}

TEST(Simulator, CancelOwnIdFromInsideCallbackFails) {
  // The running event's id is already consumed: cancelling it reports false
  // and must not corrupt the slot that is actively executing.
  Simulator s;
  Simulator::EventId self = Simulator::kInvalidEvent;
  bool self_cancel = true;
  self = s.schedule_at(milliseconds(1), [&] { self_cancel = s.cancel(self); });
  s.run_to_completion();
  EXPECT_FALSE(self_cancel);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Simulator, CancelAlreadyFiredIdFails) {
  Simulator s;
  const auto id = s.schedule_at(milliseconds(1), [] {});
  s.run_to_completion();
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(Simulator::kInvalidEvent));
}

TEST(Simulator, StaleIdAfterSlotReuseFails) {
  // Generation tags: after an id's slot is recycled by new schedules, the
  // stale id must not cancel the unrelated event now occupying the slot.
  Simulator s;
  const auto stale = s.schedule_at(milliseconds(1), [] {});
  ASSERT_TRUE(s.cancel(stale));  // slot goes back to the free list
  int fired = 0;
  // Recycle aggressively: each schedule reuses the freed slot.
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(s.schedule_at(milliseconds(2 + i), [&] { ++fired; }));
    EXPECT_NE(ids.back(), stale);
    EXPECT_FALSE(s.cancel(stale));  // stale id never matches the new tenant
  }
  s.run_to_completion();
  EXPECT_EQ(fired, 8);
}

// Schedules on one Simulator and logs every schedule, so a run can be checked
// against its reference order: the uncancelled schedules stably sorted by
// timestamp, i.e. (time, schedule order).
struct OrderLog {
  Simulator sim;
  std::vector<TimeNs> times;  // by tag = schedule index
  std::vector<Simulator::EventId> ids;
  std::vector<bool> cancelled;
  std::vector<int> fired;

  // Schedules an event that logs its tag, then calls then(tag) if given.
  int schedule(TimeNs t, std::function<void(int)> then = nullptr) {
    const int tag = static_cast<int>(times.size());
    times.push_back(t);
    cancelled.push_back(false);
    ids.push_back(sim.schedule_at(t, [this, tag, then = std::move(then)] {
      fired.push_back(tag);
      if (then) then(tag);
    }));
    return tag;
  }

  void cancel(int tag) {
    EXPECT_TRUE(sim.cancel(ids[tag]));
    cancelled[tag] = true;
  }

  void run_and_check() {
    sim.run_to_completion();
    EXPECT_EQ(sim.pending_events(), 0u);
    std::vector<int> expected;
    for (int tag = 0; tag < static_cast<int>(times.size()); ++tag) {
      if (!cancelled[tag]) expected.push_back(tag);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [this](int a, int b) { return times[a] < times[b]; });
    EXPECT_EQ(fired, expected);
  }
};

TEST(Simulator, CancelHeavyPruningKeepsSurvivorOrder) {
  // Cancel enough tombstones to trigger heap pruning, then check the
  // surviving events still fire in exact (time, schedule-order) order.
  {
    // Random stamps; half the events are far-future guards, all cancelled
    // before the run.
    OrderLog log;
    Rng rng(11);
    std::vector<int> guards;
    for (int i = 0; i < 400; ++i) {
      const TimeNs t = milliseconds(static_cast<TimeNs>(1 + rng.next_below(50)));
      if (i % 2 == 0) {
        log.schedule(t);
      } else {
        guards.push_back(log.schedule(seconds(10) + t));
      }
    }
    for (int tag : guards) log.cancel(tag);  // 200 cancels => prune
    log.run_and_check();
  }
  {
    // 1 600 in-order appends (over 1 024 pending, so the heap grows), stamps
    // shared by groups of four. Every third event schedules one more at its
    // own or the next group's stamp, earlier than most pending events; event
    // 100 cancels 932 pending events, so the heap prunes mid-run.
    OrderLog log;
    constexpr int kAppends = 1600;
    for (int i = 0; i < kAppends; ++i) {
      const TimeNs t = microseconds(10.0 * (1 + i / 4));
      if (i == 100) {
        log.schedule(t, [&log](int) {
          for (int v = 201; v < kAppends; ++v) {
            if (v % 3 != 0) log.cancel(v);
          }
        });
      } else if (i % 3 == 0) {
        log.schedule(t, [&log](int tag) {
          log.schedule(log.sim.now() + microseconds(10.0 * (tag % 2)));
        });
      } else {
        log.schedule(t);
      }
    }
    log.run_and_check();
  }
}

TEST(Simulator, OversizedCaptureFallsBackToHeap) {
  // Captures larger than the inline callback buffer must still work (heap
  // fallback path in UniqueCallback).
  Simulator s;
  struct Big {
    std::uint64_t payload[32];  // 256 B, far over the inline budget
  };
  Big big{};
  big.payload[0] = 41;
  std::uint64_t seen = 0;
  s.schedule_at(milliseconds(1), [big, &seen] { seen = big.payload[0] + 1; });
  s.run_to_completion();
  EXPECT_EQ(seen, 42u);
}

TEST(PeriodicTask, FiresAtFixedPeriod) {
  Simulator s;
  std::vector<TimeNs> ticks;
  PeriodicTask task(s, milliseconds(10), [&] { ticks.push_back(s.now()); });
  task.start();
  s.run_until(milliseconds(55));
  ASSERT_EQ(ticks.size(), 5u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], milliseconds(10) * static_cast<TimeNs>(i + 1));
  }
}

TEST(PeriodicTask, StopHaltsTicks) {
  Simulator s;
  int ticks = 0;
  PeriodicTask task(s, milliseconds(1), [&] { ++ticks; });
  task.start();
  s.run_until(milliseconds(5));
  task.stop();
  s.run_until(milliseconds(100));
  EXPECT_EQ(ticks, 5);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, StopFromWithinCallback) {
  Simulator s;
  int ticks = 0;
  PeriodicTask task(s, milliseconds(1), [&] {
    if (++ticks == 3) task.stop();
  });
  task.start();
  s.run_until(milliseconds(50));
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTask, RestartAfterStop) {
  Simulator s;
  int ticks = 0;
  PeriodicTask task(s, milliseconds(1), [&] { ++ticks; });
  task.start();
  s.run_until(milliseconds(3));
  task.stop();
  task.start();
  s.run_until(milliseconds(6));
  EXPECT_EQ(ticks, 6);
}

TEST(PeriodicTask, StartIsIdempotent) {
  Simulator s;
  int ticks = 0;
  PeriodicTask task(s, milliseconds(10), [&] { ++ticks; });
  task.start();
  task.start();
  s.run_until(milliseconds(25));
  EXPECT_EQ(ticks, 2);  // not doubled
}

}  // namespace
}  // namespace pas::sim
