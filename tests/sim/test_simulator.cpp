#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace powertcp::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_FALSE(s.pending());
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
  s.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  s.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.schedule_at(nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator s;
  TimePs seen = -1;
  s.schedule_at(microseconds(7), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, microseconds(7));
  EXPECT_EQ(s.now(), microseconds(7));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  TimePs seen = -1;
  s.schedule_at(microseconds(5), [&] {
    s.schedule_in(microseconds(3), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, microseconds(8));
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.schedule_at(microseconds(10), [&] {
    EXPECT_THROW(s.schedule_at(microseconds(5), [] {}),
                 std::invalid_argument);
  });
  s.run();
}

TEST(Simulator, EventsCanScheduleAtCurrentTime) {
  Simulator s;
  int fired = 0;
  s.schedule_at(microseconds(1), [&] {
    s.schedule_at(s.now(), [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  const EventId id = s.schedule_at(nanoseconds(10), [&] { ++fired; });
  s.cancel(id);
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsNoOp) {
  Simulator s;
  int fired = 0;
  const EventId id = s.schedule_at(nanoseconds(10), [&] { ++fired; });
  s.run();
  s.cancel(id);  // already executed: harmless
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelOnlyAffectsTargetEvent) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  const EventId id = s.schedule_at(nanoseconds(10), [&] { order.push_back(2); });
  s.schedule_at(nanoseconds(10), [&] { order.push_back(3); });
  s.cancel(id);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, CancelDecrementsPendingImmediately) {
  // Regression: pending() used to count cancelled-but-unpopped events as
  // live, so a drain loop keyed on pending() saw phantom work.
  Simulator s;
  const EventId a = s.schedule_at(nanoseconds(10), [] {});
  const EventId b = s.schedule_at(nanoseconds(20), [] {});
  EXPECT_TRUE(s.pending());
  s.cancel(a);
  EXPECT_TRUE(s.pending());
  s.cancel(b);
  EXPECT_FALSE(s.pending());  // only tombstones remain
  s.run();
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Simulator, RepeatedCancelOfSameIdDecrementsOnce) {
  Simulator s;
  const EventId a = s.schedule_at(nanoseconds(10), [] {});
  s.schedule_at(nanoseconds(20), [] {});
  s.cancel(a);
  s.cancel(a);
  s.cancel(a);
  EXPECT_TRUE(s.pending());  // the second event is still live
}

TEST(Simulator, StaleCancelBookkeepingStaysBounded) {
  // Regression: cancelling an already-fired (or default) id used to
  // insert a seq into a lazy-deletion set that was never erased,
  // growing without bound across a long run.
  Simulator s;
  for (int round = 0; round < 100; ++round) {
    const EventId id = s.schedule_at(s.now(), [] {});
    s.run();
    for (int i = 0; i < 10; ++i) s.cancel(id);  // fired: stale handle
    s.cancel(EventId{});                        // never scheduled
    EXPECT_EQ(s.tombstones(), 0u);
    EXPECT_FALSE(s.pending());
  }
}

TEST(Simulator, TombstonesDrainOnPop) {
  // The default heap backend cancels eagerly: the queue entry goes at
  // cancel time, so no tombstone is ever left to drain, and the run
  // executes exactly the live events. (The calendar keeps lazy
  // tombstones; SimulatorQueueKind.CancelAndTombstonesWorkOnCalendar
  // pins those.)
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(s.schedule_at(nanoseconds(i), [] {}));
  }
  for (int i = 0; i < 10; i += 2) {
    s.cancel(ids[static_cast<size_t>(i)]);
    EXPECT_EQ(s.tombstones(), 0u) << "after cancelling event " << i;
  }
  s.run();
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, StaleHandleDoesNotCancelSlotReuser) {
  // A freed slot may be reused by a newer event; the old handle's seq
  // no longer matches, so cancelling it must not touch the new event.
  Simulator s;
  const EventId old_id = s.schedule_at(nanoseconds(10), [] {});
  s.cancel(old_id);
  int fired = 0;
  s.schedule_at(nanoseconds(20), [&] { ++fired; });  // reuses the slot
  s.cancel(old_id);                                  // stale: must no-op
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelInsideRunningCallbackOfSelfIsNoOp) {
  Simulator s;
  EventId self{};
  int fired = 0;
  self = s.schedule_at(nanoseconds(10), [&] {
    ++fired;
    s.cancel(self);  // own event is already executing: harmless
  });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.tombstones(), 0u);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator s;
  int fired = 0;
  s.schedule_at(microseconds(1), [&] { ++fired; });
  s.schedule_at(microseconds(10), [&] { ++fired; });
  s.run_until(microseconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), microseconds(5));
  EXPECT_TRUE(s.pending());
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilExecutesEventAtBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule_at(microseconds(5), [&] { ++fired; });
  s.run_until(microseconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator s;
  int fired = 0;
  s.schedule_at(nanoseconds(1), [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(nanoseconds(2), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_at(nanoseconds(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, RecursiveSchedulingChains) {
  Simulator s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) s.schedule_in(nanoseconds(10), tick);
  };
  s.schedule_at(0, tick);
  s.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(s.now(), nanoseconds(990));
}

TEST(TimeHelpers, UnitConversionsAreExact) {
  EXPECT_EQ(nanoseconds(1), 1'000);
  EXPECT_EQ(microseconds(1), 1'000'000);
  EXPECT_EQ(milliseconds(1), 1'000'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000'000);
  EXPECT_EQ(from_seconds(1e-6), microseconds(1));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(3)), 3.0);
}

TEST(TimeHelpers, FormatPicksUnits) {
  EXPECT_EQ(format_time(picoseconds(500)), "500ps");
  EXPECT_EQ(format_time(microseconds(12) + nanoseconds(500)), "12.500us");
  EXPECT_EQ(format_time(milliseconds(3)), "3.000ms");
  EXPECT_EQ(format_time(kTimeInfinity), "inf");
}

TEST(Bandwidth, TxTimeIsExactAtCommonRates) {
  // 1 byte at 100 Gbps = 80 ps; a 1048-byte frame = 83.84 ns.
  EXPECT_EQ(Bandwidth::gbps(100).tx_time(1), 80);
  EXPECT_EQ(Bandwidth::gbps(100).tx_time(1048), 83'840);
  // 25 Gbps: 320 ps per byte.
  EXPECT_EQ(Bandwidth::gbps(25).tx_time(1000), 320'000);
}

TEST(Bandwidth, BdpMatchesHandComputation) {
  // 25 Gbps x 20 us = 62.5 KB.
  EXPECT_EQ(Bandwidth::gbps(25).bdp_bytes(microseconds(20)), 62'500);
}

TEST(Bandwidth, BytesInWindow) {
  EXPECT_EQ(Bandwidth::gbps(8).bytes_in(microseconds(1)), 1'000);
}

}  // namespace
}  // namespace powertcp::sim
