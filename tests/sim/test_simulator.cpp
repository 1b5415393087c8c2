#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/rng.hpp"

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

// ---- reserved keys ------------------------------------------------

/// One randomized schedule dense in same-picosecond ties: each event
/// records its label and spawns one or two children 0-2 ns later, a
/// quarter of them carrying a tie token. Eagerly, a child is queued
/// the moment its key is reserved. Lazily, only its key is reserved at
/// once; it is queued through schedule_reserved at the end of a random
/// later event, and at the latest at the end of the last event that may
/// run before it (when no queued event lies strictly earlier).
std::vector<int> reserved_trace(std::uint64_t seed, bool lazy) {
  Simulator s;
  Rng shape(seed);     // the schedule itself: identical in both runs
  Rng when(~seed);     // when a lazy key is queued
  struct Deferred {
    EventKey key;
    int label;
  };
  std::vector<Deferred> deferred;
  std::vector<int> trace;
  int next_label = 0;
  std::function<void(int)> fire;
  const auto spawn = [&] {
    const TimePs t = s.now() + nanoseconds(shape.uniform_int(0, 2));
    const auto tie = static_cast<std::uint32_t>(
        shape.uniform_int(0, 3) == 0 ? shape.uniform_int(1, 3) : 0);
    const int label = next_label++;
    if (lazy) {
      deferred.push_back({s.reserve(t, s.now(), tie), label});
    } else {
      s.schedule_reserved(s.reserve(t, s.now(), tie),
                          [&fire, label] { fire(label); });
    }
  };
  const auto queue_due = [&] {
    const TimePs next = s.next_event_time();
    for (std::size_t i = 0; i < deferred.size();) {
      if (deferred[i].key.time <= next || when.uniform_int(0, 1) == 0) {
        const int label = deferred[i].label;
        s.schedule_reserved(deferred[i].key, [&fire, label] { fire(label); });
        deferred.erase(deferred.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  };
  fire = [&](int label) {
    trace.push_back(label);
    if (next_label < 3000) {
      for (std::int64_t n = shape.uniform_int(1, 2); n > 0; --n) spawn();
    }
    if (lazy) queue_due();
  };
  for (int i = 0; i < 8; ++i) spawn();
  if (lazy) queue_due();
  s.run();
  EXPECT_TRUE(deferred.empty());
  return trace;
}

TEST(ReservedKey, LateScheduleRunsWhereTheEagerOneWould) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<int> eager = reserved_trace(seed, false);
    ASSERT_GE(eager.size(), 3000u) << "seed " << seed;
    EXPECT_EQ(reserved_trace(seed, true), eager) << "seed " << seed;
  }
}

TEST(ReservedKey, ReserveConsumesTheSeqAnEagerScheduleWould) {
  // A reserved key sorts before everything scheduled after it at the
  // same (time, sched, tie), and after everything scheduled before.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(5), [&] { order.push_back(1); });
  const EventKey key = s.reserve(nanoseconds(5));
  s.schedule_at(nanoseconds(5), [&] { order.push_back(3); });
  s.schedule_at(nanoseconds(1), [&] {
    s.schedule_reserved(key, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ReservedKey, KeyThatPrecedesTheRunningEventThrows) {
  Simulator s;
  const EventKey early = s.reserve(nanoseconds(5));
  bool threw = false;
  s.schedule_at(nanoseconds(10), [&] {
    EXPECT_TRUE(s.passed(early));
    try {
      s.schedule_reserved(early, [] {});
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  });
  s.run();
  EXPECT_TRUE(threw);
  // Same picosecond: a key reserved before the running event and
  // sorting before it has passed too.
  Simulator t;
  const EventKey same = t.reserve(nanoseconds(5));
  t.schedule_at(nanoseconds(5), [&] {
    EXPECT_TRUE(t.passed(same));
    EXPECT_THROW(t.schedule_reserved(same, [] {}), std::invalid_argument);
  });
  t.run();
  EXPECT_THROW(t.reserve(nanoseconds(4)), std::invalid_argument);
  EXPECT_THROW(t.reserve(nanoseconds(9), nanoseconds(10)),
               std::invalid_argument);
}

TEST(ReservedKey, KeyReservedByTheRunningEventHasNotPassed) {
  // A tied event at (5 ns, sched 5 ns, tie 7) reserves a tie-0 key at
  // the same picosecond: it sorts before the running event, but an
  // eager event with that key would run next, so it has not passed.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(nanoseconds(5), [&] {
    s.schedule_reserved(s.reserve(nanoseconds(5), nanoseconds(5), 7), [&] {
      order.push_back(1);
      const EventKey k = s.reserve(nanoseconds(5));
      EXPECT_FALSE(s.passed(k));
      s.schedule_reserved(k, [&] { order.push_back(2); });
    });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ReservedKey, RunUntilPassesEveryEarlierReservedKey) {
  Simulator s;
  const EventKey at5 = s.reserve(nanoseconds(5));
  const EventKey at9 = s.reserve(nanoseconds(9));
  EXPECT_FALSE(s.passed(at5));
  s.run_until(nanoseconds(5));
  EXPECT_TRUE(s.passed(at5));
  EXPECT_FALSE(s.passed(at9));
  // A key reserved after run_until(5) at 5 ns is still ahead: an eager
  // schedule_at(5 ns) here would run on the next run call.
  int fired = 0;
  const EventKey fresh = s.reserve(nanoseconds(5));
  EXPECT_FALSE(s.passed(fresh));
  s.schedule_reserved(fresh, [&] { ++fired; });
  s.run_until(nanoseconds(9));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.passed(at9));
  EXPECT_FALSE(s.pending());
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
