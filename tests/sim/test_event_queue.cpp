#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace powertcp::sim {
namespace {

std::vector<EventEntry> drain(EventQueue& q) {
  std::vector<EventEntry> out;
  while (const EventEntry* top = q.peek()) {
    out.push_back(*top);
    q.pop();
  }
  return out;
}

void expect_same_drain(const std::vector<EventEntry>& a,
                       const std::vector<EventEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "at " << i;
    EXPECT_EQ(a[i].sched, b[i].sched) << "at " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << "at " << i;
    EXPECT_EQ(a[i].slot, b[i].slot) << "at " << i;
  }
}

TEST(CalendarEventQueue, PopsInTimeThenSeqOrder) {
  CalendarEventQueue q;
  q.push({nanoseconds(30), 0, 1, 0});
  q.push({nanoseconds(10), 0, 2, 1});
  q.push({nanoseconds(10), 0, 3, 2});
  q.push({nanoseconds(20), 0, 4, 3});
  const auto order = drain(q);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0].seq, 2u);
  EXPECT_EQ(order[1].seq, 3u);
  EXPECT_EQ(order[2].seq, 4u);
  EXPECT_EQ(order[3].seq, 1u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(CalendarEventQueue, CausalTimestampBreaksSameTimeTies) {
  // Same delivery instant, different causal (schedule-time) stamps: the
  // earlier-scheduled event pops first even when its seq is larger —
  // the cross-shard merge relies on this middle key. Equal stamps fall
  // back to seq (FIFO).
  for (const QueueKind kind : {QueueKind::kBinaryHeap, QueueKind::kCalendar}) {
    auto q = make_event_queue(kind);
    q->push({nanoseconds(50), nanoseconds(40), 1, 0});
    q->push({nanoseconds(50), nanoseconds(10), 2, 1});
    q->push({nanoseconds(50), nanoseconds(40), 3, 2});
    q->push({nanoseconds(50), nanoseconds(25), 4, 3});
    const auto order = drain(*q);
    ASSERT_EQ(order.size(), 4u) << "kind " << static_cast<int>(kind);
    EXPECT_EQ(order[0].seq, 2u);
    EXPECT_EQ(order[1].seq, 4u);
    EXPECT_EQ(order[2].seq, 1u);  // sched tie with 3: lower seq first
    EXPECT_EQ(order[3].seq, 3u);
  }
}

TEST(CalendarEventQueue, MatchesHeapOnRandomizedWorkload) {
  // Dense bursts, sparse gaps, heavy same-time ties, and interleaved
  // pops — the pop sequence must be identical to the binary heap's.
  HeapEventQueue heap;
  CalendarEventQueue cal;
  Rng rng(0xC0FFEEull);
  TimePs clock = 0;
  std::uint64_t seq = 1;
  std::vector<EventEntry> heap_order, cal_order;
  for (int round = 0; round < 200; ++round) {
    const int pushes = 1 + static_cast<int>(rng.uniform() * 40);
    for (int i = 0; i < pushes; ++i) {
      const double r = rng.uniform();
      TimePs delta;
      if (r < 0.4) {
        delta = 0;  // tie storm
      } else if (r < 0.9) {
        delta = static_cast<TimePs>(rng.uniform() * 1e6);  // dense ~us
      } else {
        delta = static_cast<TimePs>(rng.uniform() * 1e11);  // sparse ~100ms
      }
      // sched = the push-time clock, as the engine stamps it; heavy
      // time ties make the (sched, seq) tail of the key do real work.
      const EventEntry e{clock + delta, clock, seq,
                         static_cast<std::uint32_t>(seq)};
      ++seq;
      heap.push(e);
      cal.push(e);
    }
    const int pops = static_cast<int>(rng.uniform() * pushes * 1.2);
    for (int i = 0; i < pops && heap.size() > 0; ++i) {
      const EventEntry* a = heap.peek();
      const EventEntry* b = cal.peek();
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      clock = a->time;  // future pushes never go below the pop floor
      heap_order.push_back(*a);
      cal_order.push_back(*b);
      heap.pop();
      cal.pop();
    }
    ASSERT_EQ(heap.size(), cal.size());
  }
  // Drain the rest.
  auto rest_a = drain(heap);
  auto rest_b = drain(cal);
  heap_order.insert(heap_order.end(), rest_a.begin(), rest_a.end());
  cal_order.insert(cal_order.end(), rest_b.begin(), rest_b.end());
  expect_same_drain(heap_order, cal_order);
}

TEST(CalendarEventQueue, ResizesUnderGrowthAndShrink) {
  CalendarEventQueue q;
  const std::size_t initial_buckets = q.bucket_count();
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    q.push({static_cast<TimePs>(i) * 1000, 0, i + 1,
            static_cast<std::uint32_t>(i)});
  }
  EXPECT_GT(q.bucket_count(), initial_buckets);
  TimePs last = -1;
  std::size_t n = 0;
  while (const EventEntry* top = q.peek()) {
    EXPECT_GE(top->time, last);
    last = top->time;
    q.pop();
    ++n;
  }
  EXPECT_EQ(n, 10'000u);
  // Shrink pressure: the table contracts once nearly empty.
  EXPECT_LT(q.bucket_count(), 4096u);
}

TEST(CalendarEventQueue, AllEventsAtOneInstant) {
  CalendarEventQueue q;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    q.push({microseconds(5), 0, i + 1, static_cast<std::uint32_t>(i)});
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const EventEntry* top = q.peek();
    ASSERT_NE(top, nullptr);
    EXPECT_EQ(top->seq, i + 1);  // FIFO among ties
    q.pop();
  }
  EXPECT_EQ(q.size(), 0u);
}

/// Pop-order key of an entry: (time, sched, tie, seq), a strict total
/// order because seq is unique.
using Key = std::tuple<TimePs, TimePs, std::uint32_t, std::uint64_t>;
Key key_of(const EventEntry& e) { return {e.time, e.sched, e.tie, e.seq}; }

TEST(HeapEventQueue, EraseKeepsPopOrderOnRandomizedWorkload) {
  // Pushes with heavy (time, sched) ties split by tie tokens, erases of
  // arbitrary queued slots, and interleaved pops: every pop must be the
  // minimum of an ordered reference set, and size() must track it.
  HeapEventQueue heap;
  std::set<Key> ref;
  std::vector<EventEntry> queued_by_slot(256);
  std::vector<std::uint32_t> queued_slots;  // slots currently queued
  std::vector<std::uint32_t> free_slots;
  for (std::uint32_t i = 0; i < 256; ++i) free_slots.push_back(i);
  Rng rng(0x4A3Eull);
  std::uint64_t seq = 1;
  const auto forget = [&](std::uint32_t slot) {
    queued_slots.erase(
        std::find(queued_slots.begin(), queued_slots.end(), slot));
    free_slots.push_back(slot);
  };
  for (int step = 0; step < 20'000; ++step) {
    const double r = rng.uniform();
    if (r < 0.5 && !free_slots.empty()) {
      const std::uint32_t slot = free_slots.back();
      free_slots.pop_back();
      EventEntry e{};
      e.time = nanoseconds(rng.uniform_int(0, 20));
      e.sched = nanoseconds(rng.uniform_int(0, 3));
      e.tie = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
      e.seq = seq++;
      e.slot = slot;
      heap.push(e);
      ref.insert(key_of(e));
      queued_by_slot[slot] = e;
      queued_slots.push_back(slot);
    } else if (r < 0.75 && !queued_slots.empty()) {
      const std::uint32_t slot = queued_slots[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(queued_slots.size()) -
                                 1))];
      heap.erase(slot);
      ref.erase(key_of(queued_by_slot[slot]));
      forget(slot);
    } else if (!ref.empty()) {
      const EventEntry* top = heap.peek();
      ASSERT_NE(top, nullptr);
      ASSERT_EQ(key_of(*top), *ref.begin()) << "step " << step;
      const std::uint32_t slot = top->slot;
      heap.pop();
      ref.erase(ref.begin());
      forget(slot);
    }
    ASSERT_EQ(heap.size(), ref.size()) << "step " << step;
  }
  while (const EventEntry* top = heap.peek()) {
    ASSERT_EQ(key_of(*top), *ref.begin());
    heap.pop();
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(ref.empty());
}

/// RTO-style timer churn on a Simulator: every "ack" cancels and
/// re-arms its flow's retransmission timer, schedules tied deliveries
/// that share (time, sched) and differ only in their tie token, and
/// hands some deliveries in through schedule_from with a causal stamp
/// in the past. New events always land strictly after now, so the
/// executed sequence must be the sorted set of every event that was
/// scheduled and not cancelled.
struct TimerChurn {
  explicit TimerChurn(QueueKind kind) : s(kind) {}

  Simulator s;
  Rng rng{0x7E57ull};
  std::vector<Key> keys;        ///< by schedule order
  std::vector<bool> cancelled;  ///< by schedule order
  std::vector<Key> executed;
  std::vector<EventId> rto;
  std::vector<std::size_t> rto_index;
  std::vector<bool> rto_live;
  std::size_t max_tombstones = 0;
  static constexpr TimePs kHorizon = 200'000'000;  // 200 us

  void note_tombstones() {
    max_tombstones = std::max(max_tombstones, s.tombstones());
  }
  template <typename Schedule>
  std::size_t add(TimePs t, TimePs sched, std::uint32_t tie,
                  Schedule&& schedule) {
    const std::size_t i = keys.size();
    keys.emplace_back();
    cancelled.push_back(false);
    const EventId id = schedule(i);
    keys[i] = Key{t, sched, tie, id.seq};
    return i;
  }
  std::size_t at(TimePs t, std::uint32_t tie, void (TimerChurn::*body)(int),
                 int flow) {
    return add(t, s.now(), tie, [&](std::size_t i) {
      return s.schedule_tied_at(t, tie, [this, i, body, flow] {
        executed.push_back(keys[i]);
        note_tombstones();
        (this->*body)(flow);
      });
    });
  }
  void arm_rto(int f, TimePs delay) {
    const auto fi = static_cast<std::size_t>(f);
    if (rto_live[fi]) {
      s.cancel(rto[fi]);
      cancelled[rto_index[fi]] = true;
      note_tombstones();
    }
    rto_index[fi] = add(s.now() + delay, s.now(), 0, [&](std::size_t i) {
      return rto[fi] = s.schedule_at(s.now() + delay, [this, i, f] {
               executed.push_back(keys[i]);
               note_tombstones();
               on_rto(f);
             });
    });
    rto_live[fi] = true;
  }
  void nop(int) {}
  void on_rto(int f) {
    rto_live[static_cast<std::size_t>(f)] = false;
    if (s.now() < kHorizon) arm_rto(f, nanoseconds(300));  // backoff
  }
  void on_ack(int f) {
    arm_rto(f, nanoseconds(100));
    if (s.now() >= kHorizon) return;
    // Tied deliveries: same (time, sched), distinct tokens.
    const TimePs t = s.now() + nanoseconds(10 * rng.uniform_int(1, 4));
    const auto n_tied = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    for (std::uint32_t k = 0; k < n_tied; ++k) {
      at(t, 1 + ((k + static_cast<std::uint32_t>(f)) % 5),
         &TimerChurn::nop, f);
    }
    if (rng.uniform() < 0.3) {
      // A cross-shard-style delivery stamped in the past.
      const TimePs sched = s.now() - std::min<TimePs>(s.now(), nanoseconds(5));
      const auto tie = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      add(t, sched, tie, [&](std::size_t i) {
        return s.schedule_from(
            sched, t,
            [this, i] {
              executed.push_back(keys[i]);
              note_tombstones();
            },
            /*origin=*/1, tie);
      });
    }
    // The next ack usually comes before the RTO would fire.
    const TimePs gap = rng.uniform() < 0.9
                           ? nanoseconds(10 * rng.uniform_int(1, 8))
                           : nanoseconds(150);
    at(s.now() + gap, 0, &TimerChurn::on_ack, f);
  }

  void run(int flows) {
    rto.resize(static_cast<std::size_t>(flows));
    rto_index.resize(static_cast<std::size_t>(flows));
    rto_live.assign(static_cast<std::size_t>(flows), false);
    for (int f = 0; f < flows; ++f) {
      at(nanoseconds(10 * rng.uniform_int(0, 5)), 0, &TimerChurn::on_ack, f);
    }
    s.run();
  }
};

TEST(Simulator, EagerCancelMatchesSortedReferenceOnRtoChurn) {
  TimerChurn heap(QueueKind::kBinaryHeap);
  heap.run(64);
  std::vector<Key> expected;
  for (std::size_t i = 0; i < heap.keys.size(); ++i) {
    if (!heap.cancelled[i]) expected.push_back(heap.keys[i]);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_GT(expected.size(), 10'000u);
  ASSERT_GT(heap.keys.size() - expected.size(), 1'000u)
      << "the workload must cancel plenty of timers";
  EXPECT_EQ(heap.executed, expected);
  // The pending set held live events only, throughout.
  EXPECT_EQ(heap.max_tombstones, 0u);
  EXPECT_EQ(heap.s.tombstones(), 0u);
  EXPECT_FALSE(heap.s.pending());

  // The lazy calendar runs the identical event sequence.
  TimerChurn cal(QueueKind::kCalendar);
  cal.run(64);
  EXPECT_EQ(cal.executed, heap.executed);
  EXPECT_GT(cal.max_tombstones, 0u);
}

TEST(SimulatorQueueKind, CalendarRunMatchesHeapRun) {
  // The same self-scheduling workload on both backends: identical
  // execution traces (event count, per-event now(), final clock).
  const auto trace = [](QueueKind kind) {
    Simulator s(kind);
    std::vector<TimePs> times;
    Rng rng(42);
    std::function<void()> tick = [&] {
      times.push_back(s.now());
      if (times.size() >= 5000) return;
      // A little burst plus a far timer, some cancelled.
      const EventId doomed =
          s.schedule_in(microseconds(3), [&times] { times.push_back(-1); });
      s.schedule_in(static_cast<TimePs>(rng.uniform() * 1e6) + 1, tick);
      if (rng.uniform() < 0.7) s.cancel(doomed);
    };
    s.schedule_at(0, tick);
    s.run();
    return times;
  };
  const auto heap_trace = trace(QueueKind::kBinaryHeap);
  const auto cal_trace = trace(QueueKind::kCalendar);
  EXPECT_EQ(heap_trace, cal_trace);
  EXPECT_GE(heap_trace.size(), 5000u);
}

TEST(SimulatorQueueKind, FarFutureTombstoneDoesNotCorruptTheFloor) {
  // Regression: discarding a cancelled far-future event's tombstone
  // raised the calendar's search floor to the tombstone's time; events
  // scheduled afterwards (legal: the clock is far below it) sat under
  // the floor and the year-walk returned a non-minimum — time went
  // backwards relative to the heap backend.
  for (const QueueKind kind : {QueueKind::kBinaryHeap, QueueKind::kCalendar}) {
    Simulator s(kind);
    const EventId far =
        s.schedule_at(microseconds(1'000'033), [] { FAIL(); });
    s.cancel(far);
    s.run_until(microseconds(1'000'010));  // discards the tombstone
    std::vector<TimePs> fired;
    s.schedule_at(microseconds(1'000'033), [&] { fired.push_back(s.now()); });
    s.schedule_at(microseconds(1'000'018), [&] { fired.push_back(s.now()); });
    s.run();
    ASSERT_EQ(fired.size(), 2u) << "kind " << static_cast<int>(kind);
    EXPECT_EQ(fired[0], microseconds(1'000'018));
    EXPECT_EQ(fired[1], microseconds(1'000'033));
  }
}

TEST(SimulatorQueueKind, CancelAndTombstonesWorkOnCalendar) {
  Simulator s(QueueKind::kCalendar);
  int fired = 0;
  const EventId a = s.schedule_at(nanoseconds(10), [&] { ++fired; });
  s.schedule_at(nanoseconds(20), [&] { ++fired; });
  s.cancel(a);
  EXPECT_EQ(s.tombstones(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_FALSE(s.pending());
}

}  // namespace
}  // namespace powertcp::sim
