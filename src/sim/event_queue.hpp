#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"

/// \file event_queue.hpp
/// Pending-event storage behind the Simulator: 40-byte POD (time,
/// sched, tie, seq, slot) entries ordered by (time, sched, tie, seq).
/// Two interchangeable backends share one interface so a run can pick
/// its structure without changing event semantics:
///
///  - HeapEventQueue: the default. A 4-ary min-heap that also indexes
///    every queued entry's position by its slot, so the Simulator
///    cancels eagerly — erase() removes the entry in O(log n) and the
///    pending set never holds tombstones. A 4-ary heap is half as deep
///    as a binary one and its four children sit in adjacent entries,
///    so a pop touches fewer cache lines.
///  - CalendarEventQueue: a classic calendar queue (Brown 1988) with
///    amortized O(1) push/pop when event times are spread evenly. It
///    cannot erase, so a cancelled event stays behind as a tombstone
///    that the Simulator discards when it surfaces. On the shipped
///    configs it is slower than the heap (one fig6 point: 34.2 s vs
///    6.1 s) and no config selects it.
///
/// The key is a strict total order (`seq` is unique), so any correct
/// priority queue pops in exactly the same order: a run's event trace
/// — and therefore every golden output — is backend-independent, and
/// erasing an entry early only drops an event that was never going to
/// run. Tests pin heap/calendar equivalence on randomized schedules.
///
/// The `sched` key is the CAUSAL timestamp: the simulation time at
/// which the event was scheduled. In a purely sequential run it is
/// redundant — scheduling actions execute in nondecreasing time order,
/// so `seq` (assigned chronologically) already refines `sched` and
/// (time, sched, seq) orders identically to the historical (time, seq).
/// Its purpose is cross-shard determinism: the partitioned engine
/// (sim::ShardedSimulator) ingests remote packet deliveries at window
/// barriers, long after destination-local events grabbed their seq
/// numbers, and stamps them with the sender-side send time via
/// Simulator::schedule_from so same-picosecond ties still resolve in
/// the sequential engine's scheduling-chronology order.

namespace powertcp::sim {

/// One pending event. `slot` indexes the Simulator's slot table, which
/// holds the callback; `sched` is the causal timestamp (see above) and
/// `seq` disambiguates remaining ties and stale slots. `burst_key`
/// rides in what used to be struct padding: a nonzero key marks the
/// event as burst-mergeable — when the Simulator's burst budget allows,
/// contiguous same-(time, key) entries are delivered as ONE callback
/// invocation carrying their summed count (see
/// Simulator::schedule_burst_at). Key 0 (the default) never merges, so
/// the per-event path is untouched.
///
/// `tie` is the TIE TOKEN, ordered between `sched` and `seq`: a
/// topology-derived identifier of the producing egress port (see
/// net::Node::attach_port), 0 for ordinary local events. Packet
/// deliveries carry their port's token in BOTH engines, so a
/// same-(time, sched) tie between deliveries from different ports — or
/// between a delivery and a local event — resolves by a key every
/// engine can compute locally, instead of by the global scheduling
/// chronology (`seq`) that a partitioned run cannot reconstruct. This
/// is what lets the sharded engine order cross-shard boundary ties
/// EXACTLY like the sequential engine (see docs/performance.md §6).
struct EventEntry {
  TimePs time;
  TimePs sched;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t burst_key = 0;
  std::uint32_t tie = 0;
};

/// True when a precedes b in pop order.
inline bool earlier(const EventEntry& a, const EventEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.sched != b.sched) return a.sched < b.sched;
  if (a.tie != b.tie) return a.tie < b.tie;
  return a.seq < b.seq;
}

class EventQueue {
 public:
  virtual ~EventQueue() = default;

  virtual void push(const EventEntry& e) = 0;
  /// Minimum entry by (time, sched, tie, seq), or nullptr when empty.
  /// The pointer is valid until the next push/pop.
  virtual const EventEntry* peek() = 0;
  /// Removes the entry peek() reported. Precondition: not empty.
  virtual void pop() = 0;
  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }
};

/// Which EventQueue backend a Simulator run uses.
enum class QueueKind : std::uint8_t { kBinaryHeap, kCalendar };

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

/// 4-ary min-heap with a slot -> position index (see the file comment).
/// Each slot may be queued at most once, which the Simulator guarantees:
/// a slot is reused only after its entry has been popped or erased.
class HeapEventQueue final : public EventQueue {
 public:
  void push(const EventEntry& e) override {
    if (e.slot >= pos_.size()) pos_.resize(std::size_t{e.slot} + 1);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, e);
  }
  const EventEntry* peek() override {
    return heap_.empty() ? nullptr : &heap_.front();
  }
  void pop() override {
    assert(!heap_.empty());
    const EventEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }
  std::size_t size() const override { return heap_.size(); }

  /// Removes the queued entry of `slot`. Precondition: `slot` is queued.
  void erase(std::uint32_t slot) {
    assert(slot < pos_.size() && pos_[slot] < heap_.size() &&
           heap_[pos_[slot]].slot == slot);
    const std::size_t i = pos_[slot];
    const EventEntry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;  // erased the last entry itself
    // `last` refills the hole; it may belong above or below it.
    if (i > 0 && earlier(last, heap_[(i - 1) / kArity])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

 private:
  static constexpr std::size_t kArity = 4;

  void place(std::size_t i, const EventEntry& e) {
    heap_[i] = e;
    pos_[e.slot] = static_cast<std::uint32_t>(i);
  }
  /// Moves the hole at `i` up until `e` fits, then stores `e` there.
  void sift_up(std::size_t i, const EventEntry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }
  /// Moves the hole at `i` down until `e` fits, then stores `e` there.
  void sift_down(std::size_t i, const EventEntry& e) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, e);
  }

  std::vector<EventEntry> heap_;
  /// Heap index of each queued slot's entry; stale for unqueued slots.
  std::vector<std::uint32_t> pos_;
};

class CalendarEventQueue final : public EventQueue {
 public:
  CalendarEventQueue();

  void push(const EventEntry& e) override;
  const EventEntry* peek() override;
  void pop() override;
  std::size_t size() const override { return size_; }

  /// Introspection for tests/benches.
  std::size_t bucket_count() const { return buckets_.size(); }
  TimePs bucket_width() const { return width_; }

 private:
  std::size_t bucket_of(TimePs t) const {
    return static_cast<std::size_t>(t / width_) & (buckets_.size() - 1);
  }
  bool find_min();
  void rebuild(std::size_t n_buckets);
  void maybe_resize();

  std::vector<std::vector<EventEntry>> buckets_;
  TimePs width_ = 1;
  std::size_t size_ = 0;
  /// Lower bound on every stored entry's time (the find-min year walk
  /// starts here). Raised to the popped time on pop — the popped entry
  /// is the minimum, so the rest sit at or above it — and lowered on
  /// any push beneath it (possible after a far-future tombstone pop
  /// raised it past the simulator clock).
  TimePs floor_ = 0;
  /// Cached location of the current minimum (valid_ => min_bucket_/
  /// min_index_ point at it).
  bool valid_ = false;
  std::size_t min_bucket_ = 0;
  std::size_t min_index_ = 0;
  /// Size at the last rebuild; triggers geometric grow/shrink.
  std::size_t rebuilt_at_ = 0;
};

}  // namespace powertcp::sim
