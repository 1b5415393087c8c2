#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

/// \file simulator.hpp
/// Deterministic discrete-event engine.
///
/// Events scheduled for the same timestamp execute in scheduling order
/// (FIFO tie-break on a monotonically increasing sequence number), so a
/// run is a pure function of its inputs and RNG seed. This determinism is
/// relied on by the regression tests, which compare whole packet traces
/// across runs.
///
/// Storage is split between an EventQueue of 32-byte POD entries
/// (time, sched, tie, seq, slot) — an indexed 4-ary heap by default, a
/// calendar queue on request (QueueKind, chosen per run) — and a slot
/// table holding the callbacks. Callbacks are sim::Callback, which
/// embeds the closure in the slot (no per-event heap allocation;
/// oversized captures fail to compile). Cancelling is an O(1)
/// generation check against the EventId's seq (no lookaside set that
/// could grow when stale ids are cancelled), frees the slot at once,
/// and on the heap also erases the queue entry in O(log n): the pending
/// set holds live events only. The calendar cannot erase, so there a
/// cancelled event leaves its POD entry behind as a tombstone that is
/// discarded when it reaches the top. One queue entry runs exactly one
/// callback.
///
/// Work that may turn out to have nothing to do need not sit in the
/// pending set at all: reserve() hands out the exact key an eager
/// schedule would take, schedule_reserved() queues it only once there
/// is work, and passed() tells lazy state whether that key has gone by.
/// An idle port's serialization finish and a host's not-yet-due flow
/// starts use this, so the run is byte-identical to scheduling them
/// eagerly.

namespace powertcp::sim {

/// Handle for a scheduled event; usable with Simulator::cancel().
/// A default-constructed EventId refers to no event.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  constexpr bool operator==(const EventId&) const = default;
};

class Simulator {
 public:
  explicit Simulator(QueueKind queue_kind = QueueKind::kBinaryHeap)
      : queue_(make_event_queue(queue_kind)),
        heap_(queue_kind == QueueKind::kBinaryHeap
                  ? static_cast<HeapEventQueue*>(queue_.get())
                  : nullptr) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimePs now() const { return now_; }

  /// Schedules `cb` at absolute time `t`. `t` must not be in the past.
  EventId schedule_at(TimePs t, Callback cb);

  /// Schedules `cb` after `delay` (>= 0) from now.
  EventId schedule_in(TimePs delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` at absolute time `t` with an EXPLICIT causal
  /// timestamp `sched_time` (<= t): the event sorts among
  /// same-picosecond peers as if it had been scheduled at
  /// `sched_time`, not at now(). This is the cross-shard ingestion
  /// primitive — a remote packet delivery handed over at a window
  /// barrier keeps the tie-break position the sequential engine would
  /// have given it at the sender-side send time. `sched_time` may lie
  /// in this simulator's past (the sender's clock runs independently);
  /// only events at times still strictly ahead of this shard's
  /// executed window may be scheduled, which the conservative
  /// lookahead guarantees.
  ///
  /// `origin` must be NONZERO and identify the foreign causal domain
  /// (the sharded engine uses 1 + source shard). It feeds the boundary
  /// ambiguity detector: two back-to-back events with equal
  /// (time, sched_time, tie) but different origins are a tie whose
  /// sequential order is not locally decidable — see
  /// boundary_ambiguities(). `tie` is the producing port's tie token
  /// (see reserve); deliveries stamped with a nonzero token are exactly
  /// ordered against every differently-keyed event, so with tokens
  /// flowing the detector is structurally silent.
  EventId schedule_from(TimePs sched_time, TimePs t, Callback cb,
                        std::uint32_t origin, std::uint32_t tie = 0);

  /// Reserves, without queueing anything, the key an eager
  /// schedule_at(t, ...) would take at this moment: its seq is consumed
  /// now, so every later schedule sorts after it exactly as it would
  /// behind the eager event. A reserved key that is never scheduled
  /// costs nothing; schedule_reserved queues it, now or later.
  ///
  /// `sched` (now() <= sched <= t) stamps the key as if it were
  /// scheduled at that later instant — how a port schedules a delivery
  /// at serialization start with the key its finish event would have
  /// given it. `tie` is the TIE TOKEN: the event sorts among
  /// same-(time, sched) peers by it before falling back to scheduling
  /// order. Packet deliveries carry their egress port's
  /// topology-derived token (see net::Node::attach_port), so
  /// same-picosecond delivery ties resolve by a key that is identical
  /// in sequential and sharded runs; schedule_from carries the same
  /// token across a shard boundary.
  EventKey reserve(TimePs t, TimePs sched, std::uint32_t tie = 0) {
    if (sched < now_ || sched > t) throw_bad_reserve(t, sched);
    return EventKey{t, sched, tie, next_seq_++};
  }
  EventKey reserve(TimePs t) { return reserve(t, now_, 0); }

  /// Queues `cb` under a key from reserve(), taking no new seq, so the
  /// event pops exactly where the eager schedule would have. Throws if
  /// the key has already passed (see passed()), i.e. if it precedes the
  /// running event's key and was reserved before that event began.
  EventId schedule_reserved(const EventKey& key, Callback cb);

  /// True when an event with `key` would already have run (or is the
  /// one running): the key was reserved before the running event
  /// popped and sorts at or before it, or it was reserved before a
  /// run_until(t) with t >= key.time returned — every key with time
  /// <= t has passed once run_until(t) returns (run_events_before(end)
  /// likewise for time < end). A key reserved by the running event
  /// itself has not passed even when it sorts before it: an eager
  /// event with that key would pop right after the running one. Lazy
  /// state (an idle port's finish, a shared buffer's pending release)
  /// compares its reserved key here instead of queueing an event.
  bool passed(const EventKey& key) const {
    return (!earlier(running_, key) && key.seq < pop_seq_) ||
           (key.time <= floor_time_ && key.seq < floor_seq_);
  }

  /// Count of executed same-(time, sched, tie) adjacent event pairs
  /// whose origins differ — boundary ties between a cross-shard
  /// delivery and a local event (or deliveries from two different
  /// source shards) at the same picosecond with the same causal
  /// timestamp and the same tie token. The sequential engine orders
  /// such a pair by causal history that a partitioned run cannot
  /// reconstruct with bounded state, so a sharded run is PROVABLY
  /// byte-identical to the sequential engine iff this stays 0 on every
  /// shard; ShardedSimulator::run_until throws otherwise. Since every
  /// cross-shard delivery carries its port's unique nonzero token
  /// (net::Node::attach_port) while local events carry 0, this is a
  /// safety net that should never fire — kept as the proof obligation
  /// (see docs/performance.md).
  std::uint64_t boundary_ambiguities() const { return ambiguities_; }

  /// The event key shared by an ambiguous pair.
  struct TieKey {
    TimePs time = 0;
    TimePs sched = 0;
    std::uint32_t tie = 0;
  };
  /// Key of the first ambiguous pair; meaningful only while
  /// boundary_ambiguities() > 0.
  const TieKey& first_ambiguity() const { return first_ambiguity_; }

  /// Cancels a pending event and releases its callback immediately; on
  /// the default heap backend its queue entry goes too (no tombstone).
  /// Cancelling an already-fired, already-cancelled, or default
  /// EventId is a harmless no-op and allocates nothing.
  void cancel(EventId id) {
    if (id.seq == 0 || id.slot >= slots_.size()) return;
    Slot& s = slots_[id.slot];
    if (s.seq != id.seq) return;  // fired or superseded: stale handle
    if (heap_ != nullptr) heap_->erase(id.slot);
    release_slot(id.slot);
    --live_events_;
  }

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs events with time <= `t`; afterwards now() == t unless stopped
  /// earlier, and every key reserved so far with time <= t has passed.
  /// Events scheduled beyond `t` remain pending.
  void run_until(TimePs t);

  /// Runs every event with time strictly below `end` (>= 1); now() is
  /// left at the last executed event, never advanced to `end`. This is
  /// the window primitive of ShardedSimulator: a shard executes one
  /// conservative lookahead window [start, end) and stops without
  /// claiming the boundary instant, which the next window owns. Keys
  /// reserved so far with time < `end` have passed afterwards (the
  /// conservative window guarantees nothing earlier can still arrive).
  void run_events_before(TimePs end);

  /// Earliest pending live event time, or kTimeInfinity when idle.
  /// Calendar tombstones blocking the top are discarded in passing (the
  /// same lazy deletion the run loop performs).
  TimePs next_event_time();

  /// Stops the run loop after the current event returns.
  void stop() { stopped_ = true; }

  /// True while at least one *live* (not cancelled) event is scheduled.
  bool pending() const { return live_events_ > 0; }
  std::uint64_t events_executed() const { return executed_; }

  /// Queue entries for cancelled events awaiting lazy removal: always 0
  /// on the heap backend, which erases at cancel time. On the calendar
  /// it is bounded by the number of events ever in flight; regression
  /// tests assert it never grows from cancelling stale ids.
  std::size_t tombstones() const {
    return queue_->size() - static_cast<std::size_t>(live_events_);
  }

  /// Slot-table introspection for leak regression tests: the table's
  /// high-water size and how many of those slots are currently free.
  std::size_t slot_count() const { return slots_.size(); }
  std::size_t free_slot_count() const { return free_slots_.size(); }

 private:
  struct Slot {
    std::uint64_t seq = 0;  ///< 0 = free; else seq of the event it holds
    /// Causal domain of the scheduling action: 0 for local events,
    /// 1 + source shard for cross-shard deliveries (schedule_from).
    /// Sits in padding before the 16-byte-aligned Callback, so the slot
    /// stays one cache line. Feeds the boundary ambiguity detector.
    std::uint32_t origin = 0;
    Callback cb;
  };
  static_assert(sizeof(Slot) == 64,
                "an event slot is one 64-byte cache line (Callback::kCapacity)");

  void release_slot(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.seq = 0;
    s.cb.reset();
    free_slots_.push_back(idx);
  }

  /// Assigns `e` its seq and a slot holding `cb`, and queues it. The
  /// callers have validated `e`'s time, causal stamp and tie token.
  EventId push_event(EventEntry e, std::uint32_t origin, Callback&& cb);
  /// push_event for an entry that already carries its seq.
  EventId queue_event(EventEntry e, std::uint32_t origin, Callback&& cb);

  [[noreturn]] void throw_bad_reserve(TimePs t, TimePs sched) const;

  void set_floor(TimePs t) {
    floor_time_ = t;
    floor_seq_ = next_seq_;
  }

  bool pop_and_run_next(TimePs limit);

  // Devirtualized fast path for the default backend: the branch on
  // `heap_` predicts perfectly and lets the final class's inline
  // methods inline, where the virtual call cannot.
  void queue_push(const EventEntry& e) {
    if (heap_ != nullptr) {
      heap_->push(e);
    } else {
      queue_->push(e);
    }
  }
  const EventEntry* queue_peek() {
    return heap_ != nullptr ? heap_->peek() : queue_->peek();
  }
  void queue_pop() {
    if (heap_ != nullptr) {
      heap_->pop();
    } else {
      queue_->pop();
    }
  }

  std::unique_ptr<EventQueue> queue_;
  HeapEventQueue* const heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t live_events_ = 0;
  bool stopped_ = false;

  /// Key of the running (or last executed) event; seq 0 before the
  /// first one. passed() compares against it.
  EventKey running_;
  /// next_seq_ when the running event popped: keys with a smaller seq
  /// were reserved before it began. Starts at 1 so the all-zero key
  /// (seq 0, never reserved) has always passed.
  std::uint64_t pop_seq_ = 1;
  /// Left by a completed run_until / run_events_before: keys reserved
  /// before it (seq < floor_seq_) with time <= floor_time_ have passed.
  TimePs floor_time_ = -1;
  std::uint64_t floor_seq_ = 0;

  // Boundary ambiguity detector (see boundary_ambiguities()): running_
  // is the previously executed event's key, carried across (calendar)
  // tombstone discards, and this its origin. Equal-(time, sched, tie)
  // events pop contiguously, so checking each adjacent pair catches
  // every run that mixes origins.
  std::uint32_t prev_origin_ = 0;
  std::uint64_t ambiguities_ = 0;
  TieKey first_ambiguity_;
};

}  // namespace powertcp::sim
