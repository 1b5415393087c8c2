#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
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
/// Storage is split between an EventQueue of 40-byte POD entries
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
/// discarded when it reaches the top.
///
/// Events can be BURST-GRANULAR: one queue entry may stand for `count`
/// logical events (schedule_burst_at), and entries tagged with a merge
/// key coalesce at pop time up to the burst budget. Both mechanisms
/// preserve the logical event sequence — events_executed() advances by
/// the summed count, and a budget of 1 (the default) is byte-identical
/// to the per-event engine. See docs/performance.md.

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

  /// Schedules `cb` at absolute time `t` carrying tie token `tie`
  /// (0 degenerates to schedule_at): the event sorts among
  /// same-(time, sched) peers by the token BEFORE falling back to
  /// scheduling order. Packet deliveries
  /// use this with their egress port's topology-derived token (see
  /// net::Node::attach_port) so that same-picosecond delivery ties
  /// resolve by a key that is identical in sequential and sharded runs
  /// — the exact-ordering half of the tie-token scheme; schedule_from
  /// carries the same token across a shard boundary.
  EventId schedule_tied_at(TimePs t, std::uint32_t tie, Callback cb);

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
  /// (see schedule_tied_at); deliveries stamped with a nonzero token
  /// are exactly ordered against every differently-keyed event, so
  /// with tokens flowing the detector is structurally silent.
  EventId schedule_from(TimePs sched_time, TimePs t, Callback cb,
                        std::uint32_t origin, std::uint32_t tie = 0);

  /// Count of executed same-(time, sched, tie) adjacent event pairs
  /// whose origins differ — boundary ties between a cross-shard
  /// delivery and a local event (or deliveries from two different
  /// source shards) at the same picosecond with the same causal
  /// timestamp and the same tie token. The sequential engine orders
  /// such a pair by causal history that a partitioned run cannot
  /// reconstruct with bounded state, so a sharded run is PROVABLY
  /// byte-identical to the sequential engine iff this stays 0 on every
  /// shard; the harness falls back to a sequential rerun otherwise.
  /// Since every cross-shard delivery carries its port's unique
  /// nonzero token (net::Node::attach_port) while local events carry
  /// 0, this is now a safety net that should never fire — kept (and
  /// still policed by the harness) as the proof obligation
  /// (see docs/performance.md).
  std::uint64_t boundary_ambiguities() const { return ambiguities_; }

  /// Schedules ONE queue entry that stands for `count` (>= 1) logical
  /// events: when it fires, events_executed() advances by `count` and
  /// burst_count() reports it inside the callback. This is how a
  /// producer that already knows k back-to-back same-time outcomes
  /// (an egress port draining k queued packets in one transmission
  /// train) pays one schedule/pop cycle instead of k.
  ///
  /// A nonzero `merge_key` additionally marks the entry POP-MERGEABLE:
  /// while the burst budget (set_burst_budget) exceeds 1, contiguous
  /// pending entries with the same (time, merge_key) are coalesced at
  /// pop time — their counts sum, and only the FIRST entry's callback
  /// runs; the later callbacks are released uninvoked. Callers must
  /// therefore use one key only for events whose callbacks are
  /// interchangeable (same receiver, count-driven body). Key 0 never
  /// merges. Keys are a cooperative namespace; pick per-object keys
  /// (e.g. from a counter) to avoid accidental aliasing.
  EventId schedule_burst_at(TimePs t, std::uint32_t count, Callback cb,
                            std::uint32_t merge_key = 0);

  /// Upper bound on logical events delivered per callback invocation by
  /// pop-time merging (see schedule_burst_at). 1 — the default — turns
  /// merging off entirely and is byte-identical to the historical
  /// per-event engine; the randomized burst-equivalence tests pin that
  /// any budget produces the same logical event sequence.
  void set_burst_budget(std::uint32_t budget) {
    if (budget == 0) {
      throw std::invalid_argument("Simulator::set_burst_budget: budget 0");
    }
    burst_budget_ = budget;
  }
  std::uint32_t burst_budget() const { return burst_budget_; }

  /// Number of logical events the currently-running callback stands
  /// for (>= 1). Valid during callback invocation; 1 outside.
  std::uint32_t burst_count() const { return burst_count_; }

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
  /// earlier. Events scheduled beyond `t` remain pending.
  void run_until(TimePs t);

  /// Runs every event with time strictly below `end` (>= 1); now() is
  /// left at the last executed event, never advanced to `end`. This is
  /// the window primitive of ShardedSimulator: a shard executes one
  /// conservative lookahead window [start, end) and stops without
  /// claiming the boundary instant, which the next window owns.
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
    /// Logical events this slot's callback stands for (>= 1). Rides in
    /// what used to be padding before the 16-byte-aligned Callback, so
    /// the slot stays one cache line.
    std::uint32_t burst_count = 1;
    /// Causal domain of the scheduling action: 0 for local events,
    /// 1 + source shard for cross-shard deliveries (schedule_from).
    /// Rides in the remaining padding word — the slot is still one
    /// cache line. Feeds the boundary ambiguity detector.
    std::uint32_t origin = 0;
    Callback cb;
  };

  void release_slot(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.seq = 0;
    s.cb.reset();
    free_slots_.push_back(idx);
  }

  /// Assigns `e` its seq and a slot holding `cb`, and queues it. The
  /// callers have validated `e`'s time, causal stamp and tie token.
  EventId push_event(EventEntry e, std::uint32_t count, std::uint32_t origin,
                     Callback&& cb);

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
  std::uint32_t burst_budget_ = 1;
  std::uint32_t burst_count_ = 1;
  bool stopped_ = false;

  // Boundary ambiguity detector (see boundary_ambiguities()): key and
  // origin of the previously executed event, carried across (calendar)
  // tombstone discards. Equal-(time, sched, tie) events pop contiguously, so
  // checking each adjacent pair catches every run that mixes origins.
  bool have_prev_ = false;
  TimePs prev_time_ = 0;
  TimePs prev_sched_ = 0;
  std::uint32_t prev_tie_ = 0;
  std::uint32_t prev_origin_ = 0;
  std::uint64_t ambiguities_ = 0;
};

}  // namespace powertcp::sim
