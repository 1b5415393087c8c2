#include "sim/simulator.hpp"

namespace powertcp::sim {

EventId Simulator::schedule_at(TimePs t, Callback cb) {
  return schedule_burst_at(t, 1, std::move(cb), 0);
}

EventId Simulator::schedule_tied_at(TimePs t, std::uint32_t tie, Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_tied_at: time " +
                                format_time(t) + " is before now " +
                                format_time(now_));
  }
  return push_event(EventEntry{t, now_, 0, 0, 0, tie}, 1, 0, std::move(cb));
}

EventId Simulator::schedule_from(TimePs sched_time, TimePs t, Callback cb,
                                 std::uint32_t origin, std::uint32_t tie) {
  if (sched_time > t) {
    throw std::invalid_argument("Simulator::schedule_from: sched_time " +
                                format_time(sched_time) + " is after time " +
                                format_time(t));
  }
  if (origin == 0) {
    throw std::invalid_argument(
        "Simulator::schedule_from: origin 0 is reserved for local events");
  }
  return push_event(EventEntry{t, sched_time, 0, 0, 0, tie}, 1, origin,
                    std::move(cb));
}

EventId Simulator::schedule_burst_at(TimePs t, std::uint32_t count,
                                     Callback cb, std::uint32_t merge_key) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time " +
                                format_time(t) + " is before now " +
                                format_time(now_));
  }
  if (count == 0) {
    throw std::invalid_argument("Simulator::schedule_burst_at: count 0");
  }
  return push_event(EventEntry{t, now_, 0, 0, merge_key, 0}, count, 0,
                    std::move(cb));
}

EventId Simulator::push_event(EventEntry e, std::uint32_t count,
                              std::uint32_t origin, Callback&& cb) {
  e.seq = next_seq_++;
  if (!free_slots_.empty()) {
    e.slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    e.slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[e.slot];
  s.seq = e.seq;
  s.burst_count = count;
  s.origin = origin;
  s.cb = std::move(cb);
  queue_push(e);
  ++live_events_;
  return EventId{e.seq, e.slot};
}

bool Simulator::pop_and_run_next(TimePs limit) {
  while (const EventEntry* top_ptr = queue_peek()) {
    const EventEntry top = *top_ptr;
    // Calendar tombstone: the slot was freed at cancel time (and
    // possibly reused for a newer event, whose seq then differs). The
    // heap erases at cancel time and never surfaces one.
    if (slots_[top.slot].seq != top.seq) {
      queue_pop();
      continue;
    }
    if (top.time > limit) return false;
    queue_pop();
    // Boundary ambiguity detection: equal-(time, sched, tie) events pop
    // contiguously, so comparing each live pop against the previous one
    // catches every such run that mixes causal origins — the only ties
    // whose sequential order a partitioned run cannot reconstruct.
    // Same-origin ties are exact: local pairs by scheduling order,
    // same-source-shard pairs by the router's send-order merge. Pairs
    // with DIFFERING tie tokens are exactly ordered by the token in
    // both engines, so they are not ambiguous — and since deliveries
    // carry unique per-port tokens, a mixed-origin same-token pair is
    // structurally impossible; the counter stays as the safety net the
    // harness polices.
    const std::uint32_t origin = slots_[top.slot].origin;
    if (have_prev_ && prev_time_ == top.time && prev_sched_ == top.sched &&
        prev_tie_ == top.tie && prev_origin_ != origin) {
      ++ambiguities_;
    }
    have_prev_ = true;
    prev_time_ = top.time;
    prev_sched_ = top.sched;
    prev_tie_ = top.tie;
    prev_origin_ = origin;
    std::uint32_t count = slots_[top.slot].burst_count;
    Callback cb = std::move(slots_[top.slot].cb);
    release_slot(top.slot);
    --live_events_;
    if (top.burst_key != 0 && burst_budget_ > 1) {
      // Pop-merge: coalesce the contiguous run of pending entries that
      // share (time, merge_key), summing their logical counts into one
      // invocation. Later callbacks in the run are interchangeable with
      // the first by the schedule_burst_at contract and are released
      // uninvoked. Calendar tombstones inside the run are discarded in
      // passing; the first live entry with a different time or key ends
      // the run.
      while (count < burst_budget_) {
        const EventEntry* next_ptr = queue_peek();
        if (next_ptr == nullptr || next_ptr->time != top.time) break;
        // Copy before popping: the peeked pointer is invalidated by pop.
        const EventEntry nx = *next_ptr;
        if (slots_[nx.slot].seq != nx.seq) {
          queue_pop();
          continue;
        }
        if (nx.burst_key != top.burst_key) break;
        count += slots_[nx.slot].burst_count;
        queue_pop();
        release_slot(nx.slot);
        --live_events_;
      }
    }
    now_ = top.time;
    executed_ += count;
    burst_count_ = count;
    cb();
    burst_count_ = 1;
    return true;
  }
  return false;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(kTimeInfinity)) {
  }
}

void Simulator::run_until(TimePs t) {
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(t)) {
  }
  if (!stopped_ && now_ < t) now_ = t;
}

void Simulator::run_events_before(TimePs end) {
  if (end < 1) {
    throw std::invalid_argument("Simulator::run_events_before: end < 1");
  }
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(end - 1)) {
  }
}

TimePs Simulator::next_event_time() {
  while (const EventEntry* top = queue_peek()) {
    if (slots_[top->slot].seq != top->seq) {
      queue_pop();  // calendar tombstone of a cancelled event
      continue;
    }
    return top->time;
  }
  return kTimeInfinity;
}

}  // namespace powertcp::sim
