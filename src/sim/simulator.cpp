#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>

namespace powertcp::sim {

EventId Simulator::schedule_at(TimePs t, Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time " +
                                format_time(t) + " is before now " +
                                format_time(now_));
  }
  return push_event(EventEntry{t, now_, 0, 0, 0}, 0, std::move(cb));
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
  return push_event(EventEntry{t, sched_time, 0, 0, tie}, origin,
                    std::move(cb));
}

void Simulator::throw_bad_reserve(TimePs t, TimePs sched) const {
  throw std::invalid_argument("Simulator::reserve: need now " +
                              format_time(now_) + " <= sched " +
                              format_time(sched) + " <= time " +
                              format_time(t));
}

EventId Simulator::schedule_reserved(const EventKey& key, Callback cb) {
  if (passed(key)) {
    throw std::invalid_argument(
        "Simulator::schedule_reserved: key (time " + format_time(key.time) +
        ", seq " + std::to_string(key.seq) +
        ") precedes the running event's key and was reserved before it");
  }
  return queue_event(EventEntry{key.time, key.sched, key.seq, 0, key.tie}, 0,
                     std::move(cb));
}

EventId Simulator::push_event(EventEntry e, std::uint32_t origin,
                              Callback&& cb) {
  e.seq = next_seq_++;
  return queue_event(e, origin, std::move(cb));
}

EventId Simulator::queue_event(EventEntry e, std::uint32_t origin,
                               Callback&& cb) {
  if (!free_slots_.empty()) {
    e.slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    e.slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[e.slot];
  s.seq = e.seq;
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
    // structurally impossible; the counter stays as the safety net
    // ShardedSimulator::run_until enforces.
    const std::uint32_t origin = slots_[top.slot].origin;
    if (running_.seq != 0 && running_.time == top.time &&
        running_.sched == top.sched && running_.tie == top.tie &&
        prev_origin_ != origin) {
      if (ambiguities_++ == 0) {
        first_ambiguity_ = TieKey{top.time, top.sched, top.tie};
      }
    }
    running_ = EventKey{top.time, top.sched, top.tie, top.seq};
    pop_seq_ = next_seq_;
    prev_origin_ = origin;
    Callback cb = std::move(slots_[top.slot].cb);
    release_slot(top.slot);
    --live_events_;
    now_ = top.time;
    ++executed_;
    cb();
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
  if (stopped_) return;
  if (now_ < t) now_ = t;
  set_floor(t);
}

void Simulator::run_events_before(TimePs end) {
  if (end < 1) {
    throw std::invalid_argument("Simulator::run_events_before: end < 1");
  }
  stopped_ = false;
  while (!stopped_ && pop_and_run_next(end - 1)) {
  }
  if (!stopped_) set_floor(end - 1);
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
