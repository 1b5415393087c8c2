#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace powertcp::sim {

namespace {

constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = kMinBuckets;
  while (p < n && p < kMaxBuckets) p <<= 1;
  return p;
}

}  // namespace

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind) {
  if (kind == QueueKind::kCalendar) {
    return std::make_unique<CalendarEventQueue>();
  }
  return std::make_unique<HeapEventQueue>();
}

CalendarEventQueue::CalendarEventQueue() : buckets_(kMinBuckets) {}

void CalendarEventQueue::push(const EventEntry& e) {
  // Keep the search-floor invariant (floor_ <= every entry's time). A
  // push can land below the floor: discarding a cancelled far-future
  // tombstone raises floor_ to its time even though the simulator's
  // clock — which bounds future schedules — has not advanced that far.
  if (e.time < floor_) floor_ = e.time;
  std::vector<EventEntry>& b = buckets_[bucket_of(e.time)];
  b.push_back(e);
  ++size_;
  // Keep the cached minimum if the newcomer cannot beat it; otherwise
  // the next peek() re-searches (the newcomer may be the new minimum,
  // and push_back may have reallocated the minimum's own bucket).
  if (valid_ && (&b == &buckets_[min_bucket_] ||
                 earlier(e, buckets_[min_bucket_][min_index_]))) {
    valid_ = false;
  }
  maybe_resize();
}

const EventEntry* CalendarEventQueue::peek() {
  if (size_ == 0) return nullptr;
  if (!valid_ && !find_min()) return nullptr;
  return &buckets_[min_bucket_][min_index_];
}

void CalendarEventQueue::pop() {
  assert(size_ > 0);
  if (!valid_) find_min();
  std::vector<EventEntry>& b = buckets_[min_bucket_];
  floor_ = b[min_index_].time;
  // Order within a bucket is irrelevant (find_min scans), so swap-remove.
  b[min_index_] = b.back();
  b.pop_back();
  --size_;
  valid_ = false;
  maybe_resize();
}

/// Locates the global minimum. First walks one calendar "year" from the
/// floor bucket — the first bucket holding an entry inside its current-
/// year window contains the minimum, since later buckets' windows start
/// strictly later. If the year is empty (sparse regime), falls back to
/// a direct scan of every entry.
bool CalendarEventQueue::find_min() {
  if (size_ == 0) return false;
  const std::size_t n = buckets_.size();
  const std::size_t start = bucket_of(floor_);
  // Upper time bound of the floor bucket's current-year window.
  TimePs window_end = (floor_ / width_ + 1) * width_;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t bi = (start + k) & (n - 1);
    const std::vector<EventEntry>& b = buckets_[bi];
    std::size_t best = 0;
    bool found = false;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b[i].time >= window_end) continue;  // a later year
      if (!found || earlier(b[i], b[best])) {
        best = i;
        found = true;
      }
    }
    if (found) {
      min_bucket_ = bi;
      min_index_ = best;
      valid_ = true;
      return true;
    }
    window_end += width_;
  }
  // Sparse: nothing within a full rotation. Direct search.
  const EventEntry* best = nullptr;
  for (std::size_t bi = 0; bi < n; ++bi) {
    const std::vector<EventEntry>& b = buckets_[bi];
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (best == nullptr || earlier(b[i], *best)) {
        best = &b[i];
        min_bucket_ = bi;
        min_index_ = i;
      }
    }
  }
  valid_ = best != nullptr;
  return valid_;
}

void CalendarEventQueue::maybe_resize() {
  const std::size_t n = buckets_.size();
  if (size_ > 2 * n) {
    rebuild(next_pow2(size_));
  } else if (n > kMinBuckets && size_ < n / 8 &&
             (rebuilt_at_ == 0 || size_ < rebuilt_at_ / 4)) {
    rebuild(next_pow2(std::max(size_, kMinBuckets)));
  }
}

void CalendarEventQueue::rebuild(std::size_t n_buckets) {
  if (n_buckets == buckets_.size() && rebuilt_at_ != 0) {
    rebuilt_at_ = size_;
    return;
  }
  std::vector<EventEntry> all;
  all.reserve(size_);
  TimePs lo = kTimeInfinity;
  TimePs hi = 0;
  for (std::vector<EventEntry>& b : buckets_) {
    for (const EventEntry& e : b) {
      lo = std::min(lo, e.time);
      hi = std::max(hi, e.time);
      all.push_back(e);
    }
    b.clear();
  }
  // Width ~ the average inter-event gap, so one year spreads the
  // pending set across the whole calendar (clamped to stay sane when
  // all events share one instant).
  width_ = all.empty()
               ? 1
               : std::max<TimePs>(
                     1, (hi - lo) / static_cast<TimePs>(all.size() + 1));
  buckets_.assign(n_buckets, {});
  for (const EventEntry& e : all) {
    buckets_[bucket_of(e.time)].push_back(e);
  }
  rebuilt_at_ = size_;
  valid_ = false;
}

}  // namespace powertcp::sim
