#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"

/// \file dt_buffer.hpp
/// Shared-memory buffer with the Dynamic Thresholds admission policy of
/// Choudhury & Hahne (IEEE/ACM ToN 1998) — the buffer management the
/// paper enables on every switch (§4.1), as commodity datacenter ASICs do.
///
/// A packet is admitted to a queue iff
///     qlen(queue) < alpha * (B - U)
/// where B is the total buffer, U the bytes currently used across all
/// queues, and alpha the DT control parameter (default 1, as in the
/// original paper's "fair" setting).
///
/// A packet leaves the buffer when its serialization finishes, but its
/// port queues no finish event when nothing waits behind it (see
/// egress_port.hpp). Instead each port files the release under the
/// finish's reserved key (release_at), and every read — admits() and
/// used_bytes() — first settles the releases whose key has passed. A
/// sibling port's admission at the finish picosecond therefore sees
/// exactly what it would with an eager finish event: the bytes are
/// gone iff the finish key precedes the admitting event's key. Reads
/// stay O(1) while no release is due; a due release costs one scan over
/// the switch's transmitting ports.

namespace powertcp::net {

class DtSharedBuffer {
 public:
  DtSharedBuffer(std::int64_t total_bytes, double alpha = 1.0)
      : total_bytes_(total_bytes), alpha_(alpha) {}

  /// True iff a packet of `pkt_bytes` may join a queue currently holding
  /// `queue_bytes`. Does not reserve — call `on_enqueue` after admitting.
  bool admits(std::int64_t queue_bytes, std::int64_t pkt_bytes) const {
    settle();
    const std::int64_t free_bytes = total_bytes_ - used_bytes_;
    if (pkt_bytes > free_bytes) return false;  // hard capacity
    const double threshold = alpha_ * static_cast<double>(free_bytes);
    return static_cast<double>(queue_bytes) < threshold;
  }

  void on_enqueue(std::int64_t pkt_bytes) { used_bytes_ += pkt_bytes; }

  /// Registers a port that releases through release_at and returns its
  /// slot. Every port of one buffer must run on the same simulator.
  int add_port(const sim::Simulator& simulator) {
    if (sim_ != nullptr && sim_ != &simulator) {
      throw std::logic_error(
          "DtSharedBuffer: ports on different simulators share a buffer");
    }
    sim_ = &simulator;
    pending_.emplace_back();
    return static_cast<int>(pending_.size()) - 1;
  }

  /// `pkt_bytes` of port `slot` leave the buffer once `key` has passed
  /// (Simulator::passed). `key` is a serialization finish, so it sorts
  /// after the running event. The slot's previous release must have
  /// passed — a port serializes one packet at a time — and is applied
  /// here.
  void release_at(int slot, const sim::EventKey& key, std::int64_t pkt_bytes) {
    Pending& p = pending_[static_cast<std::size_t>(slot)];
    if (p.bytes == 0) {
      active_.push_back(slot);
    } else if (sim_->passed(p.key)) {
      used_bytes_ -= p.bytes;
    } else {
      throw std::logic_error(
          "DtSharedBuffer::release_at: the slot's previous release is "
          "still pending");
    }
    p = Pending{key, pkt_bytes};
    if (sim::earlier(key, next_due_)) next_due_ = key;
  }

  std::int64_t used_bytes() const {
    settle();
    return used_bytes_;
  }
  std::int64_t total_bytes() const { return total_bytes_; }
  double alpha() const { return alpha_; }

 private:
  struct Pending {
    sim::EventKey key;
    std::int64_t bytes = 0;  ///< 0: nothing pending in this slot
  };
  static constexpr sim::EventKey kNoneDue{sim::kTimeInfinity, 0, 0, 0};

  /// Applies every pending release whose key has passed. Logically
  /// const: the buffer's occupancy is a function of the engine's clock.
  void settle() const {
    if (next_due_.time == sim::kTimeInfinity || !sim_->passed(next_due_)) {
      return;
    }
    next_due_ = kNoneDue;
    for (std::size_t i = 0; i < active_.size();) {
      Pending& p = pending_[static_cast<std::size_t>(active_[i])];
      if (sim_->passed(p.key)) {
        used_bytes_ -= p.bytes;
        p.bytes = 0;
        active_[i] = active_.back();
        active_.pop_back();
      } else {
        if (sim::earlier(p.key, next_due_)) next_due_ = p.key;
        ++i;
      }
    }
  }

  std::int64_t total_bytes_;
  double alpha_;
  mutable std::int64_t used_bytes_ = 0;
  const sim::Simulator* sim_ = nullptr;
  /// One release slot per registered port.
  mutable std::vector<Pending> pending_;
  /// Slots with a release pending, so a settle scans only ports that
  /// are transmitting.
  mutable std::vector<int> active_;
  /// Lower bound on every pending key; kNoneDue when none is pending.
  mutable sim::EventKey next_due_ = kNoneDue;
};

}  // namespace powertcp::net
