#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/packet.hpp"

/// \file packet_pool.hpp
/// Generation-checked parking lot for in-flight Packets.
///
/// A Packet is 360 bytes (264 of them the 8-hop INT stack), so every
/// copy on the per-hop path costs. Each net::Node owns one pool, shared
/// by its egress ports: EgressPort::enqueue parks an arriving packet
/// once, the queue disciplines hold 8-byte handles, start_tx stamps INT
/// into the parked packet in place, and the same handle rides the
/// finish and delivery events until the packet leaves the pool — once —
/// into the peer's Node::receive. Event closures capture the handle, not
/// the packet. Generations catch use-after-take and double-take at the
/// call site instead of silently reading recycled storage.
///
/// Storage grows in fixed-size chunks and never relocates, so a Packet&
/// obtained from get() stays valid across later put()s (only its own
/// take()/release() ends it), and growth never copies the parked
/// packets or briefly doubles the footprint the way a doubling vector
/// would. It grows to the high-water mark of simultaneously parked
/// packets and is recycled thereafter (LIFO, so a put lands on the
/// cache lines the previous take just touched) — the steady-state path
/// allocates nothing.

namespace powertcp::net {

class PacketPool {
 public:
  struct Handle {
    std::uint32_t index = 0;
    std::uint32_t gen = 0;
  };

  /// Parks a copy of `pkt`; the returned handle redeems it exactly once.
  Handle put(const Packet& pkt) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = size_;
      if ((idx & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<Entry[]>(kChunkSize));
      }
      ++size_;
    }
    Entry& e = entry(idx);
    e.pkt = pkt;
    ++live_;
    return Handle{idx, e.gen};
  }

  /// The parked packet, in place. Throws on stale/foreign handles.
  Packet& get(Handle h) { return checked(h).pkt; }

  /// Redeems a handle, freeing its slot, and returns the packet. Throws
  /// on stale/foreign handles (double take, or a handle from another
  /// pool).
  Packet take(Handle h) {
    Entry& e = checked(h);
    free_entry(h.index, e);
    return e.pkt;  // the slot is not reused before this copy
  }

  /// Redeems a handle without copying the packet out (a drop).
  void release(Handle h) { free_entry(h.index, checked(h)); }

  /// Packets currently parked.
  std::size_t live() const { return live_; }
  /// High-water mark of simultaneously parked packets.
  std::size_t capacity() const { return size_; }

 private:
  static constexpr std::uint32_t kChunkShift = 5;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  struct Entry {
    Packet pkt;
    std::uint32_t gen = 1;
  };

  Entry& entry(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  Entry& checked(Handle h) {
    if (h.index >= size_ || entry(h.index).gen != h.gen) {
      throw std::logic_error("PacketPool: stale handle");
    }
    return entry(h.index);
  }
  void free_entry(std::uint32_t idx, Entry& e) {
    ++e.gen;  // invalidate the redeemed handle
    free_.push_back(idx);
    --live_;
  }

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;  ///< entries ever handed out (chunked)
  std::size_t live_ = 0;
};

}  // namespace powertcp::net
