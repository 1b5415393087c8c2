#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"

/// \file queue.hpp
/// Egress queueing disciplines: FIFO, strict priority (HOMA), and
/// per-destination virtual output queues (reconfigurable DCN ToRs).
/// They queue handles to packets parked in the owning node's
/// PacketPool, never the 360-byte packets themselves.

namespace powertcp::net {

/// A packet as the disciplines hold it: the handle of its slot in the
/// node's PacketPool (the packet itself stays parked there) plus the
/// wire size the byte counters need.
struct QueuedPacket {
  PacketPool::Handle handle;
  std::int64_t wire_bytes = 0;
};

/// FIFO of QueuedPackets over a power-of-two ring that doubles when
/// full. It grows to the backlog high-water mark once and then
/// recycles, keeping the per-packet path allocation-free.
class PacketRing {
 public:
  void push_back(const QueuedPacket& q) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = q;
    ++count_;
  }
  /// Precondition: not empty.
  const QueuedPacket& front() const { return buf_[head_]; }
  /// Precondition: not empty.
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  void grow();

  std::vector<QueuedPacket> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Interface for an egress buffer of parked packets. `push` receives the
/// packet's pool handle and reads whatever it classifies by (wire size,
/// priority band, destination) from the parked packet; `pop` surrenders
/// the selected handle; `peek_next` must agree with the entry `pop`
/// would return.
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  virtual void push(PacketPool::Handle h, const Packet& pkt) = 0;
  virtual std::optional<PacketPool::Handle> pop() = 0;
  virtual const QueuedPacket* peek_next() const = 0;
  virtual std::int64_t bytes() const = 0;
  virtual std::size_t packets() const = 0;
  bool empty() const { return packets() == 0; }

  /// True iff selection order is insensitive to packets arriving between
  /// pops: popping k packets back-to-back yields the same k packets, in
  /// the same order, as popping them interleaved with arbitrary pushes.
  /// A port may then pre-select a whole transmission train (burst drain)
  /// without changing which packets go on the wire. Priority disciplines
  /// must return false — a high-band arrival mid-train would preempt.
  virtual bool strict_fifo() const { return false; }
};

/// Plain FIFO.
class FifoQueue final : public QueueDiscipline {
 public:
  void push(PacketPool::Handle h, const Packet& pkt) override;
  std::optional<PacketPool::Handle> pop() override;
  const QueuedPacket* peek_next() const override {
    return ring_.empty() ? nullptr : &ring_.front();
  }
  std::int64_t bytes() const override { return bytes_; }
  std::size_t packets() const override { return ring_.size(); }
  bool strict_fifo() const override { return true; }

 private:
  PacketRing ring_;
  std::int64_t bytes_ = 0;
};

/// Strict-priority bands (0 = highest). HOMA maps unscheduled/scheduled
/// traffic onto these; acks and grants ride band 0.
class PriorityQueue final : public QueueDiscipline {
 public:
  explicit PriorityQueue(int bands = 8);

  void push(PacketPool::Handle h, const Packet& pkt) override;
  std::optional<PacketPool::Handle> pop() override;
  const QueuedPacket* peek_next() const override;
  std::int64_t bytes() const override { return bytes_; }
  std::size_t packets() const override { return packets_; }

  /// Backlog of one band, maintained as a counter (O(1); this used to
  /// scan the band's packets on every call).
  std::int64_t band_bytes(int band) const {
    return band_bytes_.at(static_cast<std::size_t>(band));
  }

 private:
  std::vector<PacketRing> bands_;
  std::vector<std::int64_t> band_bytes_;
  std::int64_t bytes_ = 0;
  std::size_t packets_ = 0;
};

/// Per-destination-ToR virtual output queues shared between the circuit
/// port and the packet-network uplink of an RDCN ToR. Both ports pull
/// from this set — which is why they share their node's PacketPool —
/// and the selector policy lives in the ports.
class VoqSet {
 public:
  /// `classify` maps a packet's destination node to a VOQ index
  /// (destination ToR).
  VoqSet(int n_queues, std::function<int(NodeId)> classify);

  void push(PacketPool::Handle h, const Packet& pkt);
  std::optional<PacketPool::Handle> pop_from(int voq);
  const QueuedPacket* peek(int voq) const;

  std::int64_t voq_bytes(int voq) const { return voq_bytes_[static_cast<size_t>(voq)]; }
  std::int64_t total_bytes() const { return total_bytes_; }
  std::size_t total_packets() const { return total_packets_; }
  int size() const { return static_cast<int>(queues_.size()); }
  int classify(NodeId dst) const { return classify_(dst); }

 private:
  std::vector<PacketRing> queues_;
  std::vector<std::int64_t> voq_bytes_;
  std::int64_t total_bytes_ = 0;
  std::size_t total_packets_ = 0;
  std::function<int(NodeId)> classify_;
};

}  // namespace powertcp::net
