#include "net/queue.hpp"

#include <stdexcept>

namespace powertcp::net {

void PacketRing::grow() {
  std::vector<QueuedPacket> bigger(buf_.empty() ? 8 : 2 * buf_.size());
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
  }
  buf_ = std::move(bigger);
  head_ = 0;
}

void FifoQueue::push(PacketPool::Handle h, const Packet& pkt) {
  ring_.push_back(QueuedPacket{h, pkt.wire_bytes()});
  bytes_ += pkt.wire_bytes();
}

std::optional<PacketPool::Handle> FifoQueue::pop() {
  if (ring_.empty()) return std::nullopt;
  const QueuedPacket q = ring_.front();
  ring_.pop_front();
  bytes_ -= q.wire_bytes;
  return q.handle;
}

PriorityQueue::PriorityQueue(int bands) {
  if (bands <= 0) throw std::invalid_argument("PriorityQueue: bands <= 0");
  bands_.resize(static_cast<std::size_t>(bands));
  band_bytes_.assign(static_cast<std::size_t>(bands), 0);
}

void PriorityQueue::push(PacketPool::Handle h, const Packet& pkt) {
  const auto band =
      static_cast<std::size_t>(pkt.priority) < bands_.size()
          ? static_cast<std::size_t>(pkt.priority)
          : bands_.size() - 1;
  bytes_ += pkt.wire_bytes();
  band_bytes_[band] += pkt.wire_bytes();
  ++packets_;
  bands_[band].push_back(QueuedPacket{h, pkt.wire_bytes()});
}

std::optional<PacketPool::Handle> PriorityQueue::pop() {
  for (std::size_t b = 0; b < bands_.size(); ++b) {
    PacketRing& band = bands_[b];
    if (!band.empty()) {
      const QueuedPacket q = band.front();
      band.pop_front();
      bytes_ -= q.wire_bytes;
      band_bytes_[b] -= q.wire_bytes;
      --packets_;
      return q.handle;
    }
  }
  return std::nullopt;
}

const QueuedPacket* PriorityQueue::peek_next() const {
  for (const PacketRing& band : bands_) {
    if (!band.empty()) return &band.front();
  }
  return nullptr;
}

VoqSet::VoqSet(int n_queues, std::function<int(NodeId)> classify)
    : classify_(std::move(classify)) {
  if (n_queues <= 0) throw std::invalid_argument("VoqSet: n_queues <= 0");
  queues_.resize(static_cast<std::size_t>(n_queues));
  voq_bytes_.assign(static_cast<std::size_t>(n_queues), 0);
}

void VoqSet::push(PacketPool::Handle h, const Packet& pkt) {
  const int voq = classify_(pkt.dst);
  if (voq < 0 || voq >= size()) {
    throw std::out_of_range("VoqSet::push: classify returned bad index");
  }
  voq_bytes_[static_cast<std::size_t>(voq)] += pkt.wire_bytes();
  total_bytes_ += pkt.wire_bytes();
  ++total_packets_;
  queues_[static_cast<std::size_t>(voq)].push_back(
      QueuedPacket{h, pkt.wire_bytes()});
}

std::optional<PacketPool::Handle> VoqSet::pop_from(int voq) {
  PacketRing& q = queues_.at(static_cast<std::size_t>(voq));
  if (q.empty()) return std::nullopt;
  const QueuedPacket front = q.front();
  q.pop_front();
  voq_bytes_[static_cast<std::size_t>(voq)] -= front.wire_bytes;
  total_bytes_ -= front.wire_bytes;
  --total_packets_;
  return front.handle;
}

const QueuedPacket* VoqSet::peek(int voq) const {
  const PacketRing& q = queues_.at(static_cast<std::size_t>(voq));
  return q.empty() ? nullptr : &q.front();
}

}  // namespace powertcp::net
