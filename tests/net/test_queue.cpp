#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace powertcp::net {
namespace {

Packet pkt(FlowId flow, std::int32_t payload, std::uint8_t prio = 0,
           NodeId dst = 0) {
  Packet p;
  p.flow = flow;
  p.payload_bytes = payload;
  p.priority = prio;
  p.dst = dst;
  return p;
}

/// The disciplines queue handles; the packets park here, as they would
/// in their node's pool.
PacketPool& pool() {
  static PacketPool p;
  return p;
}

template <typename Queue>
void push(Queue& q, const Packet& p) {
  q.push(pool().put(p), p);
}

/// Flow of a popped (or peeked) packet; a popped one leaves the pool.
FlowId flow_of(std::optional<PacketPool::Handle> h) {
  return pool().take(h.value()).flow;
}
FlowId flow_of(const QueuedPacket* q) {
  return pool().get(q->handle).flow;
}

TEST(FifoQueue, PopsInArrivalOrder) {
  FifoQueue q;
  push(q, pkt(1, 100));
  push(q, pkt(2, 100));
  EXPECT_EQ(flow_of(q.pop()), 1u);
  EXPECT_EQ(flow_of(q.pop()), 2u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(FifoQueue, TracksBytesIncludingHeaders) {
  FifoQueue q;
  push(q, pkt(1, 1000));
  EXPECT_EQ(q.bytes(), 1000 + kHeaderBytes);
  push(q, pkt(2, 500));
  EXPECT_EQ(q.bytes(), 1500 + 2 * kHeaderBytes);
  q.pop();
  EXPECT_EQ(q.bytes(), 500 + kHeaderBytes);
}

TEST(FifoQueue, PeekMatchesPop) {
  FifoQueue q;
  push(q, pkt(9, 100));
  ASSERT_NE(q.peek_next(), nullptr);
  EXPECT_EQ(flow_of(q.peek_next()), 9u);
  EXPECT_EQ(flow_of(q.pop()), 9u);
  EXPECT_EQ(q.peek_next(), nullptr);
}

TEST(PriorityQueue, LowerBandWins) {
  PriorityQueue q(8);
  push(q, pkt(1, 100, 5));
  push(q, pkt(2, 100, 1));
  push(q, pkt(3, 100, 3));
  EXPECT_EQ(flow_of(q.pop()), 2u);
  EXPECT_EQ(flow_of(q.pop()), 3u);
  EXPECT_EQ(flow_of(q.pop()), 1u);
}

TEST(PriorityQueue, FifoWithinBand) {
  PriorityQueue q(8);
  push(q, pkt(1, 100, 2));
  push(q, pkt(2, 100, 2));
  EXPECT_EQ(flow_of(q.pop()), 1u);
  EXPECT_EQ(flow_of(q.pop()), 2u);
}

TEST(PriorityQueue, OutOfRangePriorityClampsToLowest) {
  PriorityQueue q(4);
  push(q, pkt(1, 100, 200));
  push(q, pkt(2, 100, 3));
  // Both land in band 3 -> FIFO.
  EXPECT_EQ(flow_of(q.pop()), 1u);
}

TEST(PriorityQueue, AggregateAccounting) {
  PriorityQueue q(8);
  push(q, pkt(1, 100, 0));
  push(q, pkt(2, 200, 7));
  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.bytes(), 300 + 2 * kHeaderBytes);
  EXPECT_EQ(q.band_bytes(7), 200 + kHeaderBytes);
  q.pop();
  EXPECT_EQ(q.packets(), 1u);
}

TEST(PriorityQueue, RejectsNonPositiveBands) {
  EXPECT_THROW(PriorityQueue(0), std::invalid_argument);
}

TEST(VoqSet, ClassifiesByDestination) {
  // Even node ids -> VOQ 0, odd -> VOQ 1.
  VoqSet v(2, [](NodeId n) { return static_cast<int>(n % 2); });
  push(v, pkt(1, 100, 0, /*dst=*/4));
  push(v, pkt(2, 100, 0, /*dst=*/5));
  EXPECT_EQ(v.voq_bytes(0), 100 + kHeaderBytes);
  EXPECT_EQ(v.voq_bytes(1), 100 + kHeaderBytes);
  EXPECT_EQ(flow_of(v.pop_from(0)), 1u);
  EXPECT_EQ(flow_of(v.pop_from(1)), 2u);
}

TEST(VoqSet, PopFromEmptyVoqIsEmpty) {
  VoqSet v(2, [](NodeId) { return 0; });
  EXPECT_FALSE(v.pop_from(1).has_value());
}

TEST(VoqSet, TotalsAcrossQueues) {
  VoqSet v(3, [](NodeId n) { return static_cast<int>(n); });
  push(v, pkt(1, 100, 0, 0));
  push(v, pkt(2, 200, 0, 2));
  EXPECT_EQ(v.total_packets(), 2u);
  EXPECT_EQ(v.total_bytes(), 300 + 2 * kHeaderBytes);
  v.pop_from(2);
  EXPECT_EQ(v.total_bytes(), 100 + kHeaderBytes);
}

TEST(VoqSet, BadClassifierIndexThrows) {
  VoqSet v(2, [](NodeId) { return 7; });
  EXPECT_THROW(push(v, pkt(1, 100)), std::out_of_range);
}

TEST(VoqSet, PeekDoesNotRemove) {
  VoqSet v(1, [](NodeId) { return 0; });
  push(v, pkt(5, 100));
  EXPECT_EQ(flow_of(v.peek(0)), 5u);
  EXPECT_EQ(v.total_packets(), 1u);
}

TEST(FifoQueue, RingWrapsAcrossManyPushPopCycles) {
  // The ring recycles its storage: oscillating around the growth
  // boundary and wrapping head/tail many times must preserve FIFO
  // order and byte accounting.
  FifoQueue q;
  FlowId next = 1;
  FlowId expect = 1;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 7; ++i) push(q, pkt(next++, 100));
    for (int i = 0; i < 5; ++i) {
      auto p = q.pop();
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(flow_of(p), expect++);
    }
  }
  EXPECT_EQ(q.packets(), 200u);
  EXPECT_EQ(q.bytes(), 200 * (100 + kHeaderBytes));
  while (auto p = q.pop()) EXPECT_EQ(flow_of(p), expect++);
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_TRUE(q.empty());
}

TEST(PriorityQueue, BandBytesCountersTrackPushAndPop) {
  PriorityQueue q(4);
  push(q, pkt(1, 100, 0));
  push(q, pkt(2, 200, 2));
  push(q, pkt(3, 300, 2));
  EXPECT_EQ(q.band_bytes(0), 100 + kHeaderBytes);
  EXPECT_EQ(q.band_bytes(1), 0);
  EXPECT_EQ(q.band_bytes(2), 500 + 2 * kHeaderBytes);
  q.pop();  // drains band 0
  EXPECT_EQ(q.band_bytes(0), 0);
  q.pop();  // first of band 2
  EXPECT_EQ(q.band_bytes(2), 300 + kHeaderBytes);
  q.pop();
  EXPECT_EQ(q.band_bytes(2), 0);
  EXPECT_EQ(q.bytes(), 0);
}

TEST(PriorityQueue, BandBytesCountsClampedPushesInLowestBand) {
  PriorityQueue q(2);
  push(q, pkt(1, 100, 7));  // clamps to band 1
  EXPECT_EQ(q.band_bytes(1), 100 + kHeaderBytes);
  EXPECT_EQ(q.band_bytes(0), 0);
}

TEST(PriorityQueue, BandBytesOutOfRangeThrows) {
  PriorityQueue q(2);
  EXPECT_THROW(q.band_bytes(2), std::out_of_range);
}

}  // namespace
}  // namespace powertcp::net
