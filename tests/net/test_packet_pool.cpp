#include "net/packet_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace powertcp::net {
namespace {

Packet pkt(FlowId flow) {
  Packet p;
  p.flow = flow;
  return p;
}

TEST(PacketPool, ReferenceSurvivesLaterPuts) {
  // Chunked storage never relocates: a parked packet's address stays
  // put while the pool grows far past its first chunk.
  PacketPool pool;
  const PacketPool::Handle h = pool.put(pkt(7));
  Packet& parked = pool.get(h);
  const Packet* const before = &parked;
  std::vector<PacketPool::Handle> others;
  for (int i = 0; i < 1000; ++i) others.push_back(pool.put(pkt(100 + i)));
  EXPECT_EQ(&pool.get(h), before);
  parked.payload_bytes = 123;  // write through the old reference
  EXPECT_EQ(pool.get(h).payload_bytes, 123);
  EXPECT_EQ(parked.flow, 7u);
  EXPECT_EQ(pool.live(), 1001u);
  EXPECT_EQ(pool.capacity(), 1001u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(pool.take(others[static_cast<std::size_t>(i)]).flow,
              static_cast<FlowId>(100 + i));
  }
  EXPECT_EQ(pool.take(h).payload_bytes, 123);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, StaleHandlesAndDoubleTakeThrow) {
  PacketPool pool;
  const PacketPool::Handle h = pool.put(pkt(1));
  EXPECT_EQ(pool.take(h).flow, 1u);
  EXPECT_THROW(pool.take(h), std::logic_error);     // double take
  EXPECT_THROW(pool.get(h), std::logic_error);      // use after take
  EXPECT_THROW(pool.release(h), std::logic_error);  // drop after take
  // The slot is recycled under a new generation; the old handle stays
  // stale and cannot reach the new occupant.
  const PacketPool::Handle h2 = pool.put(pkt(2));
  EXPECT_EQ(h2.index, h.index);
  EXPECT_THROW(pool.take(h), std::logic_error);
  EXPECT_EQ(pool.get(h2).flow, 2u);
  // A handle that was never issued (foreign or out of range).
  EXPECT_THROW(pool.get(PacketPool::Handle{5, 1}), std::logic_error);
  pool.release(h2);
  EXPECT_THROW(pool.take(h2), std::logic_error);
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace powertcp::net
