#include "net/dt_buffer.hpp"

#include <gtest/gtest.h>

namespace powertcp::net {
namespace {

TEST(DtSharedBuffer, EmptyBufferAdmitsEverything) {
  DtSharedBuffer b(10'000, 1.0);
  EXPECT_TRUE(b.admits(0, 1000));
}

TEST(DtSharedBuffer, HardCapacityIsRespected) {
  DtSharedBuffer b(1'000, 100.0);  // huge alpha: only capacity binds
  b.on_enqueue(900);
  EXPECT_FALSE(b.admits(0, 200));
  EXPECT_TRUE(b.admits(0, 100));
}

TEST(DtSharedBuffer, ThresholdScalesWithFreeMemory) {
  // alpha=1: a queue may hold at most the remaining free bytes.
  DtSharedBuffer b(10'000, 1.0);
  b.on_enqueue(6'000);  // free = 4000
  EXPECT_TRUE(b.admits(3'999, 1));
  EXPECT_FALSE(b.admits(4'000, 1));
}

TEST(DtSharedBuffer, SmallAlphaStarvesLongQueues) {
  DtSharedBuffer b(10'000, 0.5);
  b.on_enqueue(2'000);  // free = 8000, threshold = 4000
  EXPECT_TRUE(b.admits(3'999, 1));
  EXPECT_FALSE(b.admits(4'001, 1));
}

TEST(DtSharedBuffer, DequeueReleasesMemory) {
  // A port files each release under its serialization's finish key;
  // the bytes leave once that key has passed.
  sim::Simulator s;
  DtSharedBuffer b(1'000, 1.0);
  const int port = b.add_port(s);
  b.on_enqueue(1'000);
  EXPECT_FALSE(b.admits(0, 1));
  b.release_at(port, s.reserve(sim::nanoseconds(10)), 500);
  s.run_until(sim::nanoseconds(9));
  EXPECT_FALSE(b.admits(0, 1));
  s.run_until(sim::nanoseconds(10));
  EXPECT_TRUE(b.admits(0, 400));
  EXPECT_EQ(b.used_bytes(), 500);
}

TEST(DtSharedBuffer, MultiQueueFairnessProperty) {
  // Classic DT steady state: with alpha=1 and N=2 persistent queues,
  // each settles at alpha/(1+alpha*N) = 1/3 of the buffer, leaving 1/3
  // free as the drop threshold.
  DtSharedBuffer b(9'000, 1.0);
  std::int64_t q1 = 0, q2 = 0;
  for (int i = 0; i < 100; ++i) {
    if (b.admits(q1, 100)) {
      b.on_enqueue(100);
      q1 += 100;
    }
    if (b.admits(q2, 100)) {
      b.on_enqueue(100);
      q2 += 100;
    }
  }
  EXPECT_LE(q1, 3'000);
  EXPECT_LE(q2, 3'000);
  EXPECT_GE(q1 + q2, 5'800);  // both queues reach the DT fixed point
}

TEST(DtSharedBuffer, AccessorsReflectConfig) {
  DtSharedBuffer b(1234, 2.5);
  EXPECT_EQ(b.total_bytes(), 1234);
  EXPECT_DOUBLE_EQ(b.alpha(), 2.5);
  EXPECT_EQ(b.used_bytes(), 0);
}

}  // namespace
}  // namespace powertcp::net
