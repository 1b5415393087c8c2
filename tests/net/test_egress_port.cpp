#include "net/egress_port.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/node.hpp"

namespace powertcp::net {
namespace {

/// Records every packet it receives with the arrival time.
class SinkNode : public Node {
 public:
  SinkNode(sim::Simulator& simulator, NodeId id)
      : Node(id, "sink"), sim_(simulator) {}

  void receive(PacketPool::Handle h, int in_port) override {
    arrivals.push_back({sim_.now(), pool().take(h), in_port});
  }

  struct Arrival {
    sim::TimePs t;
    Packet pkt;
    int in_port;
  };
  std::vector<Arrival> arrivals;

 private:
  sim::Simulator& sim_;
};

Packet data_pkt(FlowId flow, std::int32_t payload) {
  Packet p;
  p.flow = flow;
  p.type = PacketType::kData;
  p.payload_bytes = payload;
  return p;
}

struct PortFixture : ::testing::Test {
  sim::Simulator simulator;
  SinkNode sink{simulator, 0};
  /// Standalone ports need a unique nonzero tie token, which orders
  /// their deliveries (Node::attach_port installs one for attached
  /// ports; these sit above the node-derived range).
  std::uint32_t next_tie = 1u << 31;

  std::unique_ptr<BasicPort> make_port(sim::Bandwidth bw,
                                       sim::TimePs prop) {
    auto port = std::make_unique<BasicPort>(simulator, bw, prop,
                                            std::make_unique<FifoQueue>());
    port->set_tie_token(next_tie++);
    port->set_peer(&sink, 3);
    port->use_pool(&sink.pool());  // a local delivery stays in one pool
    return port;
  }
};

TEST_F(PortFixture, DeliversAfterSerializationPlusPropagation) {
  auto port = make_port(sim::Bandwidth::gbps(25), sim::microseconds(1));
  port->enqueue(data_pkt(1, 1000));
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 1048 B at 25 Gbps = 335.36 ns; + 1 us propagation.
  EXPECT_EQ(sink.arrivals[0].t,
            sim::Bandwidth::gbps(25).tx_time(1048) + sim::microseconds(1));
  EXPECT_EQ(sink.arrivals[0].in_port, 3);
}

TEST_F(PortFixture, AttachedPortsParkPacketsInTheNodePool) {
  // Every port of a node parks in the node's one pool, from enqueue
  // until the peer redeems the handle in its receive().
  SinkNode node(simulator, 1);
  sink.bind_pool(&node.pool());
  node.attach_port(make_port(sim::Bandwidth::gbps(10), 0));
  node.attach_port(make_port(sim::Bandwidth::gbps(10), 0));
  node.port(0).enqueue(data_pkt(1, 952));
  node.port(0).enqueue(data_pkt(2, 952));
  node.port(1).enqueue(data_pkt(3, 952));
  EXPECT_EQ(node.pool().live(), 3u);
  simulator.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(node.pool().live(), 0u);
  // A port cannot move to another pool while packets are parked in it.
  auto busy = make_port(sim::Bandwidth::gbps(10), 0);
  busy->enqueue(data_pkt(4, 952));
  PacketPool other;
  EXPECT_THROW(busy->use_pool(&other), std::logic_error);
}

TEST_F(PortFixture, DropReleasesTheHandle) {
  auto port = make_port(sim::Bandwidth::mbps(1), 0);
  DtSharedBuffer buf(1'000, 10.0);
  port->set_shared_buffer(&buf);
  EXPECT_TRUE(port->enqueue(sink.pool().put(data_pkt(1, 952))));
  EXPECT_FALSE(port->enqueue(sink.pool().put(data_pkt(2, 952))));
  EXPECT_EQ(sink.pool().live(), 1u);  // the dropped packet left the pool
  simulator.run();
  EXPECT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.pool().live(), 0u);
}

TEST_F(PortFixture, BackToBackPacketsSpacedBySerialization) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->enqueue(data_pkt(1, 952));  // 1000 B wire = 800 ns at 10G
  port->enqueue(data_pkt(2, 952));
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[1].t - sink.arrivals[0].t,
            sim::Bandwidth::gbps(10).tx_time(1000));
}

TEST_F(PortFixture, IntStampedAtDequeueWithBacklogLeftBehind) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->set_int_enabled(true);
  // Packet 1 starts serializing immediately; 2 and 3 queue behind it.
  port->enqueue(data_pkt(1, 952));
  port->enqueue(data_pkt(2, 952));
  port->enqueue(data_pkt(3, 952));
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  const IntHeader& h1 = sink.arrivals[0].pkt.int_hdr;
  const IntHeader& h2 = sink.arrivals[1].pkt.int_hdr;
  const IntHeader& h3 = sink.arrivals[2].pkt.int_hdr;
  ASSERT_EQ(h1.size(), 1);
  // Packet 1 dequeued with an empty backlog (2 and 3 arrived after its
  // transmission began); packet 2 left packet 3 behind; packet 3 none.
  EXPECT_EQ(h1.hop(0).qlen_bytes, 0);
  EXPECT_EQ(h2.hop(0).qlen_bytes, 1000);
  EXPECT_EQ(h3.hop(0).qlen_bytes, 0);
  // txBytes counts bytes before each packet.
  EXPECT_EQ(h1.hop(0).tx_bytes, 0);
  EXPECT_EQ(h2.hop(0).tx_bytes, 1000);
  EXPECT_EQ(h3.hop(0).tx_bytes, 2000);
  EXPECT_EQ(h1.hop(0).bandwidth_bps, 10e9);
  // Timestamps are the dequeue instants, one serialization apart.
  EXPECT_EQ(h2.hop(0).ts - h1.hop(0).ts,
            sim::Bandwidth::gbps(10).tx_time(1000));
}

TEST_F(PortFixture, AcksAreNeverIntStamped) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->set_int_enabled(true);
  Packet ack;
  ack.type = PacketType::kAck;
  IntHopRecord echo;
  echo.qlen_bytes = 42;
  ack.int_hdr.push(echo);  // pretend echo from the data path
  port->enqueue(std::move(ack));
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // The echoed record must pass through untouched.
  ASSERT_EQ(sink.arrivals[0].pkt.int_hdr.size(), 1);
  EXPECT_EQ(sink.arrivals[0].pkt.int_hdr.hop(0).qlen_bytes, 42);
}

TEST_F(PortFixture, IntDisabledStampsNothing) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->enqueue(data_pkt(1, 1000));
  simulator.run();
  EXPECT_TRUE(sink.arrivals[0].pkt.int_hdr.empty());
}

TEST_F(PortFixture, SharedBufferDropsWhenFull) {
  auto port = make_port(sim::Bandwidth::mbps(1), 0);  // slow drain
  DtSharedBuffer buf(3'000, 10.0);
  port->set_shared_buffer(&buf);
  int admitted = 0;
  for (int i = 0; i < 5; ++i) {
    if (port->enqueue(data_pkt(static_cast<FlowId>(i), 952))) ++admitted;
  }
  EXPECT_EQ(admitted, 3);  // 3 x 1000 B fit, rest dropped
  EXPECT_EQ(port->drops(), 2u);
  simulator.run();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(buf.used_bytes(), 0);  // all released after transmission
}

TEST_F(PortFixture, SiblingAdmissionAtTheFinishPicosecondGetsTheEagerVerdict) {
  // Ports a and b share a 1,500-byte buffer; a's 1,000-byte packet is
  // charged to it until its serialization finishes at `fin`. A 1,000-B
  // enqueue on b at `fin` fits only once a's bytes are gone — which,
  // with a finish event, happens iff the finish key (fin, 0, 0, seq of
  // a's start_tx) precedes the enqueue's key. Nothing waits behind a,
  // so its finish is never queued: the buffer must settle by key.
  auto a = make_port(sim::Bandwidth::gbps(1), 0);
  auto b = make_port(sim::Bandwidth::gbps(1), 0);
  DtSharedBuffer buf(1'500, 100.0);  // huge alpha: only capacity binds
  a->set_shared_buffer(&buf);
  b->set_shared_buffer(&buf);
  const sim::TimePs fin = sim::Bandwidth::gbps(1).tx_time(1000);
  int before = -1;
  int after = -1;
  // Scheduled before a's start_tx reserves the finish key: key just
  // before it (same time and sched, smaller seq).
  simulator.schedule_at(fin, [&] { before = b->enqueue(data_pkt(2, 952)); });
  EXPECT_TRUE(a->enqueue(data_pkt(1, 952)));
  EXPECT_EQ(buf.used_bytes(), 1000);
  // Scheduled after it: key just after.
  simulator.schedule_at(fin, [&] { after = b->enqueue(data_pkt(3, 952)); });
  simulator.run_until(fin - 1);
  EXPECT_TRUE(a->busy());
  EXPECT_EQ(buf.used_bytes(), 1000);
  simulator.run();
  EXPECT_EQ(before, 0);  // a's bytes still held: 500 B free
  EXPECT_EQ(after, 1);   // released at the finish key
  EXPECT_FALSE(a->busy());
  EXPECT_EQ(buf.used_bytes(), 0);
  // Two enqueues, two deliveries: no finish event ran.
  EXPECT_EQ(simulator.events_executed(), 4u);
}

TEST_F(PortFixture, FinishEventRunsOnlyWhenAPacketWaits) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->enqueue(data_pkt(1, 952));
  simulator.run();
  EXPECT_EQ(simulator.events_executed(), 1u);  // the delivery alone
  EXPECT_FALSE(port->busy());
  // Three back to back: the first two finishes start the next packet,
  // the last one has nothing to do and is skipped.
  for (int i = 0; i < 3; ++i) port->enqueue(data_pkt(2 + i, 952));
  simulator.run();
  EXPECT_EQ(simulator.events_executed(), 1u + 3u + 2u);
  ASSERT_EQ(sink.arrivals.size(), 4u);
  EXPECT_EQ(sink.arrivals[3].t - sink.arrivals[2].t,
            sim::Bandwidth::gbps(10).tx_time(1000));
}

TEST_F(PortFixture, TransmittingWithoutATieTokenThrows) {
  auto port = std::make_unique<BasicPort>(simulator, sim::Bandwidth::gbps(10),
                                          0, std::make_unique<FifoQueue>());
  port->set_peer(&sink, 0);
  port->use_pool(&sink.pool());
  EXPECT_THROW(port->enqueue(data_pkt(1, 952)), std::logic_error);
}

TEST_F(PortFixture, EcnStepMarkingAboveThreshold) {
  auto port = make_port(sim::Bandwidth::mbps(1), 0);
  EcnConfig ecn;
  ecn.enabled = true;
  ecn.kmin_bytes = 1'500;  // step profile
  ecn.kmax_bytes = 1'500;
  port->set_ecn(ecn, 1);
  for (int i = 0; i < 5; ++i) {
    port->enqueue(data_pkt(static_cast<FlowId>(i), 952));
  }
  simulator.run();
  ASSERT_EQ(sink.arrivals.size(), 5u);
  // Packet 0 went straight into service; packets 1,2 arrived to
  // backlogs of 0 and 1000 bytes (<= 1500): unmarked.
  EXPECT_FALSE(sink.arrivals[0].pkt.ecn_marked);
  EXPECT_FALSE(sink.arrivals[1].pkt.ecn_marked);
  EXPECT_FALSE(sink.arrivals[2].pkt.ecn_marked);
  // Packets 3,4 arrived to 2000, 3000 (> 1500): marked.
  EXPECT_TRUE(sink.arrivals[3].pkt.ecn_marked);
  EXPECT_TRUE(sink.arrivals[4].pkt.ecn_marked);
}

TEST_F(PortFixture, EcnIgnoresNonCapablePackets) {
  auto port = make_port(sim::Bandwidth::mbps(1), 0);
  EcnConfig ecn;
  ecn.enabled = true;
  ecn.kmin_bytes = 0;
  ecn.kmax_bytes = 0;
  port->set_ecn(ecn, 1);
  port->enqueue(data_pkt(1, 952));  // queue 0 -> at threshold boundary
  Packet p = data_pkt(2, 952);
  p.ecn_capable = false;
  port->enqueue(std::move(p));
  simulator.run();
  EXPECT_FALSE(sink.arrivals[1].pkt.ecn_marked);
}

TEST_F(PortFixture, SojournCallbackMeasuresWaiting) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  std::vector<sim::TimePs> sojourns;
  port->set_sojourn_callback(
      [&sojourns](sim::TimePs d) { sojourns.push_back(d); });
  port->enqueue(data_pkt(1, 952));
  port->enqueue(data_pkt(2, 952));
  simulator.run();
  ASSERT_EQ(sojourns.size(), 2u);
  EXPECT_EQ(sojourns[0], 0);  // started immediately
  EXPECT_EQ(sojourns[1], sim::Bandwidth::gbps(10).tx_time(1000));
}

TEST_F(PortFixture, QueueMonitorSeesPeaks) {
  auto port = make_port(sim::Bandwidth::mbps(1), 0);
  stats::QueueSeries series;
  port->set_queue_monitor(&series);
  for (int i = 0; i < 3; ++i) {
    port->enqueue(data_pkt(static_cast<FlowId>(i), 952));
  }
  simulator.run();
  EXPECT_EQ(series.max_bytes(), 2000);  // two packets behind the in-flight one
}

TEST_F(PortFixture, TxCountersAccumulate) {
  auto port = make_port(sim::Bandwidth::gbps(10), 0);
  port->enqueue(data_pkt(1, 952));
  port->enqueue(data_pkt(2, 452));
  simulator.run();
  EXPECT_EQ(port->tx_packets(), 2u);
  EXPECT_EQ(port->tx_bytes(), 1000 + 500);
}

}  // namespace
}  // namespace powertcp::net
