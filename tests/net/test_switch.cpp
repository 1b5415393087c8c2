#include "net/switch_node.hpp"

#include <gtest/gtest.h>

#include <set>

#include "net/network.hpp"

namespace powertcp::net {
namespace {

/// Minimal leaf node counting arrivals.
class CounterNode final : public Node {
 public:
  CounterNode(sim::Simulator&, NodeId id, std::string name)
      : Node(id, std::move(name)) {}
  void receive(Packet pkt, int) override {
    ++count;
    last = std::move(pkt);
  }
  int count = 0;
  Packet last;
};

struct SwitchFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator};
};

TEST_F(SwitchFixture, ForwardsAlongConfiguredRoute) {
  auto* sw = network.add_node<Switch>("sw", SwitchConfig{});
  auto* a = network.add_node<CounterNode>("a");
  auto* b = network.add_node<CounterNode>("b");
  network.connect(*sw, *a, sim::Bandwidth::gbps(10), 0);
  network.connect(*sw, *b, sim::Bandwidth::gbps(10), 0);
  network.compute_routes();

  Packet p;
  p.flow = 1;
  p.dst = b->id();
  sw->receive(std::move(p), 0);
  simulator.run();
  EXPECT_EQ(a->count, 0);
  EXPECT_EQ(b->count, 1);
}

TEST_F(SwitchFixture, MissingRouteThrows) {
  auto* sw = network.add_node<Switch>("sw", SwitchConfig{});
  Packet p;
  p.dst = 99;
  EXPECT_THROW(sw->receive(std::move(p), 0), std::logic_error);
}

TEST_F(SwitchFixture, EcmpIsDeterministicPerFlow) {
  // The same flow must always take the same parallel link (no packet
  // reordering across equal-cost paths).
  auto* sw = network.add_node<Switch>("sw", SwitchConfig{});
  auto* dst = network.add_node<CounterNode>("dst");
  const auto l1 = network.connect(*sw, *dst, sim::Bandwidth::gbps(10), 0);
  const auto l2 = network.connect(*sw, *dst, sim::Bandwidth::gbps(10), 0);
  network.compute_routes();
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.flow = 12345;
    p.dst = dst->id();
    p.payload_bytes = 100;
    sw->receive(std::move(p), 0);
  }
  simulator.run();
  const auto tx1 = sw->port(l1.a_port).tx_packets();
  const auto tx2 = sw->port(l2.a_port).tx_packets();
  EXPECT_TRUE((tx1 == 10u && tx2 == 0u) || (tx1 == 0u && tx2 == 10u));
}

TEST_F(SwitchFixture, EcmpSpreadsFlowsAcrossParallelLinks) {
  // Two parallel links between the switch and the destination: many
  // flows should use both.
  auto* sw = network.add_node<Switch>("sw", SwitchConfig{});
  auto* dst = network.add_node<CounterNode>("dst");
  const auto l1 = network.connect(*sw, *dst, sim::Bandwidth::gbps(10), 0);
  const auto l2 = network.connect(*sw, *dst, sim::Bandwidth::gbps(10), 0);
  network.compute_routes();
  ASSERT_NE(sw->routes_to(dst->id()), nullptr);
  EXPECT_EQ(sw->routes_to(dst->id())->size(), 2u);

  for (FlowId f = 0; f < 64; ++f) {
    Packet p;
    p.flow = f;
    p.dst = dst->id();
    p.payload_bytes = 100;
    sw->receive(std::move(p), 0);
  }
  simulator.run();
  EXPECT_EQ(dst->count, 64);
  const auto tx1 = sw->port(l1.a_port).tx_packets();
  const auto tx2 = sw->port(l2.a_port).tx_packets();
  EXPECT_EQ(tx1 + tx2, 64u);
  EXPECT_GT(tx1, 10u);  // both links carry a healthy share
  EXPECT_GT(tx2, 10u);
}

TEST_F(SwitchFixture, SharedBufferSpansPorts) {
  SwitchConfig cfg;
  cfg.buffer_bytes = 2'096;  // fits exactly two 1048-byte frames
  auto* sw = network.add_node<Switch>("sw", cfg);
  auto* a = network.add_node<CounterNode>("a");
  network.connect(*sw, *a, sim::Bandwidth::mbps(1), 0);
  network.compute_routes();
  for (int i = 0; i < 4; ++i) {
    Packet p;
    p.flow = static_cast<FlowId>(i);
    p.dst = a->id();
    p.payload_bytes = 1000;
    sw->receive(std::move(p), 0);
  }
  EXPECT_EQ(sw->total_drops(), 2u);
}

TEST_F(SwitchFixture, PriorityBandsConfigurableViaConfig) {
  SwitchConfig cfg;
  cfg.priority_bands = 8;
  auto* sw = network.add_node<Switch>("sw", cfg);
  auto* a = network.add_node<CounterNode>("a");
  network.connect(*sw, *a, sim::Bandwidth::mbps(10), 0);
  network.compute_routes();
  // Enqueue a low-priority packet first, then a high-priority one while
  // the first is serializing; a third low-priority waits behind.
  Packet lo1;
  lo1.dst = a->id();
  lo1.priority = 7;
  lo1.payload_bytes = 1000;
  lo1.flow = 1;
  Packet lo2 = lo1;
  lo2.flow = 2;
  Packet hi = lo1;
  hi.priority = 0;
  hi.flow = 3;
  sw->receive(std::move(lo1), 0);
  sw->receive(std::move(lo2), 0);
  sw->receive(std::move(hi), 0);
  simulator.run();
  EXPECT_EQ(a->count, 3);
  // The high-priority packet overtook lo2 (lo1 was already in service).
  EXPECT_EQ(a->last.flow, 2u);
}

TEST_F(SwitchFixture, SetRoutesRejectsEmptySet) {
  auto* sw = network.add_node<Switch>("sw", SwitchConfig{});
  EXPECT_THROW(sw->set_routes(1, {}), std::invalid_argument);
}

TEST_F(SwitchFixture, SetRoutesRejectsNegativeDestination) {
  auto* sw = network.add_node<Switch>("sw", SwitchConfig{});
  EXPECT_THROW(sw->set_routes(-1, {0}), std::invalid_argument);
  EXPECT_THROW(sw->set_routes(kInvalidNode, {0}), std::invalid_argument);
}

TEST_F(SwitchFixture, RoutesToUnknownDestinationIsNull) {
  auto* sw = network.add_node<Switch>("sw", SwitchConfig{});
  sw->set_routes(5, {0, 1});
  ASSERT_NE(sw->routes_to(5), nullptr);
  EXPECT_EQ(*sw->routes_to(5), (std::vector<int>{0, 1}));
  EXPECT_EQ(sw->routes_to(3), nullptr);     // below a known id, unset
  EXPECT_EQ(sw->routes_to(6), nullptr);     // beyond every known id
  EXPECT_EQ(sw->routes_to(1000), nullptr);
  EXPECT_EQ(sw->routes_to(-1), nullptr);
}

TEST_F(SwitchFixture, EcnPerGbpsScalesThresholds) {
  SwitchConfig cfg;
  cfg.ecn.enabled = true;
  cfg.ecn.kmin_bytes = 100;  // per Gbps
  cfg.ecn.kmax_bytes = 100;
  cfg.ecn_per_gbps = true;
  auto* sw = network.add_node<Switch>("sw", cfg);
  auto* a = network.add_node<CounterNode>("a");
  network.connect(*sw, *a, sim::Bandwidth::mbps(100), 0);  // 0.1 Gbps
  network.compute_routes();
  // Threshold = 100 * 0.1 = 10 bytes. The first packet enters service
  // with no backlog; the third arrives to a 1000-byte backlog and must
  // be marked.
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.flow = static_cast<FlowId>(i);
    p.dst = a->id();
    p.payload_bytes = 1000;
    sw->receive(std::move(p), 0);
  }
  simulator.run();
  EXPECT_TRUE(a->last.ecn_marked);
}

}  // namespace
}  // namespace powertcp::net
