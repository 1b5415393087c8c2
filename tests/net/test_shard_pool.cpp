/// One packet pool per engine shard: a packet is parked once, when its
/// host sends it, and the same handle crosses every switch hop until
/// the destination releases it; a finished point leaves every shard
/// pool empty; a cross-shard delivery is re-parked in the destination
/// shard's pool, the only place a packet changes pools.

#include <gtest/gtest.h>

#include <vector>

#include "cc/factory.hpp"
#include "harness/shard_setup.hpp"
#include "net/egress_port.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "sim/rng.hpp"
#include "topo/fat_tree.hpp"
#include "topo/partition.hpp"

namespace powertcp::net {
namespace {

/// Records each arriving handle and the pool it arrived in, then
/// releases the packet (keeping a copy).
class HandleSink final : public Node {
 public:
  HandleSink(sim::Simulator&, NodeId id, std::string name)
      : Node(id, std::move(name)) {}
  void receive(PacketPool::Handle h, int) override {
    handles.push_back(h);
    pools.push_back(&pool());
    live_at_arrival.push_back(pool().live());
    packets.push_back(pool().get(h));
    pool().release(h);
  }
  std::vector<PacketPool::Handle> handles;
  std::vector<const PacketPool*> pools;
  std::vector<std::size_t> live_at_arrival;
  std::vector<Packet> packets;
};

TEST(ShardPool, OneHandleFromSendingHostToDestinationHost) {
  // host -> ToR -> agg -> core -> agg -> ToR -> host, all on one shard.
  sim::Simulator simulator;
  Network network(simulator);
  auto* src = network.add_node<HandleSink>("src");
  std::vector<Switch*> path;
  for (const char* name : {"tor0", "agg0", "core", "agg1", "tor1"}) {
    path.push_back(network.add_node<Switch>(name, SwitchConfig{}));
  }
  auto* dst = network.add_node<HandleSink>("dst");
  const auto bw = sim::Bandwidth::gbps(25);
  network.connect(*src, *path.front(), bw, sim::microseconds(1));
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    network.connect(*path[i], *path[i + 1], bw, sim::microseconds(1));
  }
  network.connect(*path.back(), *dst, bw, sim::microseconds(1));
  network.compute_routes();

  PacketPool& pool = network.pool(0);
  EXPECT_EQ(&src->pool(), &pool);
  EXPECT_EQ(&dst->pool(), &pool);
  Packet p;
  p.type = PacketType::kData;
  p.flow = 1;
  p.dst = dst->id();
  p.payload_bytes = 1000;
  const PacketPool::Handle sent = pool.put(p);
  src->port(0).enqueue(sent);
  simulator.run();

  ASSERT_EQ(dst->handles.size(), 1u);
  EXPECT_EQ(dst->handles[0].index, sent.index);
  EXPECT_EQ(dst->handles[0].gen, sent.gen);
  EXPECT_EQ(dst->live_at_arrival[0], 1u);
  // Every switch egress stamped INT into the one parked packet.
  EXPECT_EQ(dst->packets[0].int_hdr.size(), 5);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.capacity(), 1u);  // never a second slot: zero hop copies
}

TEST(ShardPool, FatTreePointDrainsEveryShardPool) {
  const topo::FatTreeConfig cfg = topo::FatTreeConfig::quick();
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("sim_threads = " + std::to_string(threads));
    harness::ShardedPoint point(topo::fat_tree_shard_plan(cfg, threads),
                                sim::QueueKind::kBinaryHeap);
    ASSERT_EQ(point.network.pool_count(), threads);
    topo::FatTree fabric(point.network, cfg);
    cc::FlowParams params;
    params.host_bw = cfg.host_bw;
    params.base_rtt = fabric.max_base_rtt();
    const auto factory = cc::make_factory("powertcp");
    sim::Rng rng(11);
    const int hosts = fabric.host_count();
    for (int i = 0; i < 40; ++i) {
      const int s = static_cast<int>(rng.uniform_int(0, hosts - 1));
      int d = static_cast<int>(rng.uniform_int(0, hosts - 1));
      if (d == s) d = (d + 1) % hosts;
      fabric.host(s).start_flow(
          static_cast<FlowId>(i + 1), fabric.host_node(d),
          rng.uniform_int(1'000, 200'000), factory(params), params,
          sim::microseconds(rng.uniform_int(0, 300)));
    }
    point.engine.run_until(sim::milliseconds(40));
    std::size_t parked_at_peak = 0;
    for (int s = 0; s < point.network.pool_count(); ++s) {
      EXPECT_FALSE(point.engine.shard(s).pending()) << "shard " << s;
      EXPECT_EQ(point.network.pool(s).live(), 0u) << "shard " << s;
      parked_at_peak += point.network.pool(s).capacity();
    }
    EXPECT_GT(parked_at_peak, 0u);
  }
}

TEST(ShardPool, CrossShardDeliveryParksInTheDestinationPool) {
  sim::ShardedSimulator engine(2);
  engine.set_lookahead(sim::microseconds(1));
  Network network(engine, {0, 1});
  auto* a = network.add_node<HandleSink>("a");
  auto* b = network.add_node<HandleSink>("b");
  EXPECT_EQ(&a->pool(), &network.pool(0));
  EXPECT_EQ(&b->pool(), &network.pool(1));
  network.connect(*a, *b, sim::Bandwidth::gbps(10), sim::microseconds(1));

  Packet p;
  p.type = PacketType::kData;
  p.dst = b->id();
  p.payload_bytes = 952;
  a->port(0).enqueue(network.pool(0).put(p));
  engine.run_until(sim::microseconds(10));

  ASSERT_EQ(b->pools.size(), 1u);
  EXPECT_EQ(b->pools[0], &network.pool(1));
  EXPECT_EQ(b->live_at_arrival[0], 1u);
  EXPECT_EQ(b->packets[0].payload_bytes, 952);
  // The source shard let go of it at start_tx, into the channel.
  EXPECT_EQ(network.pool(0).live(), 0u);
  EXPECT_EQ(network.pool(1).live(), 0u);
  EXPECT_EQ(network.pool(0).capacity(), 1u);
  EXPECT_EQ(network.pool(1).capacity(), 1u);
}

TEST(ShardPool, LocalDeliveryToANodeOnAnotherPoolThrows) {
  // A node bound to the network's pool and a node outside the network
  // (its own pool), wired by hand: the handle cannot cross.
  sim::Simulator simulator;
  Network network(simulator);
  auto* a = network.add_node<HandleSink>("a");
  HandleSink outsider(simulator, 99, "outsider");
  a->attach_port(std::make_unique<BasicPort>(simulator,
                                             sim::Bandwidth::gbps(10), 0,
                                             std::make_unique<FifoQueue>()));
  a->port(0).set_peer(&outsider, 0);
  Packet p;
  p.payload_bytes = 100;
  // The delivery is scheduled when serialization starts, which an idle
  // port does inside enqueue.
  EXPECT_THROW(a->port(0).enqueue(a->pool().put(p)), std::logic_error);
  simulator.run();
  EXPECT_TRUE(outsider.handles.empty());
}

}  // namespace
}  // namespace powertcp::net
