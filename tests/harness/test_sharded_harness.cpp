#include <gtest/gtest.h>

#include <vector>

#include "harness/scenarios.hpp"

/// End-to-end exactness of the sharded harness: the same scenario
/// config must produce the same numbers at every `sim_threads` value.
/// A sharded point that returns at all proved itself exact: the engine
/// throws when a run ends with a boundary ambiguity. The
/// ShardedHarness.* fixtures are part of the tsan preset's test filter:
/// they drive real worker threads, the cross-shard rings, and the
/// barrier protocol under TSan on every CI run.

namespace powertcp::harness {
namespace {

DumbbellScenario quick_dumbbell() {
  DumbbellScenario cfg;
  cfg.flow_bytes = {2'000'000, 1'500'000, 1'000'000, 500'000};
  cfg.stagger = sim::microseconds(200);
  cfg.horizon = sim::milliseconds(2);
  return cfg;
}

TEST(ShardedHarness, PartitionedDumbbellMatchesSequential) {
  const SchemeRun scheme{"", "powertcp", {}};
  DumbbellScenario seq_cfg = quick_dumbbell();
  seq_cfg.sim_threads = 1;
  DumbbellScenario par_cfg = quick_dumbbell();
  par_cfg.sim_threads = 4;

  const DumbbellSeries a = run_dumbbell_scenario(seq_cfg, scheme);
  const DumbbellSeries b = run_dumbbell_scenario(par_cfg, scheme);

  EXPECT_EQ(a.bin_start, b.bin_start);
  ASSERT_EQ(a.gbps.size(), b.gbps.size());
  for (std::size_t f = 0; f < a.gbps.size(); ++f) {
    EXPECT_EQ(a.gbps[f], b.gbps[f]) << "flow " << f;
  }
}

TEST(ShardedHarness, PartitionedIncastMatchesSequential) {
  IncastScenario cfg;
  cfg.topo = topo::FatTreeConfig::quick();
  cfg.horizon = sim::milliseconds(1);
  const SchemeRun scheme{"", "powertcp", {}};

  IncastScenario par_cfg = cfg;
  par_cfg.sim_threads = 4;
  const IncastSeries a = run_incast_scenario(cfg, scheme);
  const IncastSeries b = run_incast_scenario(par_cfg, scheme);

  ASSERT_FALSE(a.gbps.empty());
  EXPECT_EQ(a.gbps, b.gbps);
  EXPECT_EQ(a.queue_kb, b.queue_kb);
}

TEST(ShardedHarness, PerTorFatTreeCutMatchesSequential) {
  // sim_threads > pods selects the per-ToR plan (aggregation/core
  // plane on shard 0, one shard per ToR): quick() has 4 pods and 8
  // ToRs, so 6 threads can only come from the per-ToR cut. The fan-in
  // keeps cross-ToR traffic flowing both ways across the uplinks.
  IncastScenario cfg;
  cfg.topo = topo::FatTreeConfig::quick();
  cfg.fan_in = 8;
  cfg.query_bytes = 800'000;
  cfg.horizon = sim::milliseconds(1);
  const SchemeRun scheme{"", "powertcp", {}};

  IncastScenario par_cfg = cfg;
  par_cfg.sim_threads = 6;
  const IncastSeries a = run_incast_scenario(cfg, scheme);
  const IncastSeries b = run_incast_scenario(par_cfg, scheme);

  ASSERT_FALSE(a.gbps.empty());
  EXPECT_EQ(a.gbps, b.gbps);
  EXPECT_EQ(a.queue_kb, b.queue_kb);
}

TEST(ShardedHarness, RdcnPacketCircuitCutMatchesSequential) {
  // The rdcn plan pins the circuit plane (ToRs + circuit switch) to
  // shard 0, the packet core to shard 1, and spreads hosts by rack;
  // 4 threads exercises all three roles at once.
  RdcnScenario cfg;
  cfg.topo.n_tors = 8;
  cfg.topo.servers_per_tor = 4;
  cfg.topo.packet_bw = sim::Bandwidth::gbps(25);
  cfg.expected_flows = 4;
  cfg.flow_bytes = 50'000'000;
  cfg.horizon = sim::milliseconds(2);
  const SchemeRun scheme{"", "powertcp", {}};

  RdcnScenario par_cfg = cfg;
  par_cfg.sim_threads = 4;
  const RdcnResult a = run_rdcn_scenario(cfg, scheme);
  const RdcnResult b = run_rdcn_scenario(par_cfg, scheme);

  ASSERT_FALSE(a.gbps.empty());
  EXPECT_EQ(a.gbps, b.gbps);
  EXPECT_EQ(a.voq_kb, b.voq_kb);
  EXPECT_EQ(a.p99_sojourn_us, b.p99_sojourn_us);
  EXPECT_EQ(a.circuit_utilization, b.circuit_utilization);
}

}  // namespace
}  // namespace powertcp::harness
