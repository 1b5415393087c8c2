#pragma once

#include <cstdint>

#include "harness/config.hpp"
#include "sim/time.hpp"

/// \file burst.hpp
/// Host batching tunables for the scenario harness.
///
/// The optional `[burst]` section sets two *behavior-changing* knobs
/// that apply to every host of a point when set: `ack_agg_us` (receiver
/// ack aggregation window, host::Host) and `pacing_quantum` (packets
/// per pacing-timer tick, host::FlowSenderConfig). Their defaults are
/// the per-packet values, so a config without the section runs the
/// default engine unchanged. See docs/performance.md.

namespace powertcp::sim {
class ShardedSimulator;
}
namespace powertcp::net {
class Network;
}

namespace powertcp::harness {

/// Parsed `[burst]` section; defaults are the per-packet values.
struct BurstConfig {
  /// Receiver-side ack aggregation window (0 = ack every packet).
  sim::TimePs ack_agg = 0;
  /// Packets released per pacing-timer wakeup (1 = one per tick).
  std::int32_t pacing_quantum = 1;
};

/// Parses the optional `[burst]` section (absent = all defaults).
/// Throws ConfigError on out-of-range values or unknown keys, with
/// file:line context.
BurstConfig load_burst_config(const ConfigFile& file);

/// Pushes ack_agg / pacing_quantum to every host in the network (when
/// non-default). Call after the topology exists and before flows
/// start. `engine` is not consulted; the signature matches the
/// scenario code that passes each point's engine alongside its network.
void apply_burst(const BurstConfig& cfg, sim::ShardedSimulator& engine,
                 net::Network& network);

}  // namespace powertcp::harness
