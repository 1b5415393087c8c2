#pragma once

#include <algorithm>
#include <utility>

#include "net/network.hpp"
#include "sim/shard.hpp"
#include "topo/partition.hpp"

/// \file shard_setup.hpp
/// Glue between the scenario harness and the parallel engine: every
/// simulation-backed scenario kind builds one ShardedPoint from its
/// topology's shard plan and its `sim_threads` knob, then constructs
/// the topology against `point.network` exactly as before. With one
/// shard (sim_threads = 1, or a plan fallback) the point IS the
/// sequential engine, driven verbatim; with more, the engine's
/// run_until throws unless it can prove the run identical to it.

namespace powertcp::harness {

/// One partitioned simulation point: plan -> engine -> network, tied
/// together in member-initialization order.
struct ShardedPoint {
  topo::ShardPlan plan;
  sim::ShardedSimulator engine;
  net::Network network;

  ShardedPoint(topo::ShardPlan p, sim::QueueKind queue)
      : plan(std::move(p)),
        engine(plan.shards, queue),
        network(prepared_engine(), plan.node_shard) {}

  /// Shard 0's event queue — the "main" simulator every monitor and
  /// telemetry tap lives on.
  sim::Simulator& sim() { return engine.shard(0); }

 private:
  sim::ShardedSimulator& prepared_engine() {
    engine.set_lookahead(plan.lookahead);
    return engine;
  }
};

/// The thread count a scenario actually runs with: at least 1, and
/// forced to 1 when the flight recorder is on (its probes read nodes
/// across the cut from one shard's thread).
inline int effective_sim_threads(int requested, bool telemetry_enabled) {
  return telemetry_enabled ? 1 : std::max(1, requested);
}

}  // namespace powertcp::harness
