#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/shard_setup.hpp"
#include "stats/fct_recorder.hpp"
#include "topo/dumbbell.hpp"
#include "topo/fat_tree.hpp"
#include "workload/traffic_gen.hpp"

/// \file composed.hpp
/// The benchmark's traced simulation points. Each class rebuilds one
/// harness point (harness/experiment.cpp's fat-tree point, or one
/// mixed_cc cell from harness/scenarios.cpp) from the layers' public
/// APIs, in the same call order, and times every call into a layer from
/// the outside: topology construction, flow-plan generation, flow
/// start, the event loop, a timing decorator around each flow's
/// cc::CcAlgorithm, and the stats::FctRecorder sinks. Nothing under
/// src/ is edited; a composed point must reproduce its harness point's
/// flow counts and FCT records exactly, which the driver checks.

namespace perfbench {

/// Work counts and host seconds for one or more composed points.
/// Counts are deterministic for a config; seconds are host time.
struct LayerStats {
  std::uint64_t sim_events = 0;
  std::uint64_t net_tx_packets = 0;       ///< Σ per-port tx_packets
  std::uint64_t net_host_tx_packets = 0;  ///< host NIC share of the above
  std::uint64_t net_drops = 0;            ///< Σ per-port drops
  std::uint64_t net_ecn_marks = 0;        ///< Σ per-port CE marks
  std::uint64_t cc_on_ack_calls = 0;
  std::uint64_t cc_on_timeout_calls = 0;
  std::uint64_t workload_flows = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t stats_record_calls = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t shard_ambiguities = 0;
  double topo_build_s = 0;
  double workload_plan_s = 0;
  double host_start_s = 0;
  double sim_run_s = 0;  ///< wall time inside run_until
  double sim_run_cpu_s = 0;  ///< process CPU time inside run_until
  double cc_on_ack_s = 0;    ///< summed over shard threads
  double stats_record_s = 0;
  double stats_summary_s = 0;

  void add(const LayerStats& o);
  /// Host seconds this point spent before its event loop.
  double setup_s() const {
    return topo_build_s + workload_plan_s + host_start_s;
  }
};

/// Per-shard tallies written by the timing decorators and completion
/// sinks; each is touched only by its own shard's thread.
struct ShardTally {
  std::uint64_t acks = 0;
  std::uint64_t timeouts = 0;
  std::int64_t ack_ns = 0;
  std::uint64_t records = 0;
  std::int64_t record_ns = 0;
};

/// One fat-tree websearch point (single scheme, no incast, no
/// telemetry): the composition of run_fat_tree_experiment. The
/// constructor performs the set-up (topology, plan, flow start); run()
/// drives the event loop and collects results. Not copyable or
/// movable: scheduled callbacks hold `this`.
class ComposedFatTree {
 public:
  ComposedFatTree(const powertcp::harness::FatTreeExperiment& cfg,
                  int threads, bool traced);
  ComposedFatTree(const ComposedFatTree&) = delete;
  ComposedFatTree& operator=(const ComposedFatTree&) = delete;
  ~ComposedFatTree();

  /// Runs to the harness horizon. The result carries the same fields
  /// the harness fills (fct, uplink samples, flow counts, drops, tau);
  /// `row` is spec.metrics applied to it (timed as stats.summary_s).
  struct Outcome {
    powertcp::harness::ExperimentResult result;
    std::vector<powertcp::harness::Cell> row;
  };
  Outcome run(const powertcp::harness::SweepSpec& spec);

  const LayerStats& layers() const { return layers_; }

 private:
  struct Sink {
    powertcp::stats::FctRecorder fct;
    std::uint64_t completed = 0;
  };
  struct RankedPort {
    int rank;
    powertcp::net::EgressPort* port;
  };
  struct UplinkSample {
    std::int64_t tick;
    int rank;
    double value;
  };
  struct Sampler {
    std::function<void()> fn;
    std::int64_t tick = 0;
    std::vector<UplinkSample> out;
  };

  powertcp::harness::FatTreeExperiment cfg_;
  bool traced_;
  std::unique_ptr<powertcp::harness::ShardedPoint> point_;
  std::unique_ptr<powertcp::topo::FatTree> fabric_;
  powertcp::sim::TimePs tau_ = 0;
  powertcp::sim::Bandwidth host_bw_;
  std::vector<powertcp::workload::FlowArrival> plan_;
  std::vector<Sink> sinks_;
  std::vector<ShardTally> tallies_;
  std::vector<std::vector<RankedPort>> shard_uplinks_;
  std::vector<std::unique_ptr<Sampler>> samplers_;
  LayerStats layers_;
};

/// One mixed_cc cell (mix × aqm × rtt × buffer) on the coexistence
/// dumbbell: the composition of run_mixed_cc_cell.
class ComposedDumbbell {
 public:
  ComposedDumbbell(const powertcp::harness::MixedCcScenario& cfg,
                   const powertcp::harness::MixedCcMix& mix,
                   const std::string& aqm_kind, double rtt_us,
                   std::int64_t buffer_bytes, int threads, bool traced);
  ComposedDumbbell(const ComposedDumbbell&) = delete;
  ComposedDumbbell& operator=(const ComposedDumbbell&) = delete;
  ~ComposedDumbbell();

  /// Runs to the horizon and summarizes the cell exactly as the
  /// harness does (timed as stats.summary_s). Completions also land in
  /// per-shard stats::FctRecorder sinks, so the recorder layer is
  /// timed on this workload too.
  powertcp::harness::MixedCcCellResult run();

  const LayerStats& layers() const { return layers_; }

 private:
  const powertcp::harness::MixedCcScenario& cfg_;
  const powertcp::harness::MixedCcMix& mix_;
  bool traced_;
  powertcp::topo::DumbbellConfig topo_cfg_;
  std::unique_ptr<powertcp::harness::ShardedPoint> point_;
  std::unique_ptr<powertcp::topo::Dumbbell> topo_;
  powertcp::cc::FlowParams params_;
  std::vector<int> assign_;
  std::vector<std::int64_t> bytes_;
  std::vector<powertcp::sim::TimePs> finish_;
  std::vector<char> done_;
  std::vector<powertcp::stats::FctRecorder> sinks_;
  std::vector<ShardTally> tallies_;
  LayerStats layers_;
};

/// Seconds on the process CPU clock (all threads).
double process_cpu_s();

}  // namespace perfbench
