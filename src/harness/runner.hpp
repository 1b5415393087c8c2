#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario_registry.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

/// \file runner.hpp
/// The config-file-driven experiment runner behind `powertcp_run`: a
/// RunnerConfig names one scenario kind (resolved through
/// harness::ScenarioRegistry) plus its parsed, runnable ScenarioConfig,
/// and run_config() executes it through SweepRunner into ResultTables.
/// The runner has no per-kind switch — each registry entry owns its
/// `[topology]`/`[workload]` schema and its table emission, so a new
/// paper shape is a registration, not a harness change. The figure
/// benches build the same concrete scenario types programmatically, so
/// a config file and its bench produce identical tables.
///
/// Config format (see docs/reproducing.md for the full key reference):
///
///   [experiment]
///   kind = fat_tree            # any registered scenario kind:
///                              # fat_tree | incast | rdcn | dumbbell
///                              # | homa_oc | single_flow | mixed_cc
///                              # | fluid_phase
///                              # (powertcp_run --kinds)
///   slug = fig6                # table slug prefix
///   schemes = powertcp, hpcc, homa
///   seed = 42                  # seed/percentile are part of the shared
///                              # ScenarioContext; kinds without random
///                              # workloads / percentile metrics (the
///                              # deterministic time-series shapes)
///                              # ignore them
///   sim_queue = heap           # heap | calendar (backend-identical)
///   sim_threads = 1            # event-engine shards per simulation
///                              # point (conservative-lookahead
///                              # partitioned DES; byte-identical to
///                              # sim_threads = 1 for every value)
///
///   [topology]                 # kind-specific presets + overrides
///   preset = quick             # fat-tree: quick | paper
///
///   [workload]                 # kind-specific points
///   loads = 0.2, 0.6           # fat-tree: one table per load
///
///   [cc.powertcp]              # per-scheme tunables (optional)
///   gamma = 0.9
///
///   [aqm]                      # optional; switch marking/drop policy
///   kind = red                 # red (default) | pie | pi2 | codel
///   target_us = 20             # PI/CoDel: target queue delay
///   tupdate_us = 20            # PI controllers: update period
///   interval_us = 100          # CoDel: above-target window / law base
///
///   [burst]                    # optional; host batching (burst.hpp)
///   ack_agg_us = 0             # receiver ack aggregation window
///   pacing_quantum = 1         # packets per pacing-timer tick
///
/// A `[cc.<label>]` section may carry `scheme = <registered name>` to
/// run one scheme several times under different labels/params (e.g.
/// reTCP-600us vs reTCP-1800us).

namespace powertcp::harness {

/// A loaded experiment: the kind name plus the registry-parsed
/// scenario. Benches construct the concrete scenario types below
/// directly instead of going through a config file.
struct RunnerConfig {
  std::string kind = "fat_tree";
  std::shared_ptr<const ScenarioConfig> scenario;
};

// ---- the built-in scenario kinds ----------------------------------
// One concrete ScenarioConfig per registered kind. Each carries the
// resolved schemes and slug prefix itself (copied from the
// [experiment] section at load time), so run() is self-contained.

/// kind == "fat_tree": the workhorse FCT experiment per (load, scheme).
struct FatTreeKindConfig final : ScenarioConfig {
  FatTreeExperiment fat_tree;
  std::vector<double> loads = {0.6};
  double percentile = 99.0;
  std::vector<SchemeRun> schemes;
  std::string slug_prefix = "run";
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "incast": one Fig. 4-style table per (query_kb, fan_in).
struct IncastKindConfig final : ScenarioConfig {
  IncastScenario incast;
  std::vector<double> query_kb = {0};
  std::vector<double> fan_in = {10};
  std::vector<SchemeRun> schemes;
  std::string slug_prefix = "run";
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "rdcn": a time series at packet_gbps.front() plus a p99
/// latency table across all of packet_gbps.
struct RdcnKindConfig final : ScenarioConfig {
  RdcnScenario rdcn;
  std::vector<double> packet_gbps = {25};
  std::vector<SchemeRun> schemes;
  std::string slug_prefix = "run";
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "dumbbell": Fig. 5 per-flow goodput series, one table per
/// scheme.
struct DumbbellKindConfig final : ScenarioConfig {
  DumbbellScenario dumbbell;
  std::vector<SchemeRun> schemes;
  std::string slug_prefix = "run";
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "homa_oc": Figs. 9-11 overcommitment sweep (message
/// transports only).
struct HomaOcKindConfig final : ScenarioConfig {
  HomaOcScenario homa_oc;
  std::vector<SchemeRun> schemes;
  std::string slug_prefix = "run";
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "single_flow": Fig. 2's analytic single-flow reaction
/// curves — the multiplicative decrease of the voltage- (queue
/// length), current- (RTT gradient) and power-based laws on one
/// bottleneck, from analysis::feedback_ratio. Deterministic closed
/// forms: no simulation runs, so `[experiment] schemes/seed/
/// percentile/sim_queue` and `[telemetry]` are carried by the file
/// format but ignored (the documented pattern for deterministic
/// kinds). Defaults are exactly the paper's illustrative setting
/// (25G, BDP = 22.32 pkts of 1 KB) so the printed factors
/// (3.24 / 2.12 / 9 / 1) come out exactly.
struct SingleFlowKindConfig final : ScenarioConfig {
  double bandwidth_gbps = 25.0;  ///< bottleneck b
  double bdp_packets = 22.32;    ///< b·τ in packets (fixes τ)
  double packet_kb = 1.0;        ///< packet size (Fig. 2's unit)
  double hold_queue_pkts = 25;   ///< Fig. 2a's fixed queue length
  double hold_rate_x = 1;        ///< Fig. 2b's fixed buildup rate (x bw)
  double rate_max_x = 8;         ///< Fig. 2a sweeps 0..rate_max_x step 1
  double queue_max_pkts = 60;    ///< Fig. 2b sweeps 0..queue_max_pkts
  double queue_step_pkts = 10;   ///< ... in this step
  std::string slug_prefix = "run";
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "mixed_cc": brownfield coexistence. Per-host CC mixes
/// (`cc_mix = "dctcp:0.5+powertcp:0.5"` entries over the resolved
/// scheme labels) share one dumbbell bottleneck, swept over the
/// (mix, aqm, rtt, buffer) grid down to the Tiny-Buffer regime.
/// Emits fairness / throughput-share / FCT tables, one row per cell
/// (x member for the per-member tables).
struct MixedCcKindConfig final : ScenarioConfig {
  MixedCcScenario mixed;
  std::string slug_prefix = "run";
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// kind == "fluid_phase": Fig. 3's fluid-model phase portraits — the
/// four control laws integrated from a grid of initial (window, queue)
/// states, plus the Theorem 1/2 stability summary. Deterministic
/// closed-form integration: no simulation runs, so `[experiment]
/// schemes/seed/percentile/sim_queue` and `[telemetry]` are carried by
/// the file format but ignored (the documented pattern for
/// deterministic kinds). Defaults are the paper's setting (100G,
/// 20us RTT, beta = 0.01 BDP).
struct FluidPhaseKindConfig final : ScenarioConfig {
  double bandwidth_gbps = 100.0;     ///< bottleneck b
  double base_rtt_us = 20.0;         ///< base RTT tau
  double gamma = 0.9;                ///< EWMA gain
  double update_interval_us = 20.0;  ///< per-RTT update period
  double beta_frac = 0.01;           ///< additive term as a BDP fraction
  double duration_ms = 4.0;          ///< integration horizon
  double step_us = 0.2;              ///< Euler step
  double sample_us = 2.0;            ///< trajectory sampling period
  /// Initial states in BDP units, paired index-wise (w_bdp[i], q_bdp[i]).
  std::vector<double> grid_w_bdp = {0.3, 3, 1, 4, 0.5, 6};
  std::vector<double> grid_q_bdp = {0, 0, 2, 1, 3, 4};
  std::string slug_prefix = "run";
  std::vector<ResultTable> run(const SweepRunner& runner) const override;
};

/// CLI-level overrides applied on top of the parsed file.
struct RunnerLoadOptions {
  /// `powertcp_run --telemetry`: enable the flight recorder even when
  /// the file has no `[telemetry] enabled = true` (file-set capacity/
  /// period/flow keys still apply).
  bool force_telemetry = false;
  /// `powertcp_run --sim-threads=N`: override `[experiment]
  /// sim_threads` (0 = no override). Values > 1 shard each simulation
  /// point across cores with conservative lookahead.
  int force_sim_threads = 0;
};

/// Builds a RunnerConfig from a parsed file, resolving the kind
/// through `registry`. Throws ConfigError on unknown kinds (listing
/// the registered ones), unknown sections/keys, unregistered schemes,
/// or scheme params not declared by the registry entry.
RunnerConfig load_runner_config(
    const ConfigFile& file,
    const ScenarioRegistry& registry = ScenarioRegistry::instance(),
    const RunnerLoadOptions& options = {});

/// Executes every point and returns the tables in declaration order.
/// Output is a pure function of the config: tables are identical for
/// every runner thread count.
std::vector<ResultTable> run_config(const RunnerConfig& cfg,
                                    const SweepRunner& runner);

/// The Fig. 6/7-style FCT sweep: one row per scheme at `load`, tail
/// slowdown per paper size bucket plus allP50/drops/flows/done%.
/// Exposed so bench_fig6 and the fat_tree kind build identical specs.
SweepSpec fct_sweep_spec(const FatTreeExperiment& base, double load,
                         double percentile,
                         const std::vector<SchemeRun>& schemes,
                         const std::string& slug_prefix);

/// Fig. 4-style incast table with the canonical title/slug for the
/// (query, companions) shape; shared by bench_fig4 and the incast kind.
/// With telemetry enabled, per-scheme flight tables land in
/// `flight_out` (untouched otherwise).
ResultTable incast_figure_table(const SweepRunner& runner,
                                const IncastScenario& cfg,
                                const std::vector<SchemeRun>& schemes,
                                const std::string& slug_prefix,
                                std::vector<ResultTable>* flight_out =
                                    nullptr);

/// The Fig. 6 experiment definition. The default (fast = full = false)
/// equals what configs/fig6_quick.toml loads — bench_fig6_fct and
/// `powertcp_run configs/fig6_quick.toml` therefore print identical
/// tables; a test pins the equivalence.
RunnerConfig fig6_runner_config(bool fast, bool full);

}  // namespace powertcp::harness
