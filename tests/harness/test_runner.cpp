/// Config-driven runner coverage: the fig6 config == bench_fig6_fct
/// equivalence, fig2's paper numbers, end-to-end thread-count
/// byte-identity for every scenario kind, the reTCP/HOMA topology
/// wiring through run_config, and the loader's rejection paths.

#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "harness/config.hpp"

#ifndef POWERTCP_SOURCE_DIR
#define POWERTCP_SOURCE_DIR "."
#endif

namespace powertcp::harness {
namespace {

std::string render_all(const std::vector<ResultTable>& tables) {
  std::string out;
  for (const auto& t : tables) {
    out += t.render_text();
    t.append_csv(out);
    t.append_json(out, 0);
    out += '\n';
  }
  return out;
}

template <typename Kind>
const Kind& as_kind(const RunnerConfig& cfg) {
  const auto* kind = dynamic_cast<const Kind*>(cfg.scenario.get());
  if (kind == nullptr) {
    throw std::logic_error("RunnerConfig holds an unexpected scenario type");
  }
  return *kind;
}

void expect_same_schemes(const std::vector<SchemeRun>& a,
                         const std::vector<SchemeRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].display(), b[i].display());
    EXPECT_EQ(a[i].scheme, b[i].scheme);
    EXPECT_EQ(a[i].params, b[i].params);
  }
}

void expect_same_fat_tree_config(const RunnerConfig& ca,
                                 const RunnerConfig& cb) {
  EXPECT_EQ(ca.kind, cb.kind);
  const FatTreeKindConfig& a = as_kind<FatTreeKindConfig>(ca);
  const FatTreeKindConfig& b = as_kind<FatTreeKindConfig>(cb);
  EXPECT_EQ(a.slug_prefix, b.slug_prefix);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_DOUBLE_EQ(a.percentile, b.percentile);
  expect_same_schemes(a.schemes, b.schemes);
  EXPECT_EQ(a.fat_tree.duration, b.fat_tree.duration);
  EXPECT_EQ(a.fat_tree.seed, b.fat_tree.seed);
  EXPECT_DOUBLE_EQ(a.fat_tree.size_scale, b.fat_tree.size_scale);
  EXPECT_EQ(a.fat_tree.expected_flows, b.fat_tree.expected_flows);
  EXPECT_EQ(a.fat_tree.topo.pods, b.fat_tree.topo.pods);
  EXPECT_EQ(a.fat_tree.topo.servers_per_tor, b.fat_tree.topo.servers_per_tor);
  EXPECT_DOUBLE_EQ(a.fat_tree.topo.host_bw.bps(),
                   b.fat_tree.topo.host_bw.bps());
  EXPECT_DOUBLE_EQ(a.fat_tree.topo.fabric_bw.bps(),
                   b.fat_tree.topo.fabric_bw.bps());
}

RunnerConfig load_shipped_config(const std::string& name) {
  return load_runner_config(ConfigFile::parse_file(
      std::string(POWERTCP_SOURCE_DIR) + "/configs/" + name));
}

/// The golden-file link between the unified CLI and the figure bench:
/// parsing configs/fig6_quick.toml must yield the very RunnerConfig
/// bench_fig6_fct executes, so `powertcp_run configs/fig6_quick.toml`
/// and `./build/bench_fig6_fct` print identical tables.
TEST(RunnerGolden, Fig6ConfigMatchesBench) {
  const RunnerConfig from_config = load_shipped_config("fig6_quick.toml");
  const RunnerConfig from_bench = fig6_runner_config(false, false);
  expect_same_fat_tree_config(from_config, from_bench);

  // And the spec both expand to is structurally the one bench_fig6
  // has always run: same slugs, titles, columns, and point configs.
  const FatTreeKindConfig& fa = as_kind<FatTreeKindConfig>(from_config);
  const FatTreeKindConfig& fb = as_kind<FatTreeKindConfig>(from_bench);
  for (const double load : fb.loads) {
    const SweepSpec a = fct_sweep_spec(fa.fat_tree, load, fa.percentile,
                                       fa.schemes, fa.slug_prefix);
    const SweepSpec b = fct_sweep_spec(fb.fat_tree, load, fb.percentile,
                                       fb.schemes, fb.slug_prefix);
    EXPECT_EQ(a.title, b.title);
    EXPECT_EQ(a.slug, b.slug);
    EXPECT_EQ(a.value_columns, b.value_columns);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      EXPECT_EQ(a.points[i].cfg.cc, b.points[i].cfg.cc);
      EXPECT_EQ(a.points[i].cfg.cc_params, b.points[i].cfg.cc_params);
      EXPECT_DOUBLE_EQ(a.points[i].cfg.uplink_load,
                       b.points[i].cfg.uplink_load);
    }
  }
}

/// configs/fig2_reaction.toml renders the paper's Fig. 2 panels and
/// its printed disambiguation numbers (the config's golden pins every
/// other byte).
TEST(RunnerGolden, Fig2ConfigReproducesThePaperNumbers) {
  const RunnerConfig cfg = load_shipped_config("fig2_reaction.toml");
  EXPECT_EQ(cfg.kind, "single_flow");
  const auto tables = run_config(cfg, SweepRunner(1));

  // The three panels, by slug...
  ASSERT_EQ(tables.size(), 3u);
  EXPECT_EQ(tables[0].slug, "fig2_vs_rate");
  EXPECT_EQ(tables[1].slug, "fig2_vs_queue");
  EXPECT_EQ(tables[2].slug, "fig2_three_cases");
  // ...and Fig. 2c's paper numbers: voltage 3.24/2.12/2.12 cannot
  // separate case-2 vs case-3, current 9/1/9 cannot separate case-1
  // vs case-3, power (29.16/2.12/19.08) separates all three.
  const ResultTable& c = tables[2];
  ASSERT_EQ(c.rows.size(), 3u);
  const char* expected[3][3] = {{"3.24", "9.00", "29.16"},
                                {"2.12", "1.00", "2.12"},
                                {"2.12", "9.00", "19.08"}};
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(c.rows[i].values.size(), 3u);
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(c.rows[i].values[v].render(), expected[i][v])
          << "case " << i + 1 << " column " << c.value_columns[v];
    }
  }
}

TEST(RunnerGolden, ShippedConfigsAllLoad) {
  const std::string dir = std::string(POWERTCP_SOURCE_DIR) + "/configs";
  int loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".toml") continue;
    const std::string name = entry.path().filename().string();
    EXPECT_NO_THROW(load_shipped_config(name)) << name;
    ++loaded;
  }
  EXPECT_GT(loaded, 0);
}

RunnerConfig mini_fat_tree_config() {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = fat_tree
slug = mini
schemes = powertcp, dctcp
seed = 7

[workload]
loads = 0.3
duration_ms = 2
size_scale = 0.05

[cc.powertcp]
gamma = 0.85
)",
                                      "mini.toml");
  return load_runner_config(file);
}

TEST(Runner, FatTreeConfigIsByteIdenticalAcrossThreadCounts) {
  const RunnerConfig cfg = mini_fat_tree_config();
  const auto t1 = render_all(run_config(cfg, SweepRunner(1)));
  const auto t3 = render_all(run_config(cfg, SweepRunner(3)));
  EXPECT_EQ(t1, t3);
  EXPECT_NE(t1.find("mini_load30"), std::string::npos);
  EXPECT_NE(t1.find("powertcp"), std::string::npos);
}

TEST(Runner, CalendarQueueProducesByteIdenticalTables) {
  // The event-queue backend is a pure data-structure swap: the whole
  // fat-tree experiment must render identical tables on the calendar
  // queue and the default binary heap.
  const RunnerConfig heap_cfg = mini_fat_tree_config();
  RunnerConfig cal_cfg = mini_fat_tree_config();
  auto cal =
      std::make_shared<FatTreeKindConfig>(as_kind<FatTreeKindConfig>(cal_cfg));
  cal->fat_tree.sim_queue = sim::QueueKind::kCalendar;
  cal_cfg.scenario = std::move(cal);
  const SweepRunner runner(1);
  EXPECT_EQ(render_all(run_config(heap_cfg, runner)),
            render_all(run_config(cal_cfg, runner)));
}

TEST(Runner, SimQueueKeyParsesAndRejectsUnknownBackends) {
  const auto config_with = [](const std::string& queue_line) {
    return "[experiment]\nkind = fat_tree\nschemes = powertcp\n" +
           queue_line + "[workload]\nloads = 0.3\n";
  };
  const auto cal = load_runner_config(
      ConfigFile::parse(config_with("sim_queue = calendar\n"), "q.toml"));
  EXPECT_EQ(as_kind<FatTreeKindConfig>(cal).fat_tree.sim_queue,
            sim::QueueKind::kCalendar);
  const auto heap =
      load_runner_config(ConfigFile::parse(config_with(""), "q.toml"));
  EXPECT_EQ(as_kind<FatTreeKindConfig>(heap).fat_tree.sim_queue,
            sim::QueueKind::kBinaryHeap);
  EXPECT_THROW(load_runner_config(ConfigFile::parse(
                   config_with("sim_queue = wheel\n"), "q.toml")),
               ConfigError);
}

TEST(Runner, FatTreeConfigEqualsDirectlyBuiltSpec) {
  const RunnerConfig cfg = mini_fat_tree_config();
  const FatTreeKindConfig& ft = as_kind<FatTreeKindConfig>(cfg);
  const SweepRunner runner(1);
  const auto via_config = run_config(cfg, runner);
  ASSERT_EQ(via_config.size(), 1u);
  const ResultTable direct = runner.run(fct_sweep_spec(
      ft.fat_tree, ft.loads[0], ft.percentile, ft.schemes, ft.slug_prefix));
  EXPECT_EQ(via_config[0].render_text(), direct.render_text());
}

TEST(Runner, RdcnConfigWiresReTcpToTheCircuitSchedule) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = rdcn
slug = minirdcn
schemes = retcp, powertcp

[topology]
preset = small
n_tors = 4
servers_per_tor = 2

[workload]
packet_gbps = 25
flow_mb = 40
horizon_ms = 1
bin_us = 50

[cc.retcp]
prebuffering_us = 300
)",
                                      "minirdcn.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const auto t1 = render_all(run_config(cfg, SweepRunner(1)));
  const auto t2 = render_all(run_config(cfg, SweepRunner(4)));
  EXPECT_EQ(t1, t2);  // thread-count independence
  // reTCP ran (no CircuitSchedule throw) and moved bytes: its goodput
  // column holds at least one positive bin.
  EXPECT_NE(t1.find("retcp gbps"), std::string::npos);
  EXPECT_NE(t1.find("minirdcn_timeseries"), std::string::npos);
  EXPECT_NE(t1.find("minirdcn_p99"), std::string::npos);
}

TEST(Runner, IncastConfigRunsMessageTransportViaRegistry) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = incast
slug = miniincast
schemes = powertcp, homa

[workload]
query_kb = 0
horizon_ms = 1
bin_us = 100

[cc.homa]
overcommit = 2
)",
                                      "miniincast.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const auto t1 = render_all(run_config(cfg, SweepRunner(1)));
  const auto t2 = render_all(run_config(cfg, SweepRunner(2)));
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1.find("homa gbps"), std::string::npos);
  EXPECT_NE(t1.find("miniincast_10to1"), std::string::npos);
}

TEST(Runner, DumbbellTimeSeriesIsByteIdenticalAcrossThreadCounts) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = dumbbell
slug = minifair
schemes = powertcp, timely, homa

[workload]
flow_mb = 3, 1.5
stagger_us = 200
horizon_ms = 2
bin_us = 100
row_every = 2
)",
                                      "minifair.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const auto t1 = render_all(run_config(cfg, SweepRunner(1)));
  const auto t3 = render_all(run_config(cfg, SweepRunner(3)));
  EXPECT_EQ(t1, t3);
  // One table per scheme with per-flow columns; homa ran through the
  // registry's message-transport path on the same dumbbell.
  EXPECT_NE(t1.find("minifair_powertcp"), std::string::npos);
  EXPECT_NE(t1.find("minifair_timely"), std::string::npos);
  EXPECT_NE(t1.find("minifair_homa"), std::string::npos);
  EXPECT_NE(t1.find("f2"), std::string::npos);
}

TEST(Runner, DumbbellRowsSpanTheLongestFlow) {
  // Flow order is config-controlled: with ascending sizes flow 1
  // finishes first, and the table must keep rows until the last flow
  // drains rather than stopping at flow 1's final bin.
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = dumbbell
schemes = powertcp

[workload]
flow_mb = 0.2, 2
stagger_us = 0
horizon_ms = 3
bin_us = 100
row_every = 1
)",
                                      "asc.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const auto tables = run_config(cfg, SweepRunner(1));
  ASSERT_EQ(tables.size(), 1u);
  const auto& rows = tables[0].rows;
  ASSERT_FALSE(rows.empty());
  // The final row lands in flow 2's last active bin: goodput in f2,
  // nothing left of flow 1.
  EXPECT_GT(rows.back().values.at(1).number(), 0.0);
  EXPECT_EQ(rows.back().values.at(0).number(), 0.0);
}

TEST(Runner, SingleRackFabricsRejectFanInsInsteadOfCrashing) {
  // A one-rack fat-tree leaves no host outside the receiver's rack to
  // answer a burst: the modulo that picks responders would divide by
  // zero (SIGFPE). Both fan-in scenarios must throw instead.
  const auto load = [](const std::string& text) {
    return load_runner_config(ConfigFile::parse(text, "tiny.toml"));
  };
  const std::string tiny_topo =
      "[topology]\npods = 1\ntors_per_pod = 1\naggs_per_pod = 1\n"
      "cores = 1\nservers_per_tor = 2\n";
  const auto incast = load(
      "[experiment]\nkind = incast\nschemes = powertcp\n" + tiny_topo +
      "[workload]\nquery_kb = 100\nfan_in = 4\nhorizon_ms = 1\n");
  EXPECT_THROW(run_config(incast, SweepRunner(1)), std::invalid_argument);
  const auto oc = load(
      "[experiment]\nkind = homa_oc\nschemes = homa\n" + tiny_topo +
      "[workload]\novercommit = 1\nfan_in = 2\n"
      "fairness_horizon_ms = 1\nincast_horizon_ms = 1\n");
  EXPECT_THROW(run_config(oc, SweepRunner(1)), std::invalid_argument);
}

TEST(Runner, HomaOcKindRejectsSenderCcSchemes) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = homa_oc
schemes = powertcp

[workload]
overcommit = 1
fan_in = 2
)",
                                      "ocbad.toml");
  // The registry check fires inside run_config -> homa_oc_tables: the
  // overcommitment sweep drives message transports only.
  const RunnerConfig cfg = load_runner_config(file);
  EXPECT_THROW(run_config(cfg, SweepRunner(1)), std::invalid_argument);
}

TEST(Runner, LoaderRejectsUnknownSchemesKeysAndSections) {
  const auto load = [](const std::string& text) {
    return load_runner_config(ConfigFile::parse(text, "bad.toml"));
  };
  // Unknown scheme name.
  EXPECT_THROW(load("[experiment]\nschemes = warp-speed\n"), ConfigError);
  // Param not declared by the scheme.
  EXPECT_THROW(load("[experiment]\nschemes = powertcp\n"
                    "[cc.powertcp]\nwarp = 9\n"),
               ConfigError);
  // Unknown workload key.
  EXPECT_THROW(load("[experiment]\nschemes = powertcp\n"
                    "[workload]\nlods = 0.2\n"),
               ConfigError);
  // Unknown workload key for the new kinds, too.
  EXPECT_THROW(load("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                    "[workload]\nflw_mb = 2\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\novercommitt = 2\n"),
               ConfigError);
  // Unused section (typo'd scheme section).
  EXPECT_THROW(load("[experiment]\nschemes = powertcp\n"
                    "[cc.powertpc]\ngamma = 0.9\n"),
               ConfigError);
  // Bad kind, missing experiment, empty schemes.
  EXPECT_THROW(load("[experiment]\nkind = ring\nschemes = powertcp\n"),
               ConfigError);
  EXPECT_THROW(load("[workload]\nloads = 0.2\n"), ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = fat_tree\n"), ConfigError);
  // Bad values for the new kinds' validated keys.
  EXPECT_THROW(load("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                    "[workload]\nrow_every = 0\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                    "[workload]\nflow_mb = 0\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\novercommit = 0\n"),
               ConfigError);
  // Integer point lists must be integers: silently truncating 2.5 to
  // level 2 would run points the config does not state.
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\novercommit = 2.5\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\nfan_in = 10.7\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = incast\nschemes = powertcp\n"
                    "[workload]\nfan_in = 2.7\n"),
               ConfigError);
  // Out-of-int-range values must be a ConfigError, not an undefined
  // double->int cast.
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\novercommit = 3000000000\n"),
               ConfigError);
  // Likewise for byte-size keys: NaN slips past a <= 0 check and a
  // huge value is an undefined int64 cast; both must throw.
  EXPECT_THROW(load("[experiment]\nkind = dumbbell\nschemes = powertcp\n"
                    "[workload]\nflow_mb = nan\n"),
               ConfigError);
  EXPECT_THROW(load("[experiment]\nkind = homa_oc\nschemes = homa\n"
                    "[workload]\nlong_message_mb = 1e15\n"),
               ConfigError);
  // A query incast needs a positive fan-in (the query splits across
  // it); fan_in = 0 with query_kb > 0 must fail at load, not SIGFPE
  // in the scenario.
  EXPECT_THROW(load("[experiment]\nkind = incast\nschemes = powertcp\n"
                    "[workload]\nquery_kb = 100\nfan_in = 0\n"),
               ConfigError);
  // Message transports cannot run the RDCN scenario (registry check
  // fires inside run_config -> scenario).
  const auto cfg = load(
      "[experiment]\nkind = rdcn\nschemes = homa\n"
      "[topology]\npreset = small\n"
      "[workload]\nhorizon_ms = 1\n");
  EXPECT_THROW(run_config(cfg, SweepRunner(1)), std::invalid_argument);
}

TEST(Runner, QueryPointsGetUniqueSlugs) {
  // Two query sizes in one config must not shadow each other in the
  // CSV/JSON (the regression gate indexes tables by slug).
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = incast
schemes = powertcp

[workload]
query_kb = 500, 2000
fan_in = 8, 16
)",
                                      "slugs.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const IncastKindConfig& kind = as_kind<IncastKindConfig>(cfg);
  IncastScenario a = kind.incast;
  a.query_bytes = 500'000;
  a.fan_in = 8;
  IncastScenario b = kind.incast;
  b.query_bytes = 2'000'000;
  b.fan_in = 16;
  // Slug generation is pure string work; shrink the simulations.
  a.horizon = b.horizon = sim::microseconds(200);
  const SweepRunner runner(1);
  const auto ta = incast_figure_table(runner, a, kind.schemes, "fig4");
  const auto tb = incast_figure_table(runner, b, kind.schemes, "fig4");
  EXPECT_EQ(ta.slug, "fig4_query500kb");
  EXPECT_EQ(tb.slug, "fig4_query2000kb");
}

TEST(Runner, SchemeAliasesRunOneSchemeTwice) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = fat_tree
schemes = fast-power, slow-power

[workload]
loads = 0.3

[cc.fast-power]
scheme = powertcp
gamma = 1.0

[cc.slow-power]
scheme = powertcp
gamma = 0.1
)",
                                      "alias.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const FatTreeKindConfig& kind = as_kind<FatTreeKindConfig>(cfg);
  ASSERT_EQ(kind.schemes.size(), 2u);
  EXPECT_EQ(kind.schemes[0].display(), "fast-power");
  EXPECT_EQ(kind.schemes[0].scheme, "powertcp");
  EXPECT_EQ(kind.schemes[0].params.at("gamma"), "1.0");
  EXPECT_EQ(kind.schemes[1].params.at("gamma"), "0.1");
}

// ---- mixed_cc / fluid_phase / [aqm] --------------------------------

RunnerConfig mini_mixed_config(const std::string& extra = "") {
  const auto file = ConfigFile::parse(
      "[experiment]\n"
      "kind = mixed_cc\n"
      "slug = mini\n"
      "schemes = dctcp, powertcp\n"
      "seed = 7\n"
      "[workload]\n"
      "cc_mix = dctcp:0.5+powertcp:0.5\n"
      "senders = 6\n"
      "flow_mb = 0.5\n"
      "horizon_ms = 2\n" +
          extra,
      "mixed.toml");
  return load_runner_config(file);
}

TEST(Runner, MixedCcConfigResolvesMembersFromSchemeLabels) {
  const RunnerConfig cfg = mini_mixed_config("[cc.dctcp]\ng = 0.125\n");
  EXPECT_EQ(cfg.kind, "mixed_cc");
  const MixedCcKindConfig& kind = as_kind<MixedCcKindConfig>(cfg);
  EXPECT_EQ(kind.slug_prefix, "mini");
  EXPECT_EQ(kind.mixed.seed, 7u);
  EXPECT_EQ(kind.mixed.senders, 6);
  EXPECT_EQ(kind.mixed.flow_bytes, 500'000);
  ASSERT_EQ(kind.mixed.mixes.size(), 1u);
  const MixedCcMix& mix = kind.mixed.mixes[0];
  EXPECT_EQ(mix.display, "dctcp:0.50+powertcp:0.50");
  ASSERT_EQ(mix.members.size(), 2u);
  EXPECT_EQ(mix.members[0].scheme, "dctcp");
  // [cc.<label>] params flow through to the mix member.
  EXPECT_EQ(mix.members[0].params.at("g"), "0.125");
  EXPECT_EQ(mix.members[1].scheme, "powertcp");
  EXPECT_DOUBLE_EQ(mix.weights[0], 0.5);
  EXPECT_DOUBLE_EQ(mix.weights[1], 0.5);
  // Defaults: the red AQM, one rtt point, no buffer override.
  EXPECT_EQ(kind.mixed.aqm_kinds, (std::vector<std::string>{"red"}));
  EXPECT_TRUE(kind.mixed.buffer_bytes.empty());
}

TEST(Runner, MixedCcTablesAreByteIdenticalAcrossThreadCounts) {
  const RunnerConfig cfg =
      mini_mixed_config("aqm = red, pie\nbuffer_kb = 0, 16\n");
  const auto t1 = render_all(run_config(cfg, SweepRunner(1)));
  const auto t4 = render_all(run_config(cfg, SweepRunner(4)));
  EXPECT_EQ(t1, t4);
  // Three tables (fairness, share, fct) with per-cell rows.
  EXPECT_NE(t1.find("mini_fairness"), std::string::npos);
  EXPECT_NE(t1.find("mini_share"), std::string::npos);
  EXPECT_NE(t1.find("mini_fct"), std::string::npos);
  EXPECT_NE(t1.find("dctcp:0.50+powertcp:0.50"), std::string::npos);
  EXPECT_NE(t1.find("pie"), std::string::npos);
}

TEST(Runner, MixedCcLoaderRejectsBadMixesWithFileLineContext) {
  const auto load = [](const std::string& workload) {
    return load_runner_config(ConfigFile::parse(
        "[experiment]\nkind = mixed_cc\nschemes = dctcp, powertcp, homa, "
        "retcp\n[workload]\n" +
            workload,
        "badmix.toml"));
  };
  // A message transport in a mix is a load-time ConfigError carrying
  // the cc_mix entry's line, not a run-time crash.
  try {
    load("cc_mix = dctcp+homa\n");
    FAIL() << "homa mix member should be rejected";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("badmix.toml:5"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("message transport"),
              std::string::npos);
  }
  // Circuit-bound schemes cannot share the coexistence dumbbell.
  EXPECT_THROW(load("cc_mix = dctcp+retcp\n"), ConfigError);
  // Members must come from the resolved schemes list.
  EXPECT_THROW(load("cc_mix = dctcp+timely\n"), ConfigError);
  // Malformed member syntax, empty list, unknown AQM kind, bad axes.
  EXPECT_THROW(load("cc_mix = dctcp:0+powertcp\n"), ConfigError);
  EXPECT_THROW(load(""), ConfigError);
  EXPECT_THROW(load("cc_mix = dctcp\naqm = fq_codel\n"), ConfigError);
  EXPECT_NO_THROW(load("cc_mix = dctcp\naqm = codel\n"));
  EXPECT_THROW(load("cc_mix = dctcp\nrtt_us = 0\n"), ConfigError);
  EXPECT_THROW(load("cc_mix = dctcp\nbuffer_kb = -4\n"), ConfigError);
  EXPECT_THROW(load("cc_mix = dctcp\nsenders = 0\n"), ConfigError);
}

TEST(Runner, AqmSectionParsesAndRejectsBadValues) {
  const auto load = [](const std::string& aqm) {
    return load_runner_config(ConfigFile::parse(
        "[experiment]\nkind = dumbbell\nschemes = dctcp\n"
        "[workload]\nhorizon_ms = 1\n" +
            aqm,
        "aqm.toml"));
  };
  // Default: red, untouched pre-refactor behavior.
  EXPECT_EQ(as_kind<DumbbellKindConfig>(load("")).dumbbell.topo.aqm.kind,
            "red");
  const auto pie = load("[aqm]\nkind = pie\ntarget_us = 40\nalpha = 0.25\n");
  const net::AqmSpec& spec =
      as_kind<DumbbellKindConfig>(pie).dumbbell.topo.aqm;
  EXPECT_EQ(spec.kind, "pie");
  EXPECT_DOUBLE_EQ(spec.target_us, 40.0);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.25);
  EXPECT_DOUBLE_EQ(spec.tupdate_us, 20.0);  // untouched default
  const auto codel =
      load("[aqm]\nkind = codel\ntarget_us = 40\ninterval_us = 250\n");
  const net::AqmSpec& cd = as_kind<DumbbellKindConfig>(codel).dumbbell.topo.aqm;
  EXPECT_EQ(cd.kind, "codel");
  EXPECT_DOUBLE_EQ(cd.target_us, 40.0);
  EXPECT_DOUBLE_EQ(cd.interval_us, 250.0);
  EXPECT_THROW(load("[aqm]\nkind = fq_codel\n"), ConfigError);
  EXPECT_THROW(load("[aqm]\ntarget_us = 0\n"), ConfigError);
  EXPECT_THROW(load("[aqm]\ninterval_us = 0\n"), ConfigError);
  EXPECT_THROW(load("[aqm]\necn_threshold = 1.5\n"), ConfigError);
  EXPECT_THROW(load("[aqm]\nkindd = pie\n"), ConfigError);  // unknown key
}

TEST(Runner, NonFiniteAqmValueFailsAtLoad) {
  // NaN passes every `<= 0` range check, so it must be stopped where
  // the number is parsed — before it reaches PiDelayController at run
  // time.
  try {
    load_runner_config(ConfigFile::parse(
        "[experiment]\nkind = dumbbell\nschemes = dctcp\n"
        "[workload]\nhorizon_ms = 1\n[aqm]\nkind = pie\ntarget_us = nan\n",
        "nan.toml"));
    FAIL() << "target_us = nan should fail at load";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("nan.toml:8"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("target_us"), std::string::npos)
        << e.what();
  }
}

TEST(Runner, FluidPhaseConfigMirrorsTheFig3Bench) {
  const auto file = ConfigFile::parse(R"(
[experiment]
kind = fluid_phase
slug = fig3
schemes = powertcp
)",
                                      "fig3.toml");
  const RunnerConfig cfg = load_runner_config(file);
  const auto tables = run_config(cfg, SweepRunner(1));
  // Three per-law portraits + summary + theorem table.
  ASSERT_EQ(tables.size(), 5u);
  EXPECT_EQ(tables[0].slug, "fig3_voltage");
  EXPECT_EQ(tables[1].slug, "fig3_current");
  EXPECT_EQ(tables[2].slug, "fig3_power");
  EXPECT_EQ(tables[3].slug, "fig3_summary");
  EXPECT_EQ(tables[4].slug, "fig3_stability");
  const std::string summary = tables[3].render_text();
  // The figure's three claims: voltage undershoots the BDP line,
  // current has no unique equilibrium (empty eq cells), power is
  // loss-free with a unique equilibrium.
  EXPECT_NE(summary.find("no loss"), std::string::npos);
  EXPECT_NE(summary.find("loss"), std::string::npos);
  const std::string power_row =
      summary.substr(summary.find("power"));
  EXPECT_NE(power_row.find("no loss"), std::string::npos);
  // Deterministic closed forms: byte-identical across thread counts.
  EXPECT_EQ(render_all(tables),
            render_all(run_config(cfg, SweepRunner(3))));
}

TEST(Runner, FluidPhaseLoaderValidatesGridAndParameters) {
  const auto load = [](const std::string& extra) {
    return load_runner_config(ConfigFile::parse(
        "[experiment]\nkind = fluid_phase\nschemes = powertcp\n" + extra,
        "fluid.toml"));
  };
  EXPECT_NO_THROW(load("[workload]\ngrid_w_bdp = 1\ngrid_q_bdp = 0\n"));
  EXPECT_THROW(load("[topology]\nbandwidth_gbps = 0\n"), ConfigError);
  EXPECT_THROW(load("[workload]\nstep_us = 0\n"), ConfigError);
  EXPECT_THROW(load("[workload]\ngrid_w_bdp = 1, 2\ngrid_q_bdp = 0\n"),
               ConfigError);
  EXPECT_THROW(load("[workload]\ngrid_w_bdp = 0\ngrid_q_bdp = 0\n"),
               ConfigError);
}

/// Loads `text` as "range.toml" and expects a ConfigError that names
/// `line` of that file and `key`.
void expect_rejected_at(const std::string& text, int line,
                        const std::string& key) {
  try {
    load_runner_config(ConfigFile::parse(text, "range.toml"));
    ADD_FAILURE() << "expected a ConfigError for:\n" << text;
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("range.toml:" + std::to_string(line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(key), std::string::npos) << what;
  }
}

const std::string kFatTreeHead =
    "[experiment]\nkind = fat_tree\nschemes = powertcp\n[workload]\n";

TEST(Runner, FatTreeDurationMustBePositiveAndInRange) {
  // Used to load and print an empty table reading "done% 100.0".
  for (const char* v : {"-1", "0", "1e300"}) {
    expect_rejected_at(kFatTreeHead + "duration_ms = " + v + "\n", 5,
                       "duration_ms");
  }
  EXPECT_NO_THROW(load_runner_config(
      ConfigFile::parse(kFatTreeHead + "duration_ms = 0.5\n", "ok.toml")));
}

TEST(Runner, FatTreeLoadsMustBePositive) {
  // A zero or negative load generates no flows (another empty table).
  expect_rejected_at(kFatTreeHead + "loads = 0\n", 5, "loads");
  expect_rejected_at(kFatTreeHead + "loads = 0.2, -0.5\n", 5, "loads");
}

TEST(Runner, FatTreeIncastNeedsFanInAndRate) {
  // fan_in = 0 used to die with SIGFPE in generate_incast's
  // request_bytes / fan_in.
  expect_rejected_at(kFatTreeHead + "incast = true\nincast_fan_in = 0\n", 6,
                     "incast_fan_in");
  expect_rejected_at(
      kFatTreeHead + "incast = true\nincast_requests_per_sec = 0\n", 6,
      "incast_requests_per_sec");
  // With the overlay off the keys are inert and load as given.
  EXPECT_NO_THROW(load_runner_config(ConfigFile::parse(
      kFatTreeHead + "incast = false\nincast_fan_in = 0\n", "ok.toml")));
}

TEST(Runner, FatTreeSizeScaleMustYieldAValidDistribution) {
  // These failed only at run time, inside FlowSizeDistribution, with
  // no file:line.
  for (const char* v : {"0", "-1", "1e-9", "1e300"}) {
    expect_rejected_at(kFatTreeHead + "size_scale = " + v + "\n", 5,
                       "size_scale");
  }
  EXPECT_NO_THROW(load_runner_config(
      ConfigFile::parse(kFatTreeHead + "size_scale = 0.1\n", "ok.toml")));
}

TEST(Runner, IncastHorizonMustBePositive) {
  // horizon_ms = -3 on the incast kind allocated without bound.
  const std::string head =
      "[experiment]\nkind = incast\nschemes = powertcp\n[workload]\n"
      "query_kb = 0\nfan_in = 0\n";
  expect_rejected_at(head + "horizon_ms = -3\n", 7, "horizon_ms");
  expect_rejected_at(head + "horizon_ms = 0\n", 7, "horizon_ms");
}

TEST(Runner, MicrosecondKeysRejectNegativeAndOverflowingValues) {
  const std::string head =
      "[experiment]\nkind = incast\nschemes = powertcp\n[workload]\n"
      "query_kb = 0\nfan_in = 0\n";
  expect_rejected_at(head + "burst_at_us = -1\n", 7, "burst_at_us");
  expect_rejected_at(head + "bin_us = 1e300\n", 7, "bin_us");
  // Zero is a legal offset.
  EXPECT_NO_THROW(load_runner_config(
      ConfigFile::parse(head + "burst_at_us = 0\n", "ok.toml")));
}

/// "[experiment] kind = <kind>" with one scheme, then `sections`
/// (whose second line is line 5 of the file).
std::string kind_config(const std::string& kind, const std::string& scheme,
                        const std::string& sections) {
  return "[experiment]\nkind = " + kind + "\nschemes = " + scheme + "\n" +
         sections;
}

TEST(Runner, BinKeysMustBePositive) {
  // A zero bin used to die with SIGFPE on horizon / bin; 1e-9 us rounds
  // to a zero-picosecond bin.
  const struct {
    const char* kind;
    const char* scheme;
    const char* key;
  } cases[] = {
      {"incast", "powertcp", "bin_us"},
      {"rdcn", "powertcp", "bin_us"},
      {"dumbbell", "powertcp", "bin_us"},
      {"homa_oc", "homa", "fairness_bin_us"},
      {"homa_oc", "homa", "incast_bin_us"},
  };
  for (const auto& c : cases) {
    for (const char* v : {"0", "1e-9"}) {
      const std::string work =
          std::string("[workload]\n") + c.key + " = " + v + "\n";
      expect_rejected_at(kind_config(c.kind, c.scheme, work), 5, c.key);
    }
  }
}

TEST(Runner, RateKeysMustBePositive) {
  // A zero line rate used to fail at run time with "schedule_at: time
  // ... is before now" and no file:line.
  const char* mix = "[workload]\ncc_mix = powertcp\n";
  const struct {
    const char* kind;
    const char* scheme;
    const char* key;
    const char* rest;
  } cases[] = {
      {"fat_tree", "powertcp", "host_gbps", ""},
      {"fat_tree", "powertcp", "fabric_gbps", ""},
      {"incast", "powertcp", "host_gbps", ""},
      {"homa_oc", "homa", "fabric_gbps", ""},
      {"rdcn", "powertcp", "host_gbps", ""},
      {"rdcn", "powertcp", "circuit_gbps", ""},
      {"dumbbell", "powertcp", "host_gbps", ""},
      {"dumbbell", "powertcp", "bottleneck_gbps", ""},
      {"mixed_cc", "powertcp", "host_gbps", mix},
      {"mixed_cc", "powertcp", "bottleneck_gbps", mix},
  };
  for (const auto& c : cases) {
    for (const char* v : {"0", "-10"}) {
      const std::string sections =
          std::string("[topology]\n") + c.key + " = " + v + "\n" + c.rest;
      expect_rejected_at(kind_config(c.kind, c.scheme, sections), 5, c.key);
    }
  }
  const std::string packet = "[workload]\npacket_gbps = 25, 0\n";
  expect_rejected_at(kind_config("rdcn", "powertcp", packet), 5, "packet_gbps");
}

TEST(Runner, LongCompanionsMustBeNonNegativeAndFitTheFabric) {
  const std::string work = "[workload]\nquery_kb = 0\nfan_in = 0\n";
  // -1 used to load and silently run no companions.
  const std::string negative = work + "long_companions = -1\n";
  expect_rejected_at(kind_config("incast", "powertcp", negative), 7,
                     "long_companions");
  // More companions than hosts used to fail with vector::_M_range_check.
  const std::string big = work + "long_companions = 100000\nhorizon_ms = 1\n";
  const RunnerConfig cfg = load_runner_config(
      ConfigFile::parse(kind_config("incast", "powertcp", big), "big.toml"));
  try {
    run_config(cfg, SweepRunner(1));
    ADD_FAILURE() << "100000 companions ran on the quick fabric";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("long_companions"),
              std::string::npos)
        << e.what();
  }
}

TEST(Runner, FatTreeCountsMustBePositive) {
  // pods = -2 used to fail with "cannot create std::vector larger than
  // max_size()" while the shard plan was built.
  for (const char* key :
       {"pods", "tors_per_pod", "aggs_per_pod", "cores", "servers_per_tor"}) {
    for (const char* v : {"-2", "3000000000"}) {
      const std::string topo =
          std::string("[topology]\n") + key + " = " + v + "\n";
      expect_rejected_at(kind_config("fat_tree", "powertcp", topo), 5, key);
    }
  }
  // A zero count loads and fails in the fat-tree's own check.
  const std::string zero = "[topology]\npods = 0\n";
  const RunnerConfig cfg = load_runner_config(
      ConfigFile::parse(kind_config("fat_tree", "powertcp", zero), "z.toml"));
  EXPECT_THROW(run_config(cfg, SweepRunner(1)), std::invalid_argument);
}

}  // namespace
}  // namespace powertcp::harness
