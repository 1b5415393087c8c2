#include "harness/runner.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>

#include "analysis/control_law.hpp"
#include "analysis/fluid_model.hpp"
#include "analysis/theorems.hpp"
#include "cc/mix.hpp"
#include "cc/registry.hpp"
#include "net/aqm.hpp"
#include "stats/fct_recorder.hpp"

namespace powertcp::harness {

namespace {

/// Resolves one `schemes = ...` entry: its optional [cc.<label>]
/// section supplies params and may alias a registered scheme via
/// `scheme = <name>`. Every param key must be declared by the entry.
SchemeRun resolve_scheme(const ConfigFile& file, const std::string& label) {
  SchemeRun run;
  run.label = label;
  run.scheme = label;
  const ConfigFile::Section* sec = file.find("cc." + label);
  if (sec != nullptr) {
    for (const auto& e : sec->entries) {
      if (e.key == "scheme") {
        run.scheme = e.value;
      } else {
        run.params[e.key] = e.value;
      }
    }
  }
  const cc::Scheme* scheme = cc::Registry::instance().find(run.scheme);
  if (scheme == nullptr) {
    throw ConfigError(file.origin() + ": scheme '" + run.scheme + "' (" +
                      label + ") is not registered; known: " + [] {
                        std::string names;
                        for (const auto& s :
                             cc::Registry::instance().schemes()) {
                          if (!names.empty()) names += ", ";
                          names += s.name;
                        }
                        return names;
                      }());
  }
  for (const auto& [key, value] : run.params) {
    (void)value;
    bool declared = false;
    for (const auto& spec : scheme->params) {
      declared = declared || spec.key == key;
    }
    if (!declared) {
      throw ConfigError(file.origin() + ": [cc." + label + "] '" + key +
                        "' is not a declared parameter of scheme '" +
                        run.scheme + "'");
    }
  }
  return run;
}

/// A line rate in Gbps: must be > 0 (a zero or negative rate makes
/// every serialization time overflow at run time). Absent keys keep
/// `fallback`.
sim::Bandwidth get_gbps(SectionView& v, const std::string& key,
                        sim::Bandwidth fallback) {
  if (!v.has(key)) return fallback;
  const double gbps = v.get_double(key, 0);
  if (!(gbps > 0)) v.reject(key, "must be > 0");
  return sim::Bandwidth::gbps(gbps);
}

/// A switch or host count. Negative counts size the shard plan's
/// vectors from a negative number, so they fail here; zero is left to
/// the topology's own check, which throws when the point is built.
int get_count(SectionView& v, const std::string& key, int fallback) {
  const std::int64_t n = v.get_int(key, fallback);
  if (n < 0 || n > std::numeric_limits<int>::max()) {
    v.reject(key, "must be an integer >= 1");
  }
  return static_cast<int>(n);
}

void load_fat_tree_topology(SectionView& topo, topo::FatTreeConfig* cfg,
                            const ConfigFile& file) {
  const std::string preset = topo.get_string("preset", "quick");
  if (preset == "quick") {
    *cfg = topo::FatTreeConfig::quick();
  } else if (preset == "paper") {
    *cfg = topo::FatTreeConfig();
  } else {
    throw ConfigError(file.origin() + ": [topology] preset = '" + preset +
                      "' is not one of quick, paper");
  }
  cfg->pods = get_count(topo, "pods", cfg->pods);
  cfg->tors_per_pod = get_count(topo, "tors_per_pod", cfg->tors_per_pod);
  cfg->aggs_per_pod = get_count(topo, "aggs_per_pod", cfg->aggs_per_pod);
  cfg->cores = get_count(topo, "cores", cfg->cores);
  cfg->servers_per_tor =
      get_count(topo, "servers_per_tor", cfg->servers_per_tor);
  cfg->host_bw = get_gbps(topo, "host_gbps", cfg->host_bw);
  cfg->fabric_bw = get_gbps(topo, "fabric_gbps", cfg->fabric_bw);
  cfg->buffer_bytes_per_gbps =
      topo.get_int("buffer_bytes_per_gbps", cfg->buffer_bytes_per_gbps);
  cfg->dt_alpha = topo.get_double("dt_alpha", cfg->dt_alpha);
}

/// Largest duration a time key may hold, in seconds: its picosecond
/// count must fit in TimePs with room to spare (llround of an
/// out-of-range value is undefined, and engine code adds to horizons).
constexpr double kMaxTimeKeySeconds = 9.0e6;  // 9e18 ps, ~104 days

/// A duration or horizon in milliseconds: must be > 0 (a zero or
/// negative horizon runs nothing, or allocates without bound) and in
/// range.
sim::TimePs get_ms(SectionView& v, const std::string& key,
                   sim::TimePs fallback) {
  if (!v.has(key)) {
    v.get_double(key, 0);  // mark consumed even when absent
    return fallback;
  }
  const double s = v.get_double(key, 0) * 1e-3;
  if (!(s > 0) || s > kMaxTimeKeySeconds) {
    v.reject(key, "must be > 0 and at most 9e9 ms");
  }
  return sim::from_seconds(s);
}

/// An offset or interval in microseconds: must be >= 0 and in range.
sim::TimePs get_us(SectionView& v, const std::string& key,
                   sim::TimePs fallback) {
  if (!v.has(key)) {
    v.get_double(key, 0);
    return fallback;
  }
  const double s = v.get_double(key, 0) * 1e-6;
  if (s < 0 || s > kMaxTimeKeySeconds) {
    v.reject(key, "must be >= 0 and at most 9e12 us");
  }
  return sim::from_seconds(s);
}

/// A sampling bin in microseconds: like get_us, but must be > 0 (the
/// horizon is divided into bins of this width).
sim::TimePs get_bin_us(SectionView& v, const std::string& key,
                       sim::TimePs fallback) {
  const sim::TimePs bin = get_us(v, key, fallback);
  if (bin <= 0) v.reject(key, "must be > 0 and at most 9e12 us");
  return bin;
}

/// A `key = v1, v2` list of small positive integers (overcommit
/// levels, fan-ins); absent keys keep `fallback`.
std::vector<int> get_int_list(SectionView& v, const std::string& key,
                              std::vector<int> fallback,
                              const ConfigFile& file) {
  const std::vector<double> raw = v.get_double_list(key, {});
  if (raw.empty()) return fallback;
  std::vector<int> out;
  out.reserve(raw.size());
  for (const double x : raw) {
    // Range-check before the cast: int-casting an unrepresentable
    // double is undefined behavior, not a detectable error.
    if (x < 1 || x > std::numeric_limits<int>::max() || std::floor(x) != x) {
      throw ConfigError(file.origin() + ": [workload] " + key +
                        " entries must be integers >= 1");
    }
    out.push_back(static_cast<int>(x));
  }
  return out;
}

// ---- per-kind loaders ---------------------------------------------
// Each owns its [topology]/[workload] schema; the shared SectionView
// consumption tracking turns any unread key into a file:line error.

std::unique_ptr<ScenarioConfig> load_fat_tree_kind(const ConfigFile& file,
                                                   SectionView& topo,
                                                   SectionView& work,
                                                   const ScenarioContext& ctx) {
  auto sc = std::make_unique<FatTreeKindConfig>();
  sc->schemes = ctx.schemes;
  sc->slug_prefix = ctx.slug_prefix;
  sc->percentile = ctx.percentile;
  sc->fat_tree.sim_queue = ctx.sim_queue;
  sc->fat_tree.sim_threads = ctx.sim_threads;
  sc->fat_tree.seed = ctx.seed;
  sc->fat_tree.telemetry = ctx.telemetry;
  sc->fat_tree.burst = ctx.burst;
  load_fat_tree_topology(topo, &sc->fat_tree.topo, file);
  sc->fat_tree.topo.aqm = ctx.aqm;
  sc->loads = work.get_double_list("loads", sc->loads);
  if (sc->loads.empty()) {
    throw ConfigError(file.origin() +
                      ": [workload] point lists must be non-empty");
  }
  for (const double load : sc->loads) {
    // A zero or negative load generates no flows and prints an empty
    // table that reads as 100% done.
    if (load <= 0) work.reject("loads", "entries must be > 0");
  }
  sc->fat_tree.duration = get_ms(work, "duration_ms", sc->fat_tree.duration);
  sc->fat_tree.size_scale =
      work.get_double("size_scale", sc->fat_tree.size_scale);
  try {
    scaled_websearch(sc->fat_tree.size_scale);  // throws on scale <= 0 too
  } catch (const std::invalid_argument&) {
    work.reject("size_scale",
                "must be > 0 and keep every scaled websearch size "
                ">= 100 B and in range");
  }
  sc->fat_tree.expected_flows = static_cast<int>(
      work.get_int("expected_flows", sc->fat_tree.expected_flows));
  sc->fat_tree.incast = work.get_bool("incast", sc->fat_tree.incast);
  sc->fat_tree.incast_requests_per_sec = work.get_double(
      "incast_requests_per_sec", sc->fat_tree.incast_requests_per_sec);
  sc->fat_tree.incast_request_bytes = static_cast<std::int64_t>(
      work.get_double(
          "incast_request_kb",
          static_cast<double>(sc->fat_tree.incast_request_bytes) / 1e3) *
      1e3);
  const std::int64_t fan_in =
      work.get_int("incast_fan_in", sc->fat_tree.incast_fan_in);
  if (sc->fat_tree.incast) {
    // The query is split across the fan-in (a zero fan-in divides by
    // zero) at a Poisson rate (a zero rate never arrives).
    if (fan_in < 1 || fan_in > std::numeric_limits<int>::max()) {
      work.reject("incast_fan_in", "must be >= 1 when incast is on");
    }
    if (sc->fat_tree.incast_requests_per_sec <= 0) {
      work.reject("incast_requests_per_sec", "must be > 0 when incast is on");
    }
  }
  sc->fat_tree.incast_fan_in = static_cast<int>(fan_in);
  return sc;
}

std::unique_ptr<ScenarioConfig> load_incast_kind(const ConfigFile& file,
                                                 SectionView& topo,
                                                 SectionView& work,
                                                 const ScenarioContext& ctx) {
  auto sc = std::make_unique<IncastKindConfig>();
  sc->schemes = ctx.schemes;
  sc->slug_prefix = ctx.slug_prefix;
  sc->incast.sim_queue = ctx.sim_queue;
  sc->incast.sim_threads = ctx.sim_threads;
  sc->incast.telemetry = ctx.telemetry;
  sc->incast.burst = ctx.burst;
  load_fat_tree_topology(topo, &sc->incast.topo, file);
  sc->incast.topo.aqm = ctx.aqm;
  sc->query_kb = work.get_double_list("query_kb", sc->query_kb);
  sc->fan_in = work.get_double_list("fan_in", sc->fan_in);
  if (sc->query_kb.empty() || sc->fan_in.empty()) {
    throw ConfigError(file.origin() +
                      ": [workload] point lists must be non-empty");
  }
  if (sc->fan_in.size() != sc->query_kb.size() && sc->fan_in.size() != 1) {
    throw ConfigError(file.origin() +
                      ": [workload] fan_in must list one value or one "
                      "per query_kb entry");
  }
  for (const double fan : sc->fan_in) {
    // 0 is legal (companions-only table), fractions are not: the run
    // would silently truncate to a point the config does not state.
    if (fan < 0 || fan > std::numeric_limits<int>::max() ||
        std::floor(fan) != fan) {
      throw ConfigError(file.origin() +
                        ": [workload] fan_in entries must be integers >= 0");
    }
  }
  for (std::size_t i = 0; i < sc->query_kb.size(); ++i) {
    const double fan = sc->fan_in[sc->fan_in.size() == 1 ? 0 : i];
    if (sc->query_kb[i] > 0 && fan < 1) {
      throw ConfigError(file.origin() +
                        ": [workload] query_kb > 0 needs fan_in >= 1 "
                        "(the query is split across the fan-in)");
    }
  }
  sc->incast.long_flow_bytes = static_cast<std::int64_t>(
      work.get_double("long_flow_mb",
                      static_cast<double>(sc->incast.long_flow_bytes) / 1e6) *
      1e6);
  const std::int64_t companions =
      work.get_int("long_companions", sc->incast.long_companions);
  if (companions < 0 || companions > std::numeric_limits<int>::max()) {
    work.reject("long_companions", "must be an integer >= 0");
  }
  sc->incast.long_companions = static_cast<int>(companions);
  sc->incast.burst_at = get_us(work, "burst_at_us", sc->incast.burst_at);
  sc->incast.horizon = get_ms(work, "horizon_ms", sc->incast.horizon);
  sc->incast.bin = get_bin_us(work, "bin_us", sc->incast.bin);
  sc->incast.expected_flows = static_cast<int>(
      work.get_int("expected_flows", sc->incast.expected_flows));
  return sc;
}

std::unique_ptr<ScenarioConfig> load_rdcn_kind(const ConfigFile& file,
                                               SectionView& topo,
                                               SectionView& work,
                                               const ScenarioContext& ctx) {
  auto sc = std::make_unique<RdcnKindConfig>();
  sc->schemes = ctx.schemes;
  sc->slug_prefix = ctx.slug_prefix;
  sc->rdcn.sim_queue = ctx.sim_queue;
  sc->rdcn.sim_threads = ctx.sim_threads;
  sc->rdcn.telemetry = ctx.telemetry;
  sc->rdcn.burst = ctx.burst;
  const std::string preset = topo.get_string("preset", "paper");
  if (preset == "small") {
    sc->rdcn.topo = topo::RdcnConfig::small();
  } else if (preset == "paper") {
    sc->rdcn.topo = topo::RdcnConfig();
  } else {
    throw ConfigError(file.origin() + ": [topology] preset = '" + preset +
                      "' is not one of small, paper");
  }
  sc->rdcn.topo.n_tors =
      static_cast<int>(topo.get_int("n_tors", sc->rdcn.topo.n_tors));
  sc->rdcn.topo.servers_per_tor = static_cast<int>(
      topo.get_int("servers_per_tor", sc->rdcn.topo.servers_per_tor));
  sc->rdcn.topo.host_bw = get_gbps(topo, "host_gbps", sc->rdcn.topo.host_bw);
  sc->rdcn.topo.circuit_bw =
      get_gbps(topo, "circuit_gbps", sc->rdcn.topo.circuit_bw);
  sc->rdcn.topo.day = get_us(topo, "day_us", sc->rdcn.topo.day);
  sc->rdcn.topo.night = get_us(topo, "night_us", sc->rdcn.topo.night);
  sc->packet_gbps = work.get_double_list("packet_gbps", sc->packet_gbps);
  if (sc->packet_gbps.empty()) {
    throw ConfigError(file.origin() +
                      ": [workload] point lists must be non-empty");
  }
  for (const double gbps : sc->packet_gbps) {
    if (!(gbps > 0)) work.reject("packet_gbps", "entries must be > 0");
  }
  sc->rdcn.flow_bytes = static_cast<std::int64_t>(
      work.get_double("flow_mb",
                      static_cast<double>(sc->rdcn.flow_bytes) / 1e6) *
      1e6);
  sc->rdcn.horizon = get_ms(work, "horizon_ms", sc->rdcn.horizon);
  sc->rdcn.bin = get_bin_us(work, "bin_us", sc->rdcn.bin);
  sc->rdcn.expected_flows = static_cast<int>(
      work.get_int("expected_flows", sc->rdcn.expected_flows));
  return sc;
}

/// Scales a size value (MB/KB key) to bytes. Rejects NaN/inf,
/// non-positive values, and sizes past int64 range — casting an
/// unrepresentable double is undefined behavior, not an error path.
std::int64_t size_to_bytes(double value, double scale,
                           const std::string& key, const ConfigFile& file) {
  constexpr double kMaxBytes = 9.0e18;  // just under int64 max
  if (!std::isfinite(value) || value <= 0 || value * scale > kMaxBytes) {
    throw ConfigError(file.origin() + ": [workload] " + key +
                      " must be a positive in-range size");
  }
  return static_cast<std::int64_t>(value * scale);
}

/// Reads a `flow_mb = 14, 10, 6, 2.5` list into per-flow byte sizes;
/// absent keys keep the scenario's defaults.
void load_flow_mb(SectionView& work, std::vector<std::int64_t>* flow_bytes,
                  const ConfigFile& file) {
  const std::vector<double> mb = work.get_double_list("flow_mb", {});
  if (mb.empty()) return;
  flow_bytes->clear();
  for (const double m : mb) {
    flow_bytes->push_back(size_to_bytes(m, 1e6, "flow_mb", file));
  }
}

std::unique_ptr<ScenarioConfig> load_dumbbell_kind(const ConfigFile& file,
                                                   SectionView& topo,
                                                   SectionView& work,
                                                   const ScenarioContext& ctx) {
  auto sc = std::make_unique<DumbbellKindConfig>();
  sc->schemes = ctx.schemes;
  sc->slug_prefix = ctx.slug_prefix;
  DumbbellScenario& d = sc->dumbbell;
  d.sim_queue = ctx.sim_queue;
  d.sim_threads = ctx.sim_threads;
  d.telemetry = ctx.telemetry;
  d.burst = ctx.burst;
  d.topo.aqm = ctx.aqm;
  d.topo.host_bw = get_gbps(topo, "host_gbps", d.topo.host_bw);
  d.topo.bottleneck_bw =
      get_gbps(topo, "bottleneck_gbps", d.topo.bottleneck_bw);
  d.topo.link_delay = get_us(topo, "link_delay_us", d.topo.link_delay);
  d.topo.dt_alpha = topo.get_double("dt_alpha", d.topo.dt_alpha);
  if (topo.has("buffer_kb")) {
    d.topo.buffer_bytes =
        static_cast<std::int64_t>(topo.get_double("buffer_kb", 0) * 1e3);
  }
  load_flow_mb(work, &d.flow_bytes, file);
  d.stagger = get_us(work, "stagger_us", d.stagger);
  d.horizon = get_ms(work, "horizon_ms", d.horizon);
  d.bin = get_bin_us(work, "bin_us", d.bin);
  d.row_stride = static_cast<int>(work.get_int("row_every", d.row_stride));
  if (d.row_stride < 1) {
    throw ConfigError(file.origin() + ": [workload] row_every must be >= 1");
  }
  return sc;
}

std::unique_ptr<ScenarioConfig> load_homa_oc_kind(const ConfigFile& file,
                                                  SectionView& topo,
                                                  SectionView& work,
                                                  const ScenarioContext& ctx) {
  auto sc = std::make_unique<HomaOcKindConfig>();
  sc->schemes = ctx.schemes;
  sc->slug_prefix = ctx.slug_prefix;
  HomaOcScenario& h = sc->homa_oc;
  h.sim_queue = ctx.sim_queue;
  h.sim_threads = ctx.sim_threads;
  h.telemetry = ctx.telemetry;
  h.burst = ctx.burst;
  load_fat_tree_topology(topo, &h.incast_topo, file);
  h.incast_topo.aqm = ctx.aqm;
  h.fairness.topo.aqm = ctx.aqm;
  h.overcommit = get_int_list(work, "overcommit", h.overcommit, file);
  h.fan_in = get_int_list(work, "fan_in", h.fan_in, file);
  load_flow_mb(work, &h.fairness.flow_bytes, file);
  h.fairness.stagger = get_us(work, "stagger_us", h.fairness.stagger);
  h.fairness.horizon =
      get_ms(work, "fairness_horizon_ms", h.fairness.horizon);
  h.fairness.bin = get_bin_us(work, "fairness_bin_us", h.fairness.bin);
  h.fairness.row_stride = static_cast<int>(
      work.get_int("fairness_row_every", h.fairness.row_stride));
  if (h.fairness.row_stride < 1) {
    throw ConfigError(file.origin() +
                      ": [workload] fairness_row_every must be >= 1");
  }
  h.long_message_bytes = size_to_bytes(
      work.get_double("long_message_mb",
                      static_cast<double>(h.long_message_bytes) / 1e6),
      1e6, "long_message_mb", file);
  h.burst_message_bytes = size_to_bytes(
      work.get_double("burst_kb",
                      static_cast<double>(h.burst_message_bytes) / 1e3),
      1e3, "burst_kb", file);
  h.burst_at = get_us(work, "burst_at_us", h.burst_at);
  h.incast_horizon = get_ms(work, "incast_horizon_ms", h.incast_horizon);
  h.incast_bin = get_bin_us(work, "incast_bin_us", h.incast_bin);
  return sc;
}

std::unique_ptr<ScenarioConfig> load_single_flow_kind(
    const ConfigFile& file, SectionView& topo, SectionView& work,
    const ScenarioContext& ctx) {
  auto sc = std::make_unique<SingleFlowKindConfig>();
  sc->slug_prefix = ctx.slug_prefix;
  sc->bandwidth_gbps = topo.get_double("bandwidth_gbps", sc->bandwidth_gbps);
  sc->bdp_packets = topo.get_double("bdp_packets", sc->bdp_packets);
  sc->packet_kb = topo.get_double("packet_kb", sc->packet_kb);
  if (sc->bandwidth_gbps <= 0 || sc->bdp_packets <= 0 || sc->packet_kb <= 0) {
    throw ConfigError(file.origin() +
                      ": [topology] bandwidth_gbps, bdp_packets and "
                      "packet_kb must be > 0");
  }
  sc->hold_queue_pkts =
      work.get_double("hold_queue_pkts", sc->hold_queue_pkts);
  sc->hold_rate_x = work.get_double("hold_rate_x", sc->hold_rate_x);
  sc->rate_max_x = work.get_double("rate_max", sc->rate_max_x);
  sc->queue_max_pkts = work.get_double("queue_max_pkts", sc->queue_max_pkts);
  sc->queue_step_pkts =
      work.get_double("queue_step_pkts", sc->queue_step_pkts);
  if (sc->hold_queue_pkts < 0 || sc->hold_rate_x < 0 || sc->rate_max_x < 0 ||
      sc->queue_max_pkts < 0) {
    throw ConfigError(file.origin() + ": [workload] values must be >= 0");
  }
  if (sc->queue_step_pkts <= 0) {
    throw ConfigError(file.origin() +
                      ": [workload] queue_step_pkts must be > 0");
  }
  return sc;
}

std::unique_ptr<ScenarioConfig> load_mixed_cc_kind(const ConfigFile& file,
                                                   SectionView& topo,
                                                   SectionView& work,
                                                   const ScenarioContext& ctx) {
  auto sc = std::make_unique<MixedCcKindConfig>();
  sc->slug_prefix = ctx.slug_prefix;
  MixedCcScenario& m = sc->mixed;
  m.sim_queue = ctx.sim_queue;
  m.sim_threads = ctx.sim_threads;
  m.burst = ctx.burst;
  m.seed = ctx.seed;
  m.aqm = ctx.aqm;
  m.topo.host_bw = get_gbps(topo, "host_gbps", m.topo.host_bw);
  m.topo.bottleneck_bw =
      get_gbps(topo, "bottleneck_gbps", m.topo.bottleneck_bw);
  m.topo.dt_alpha = topo.get_double("dt_alpha", m.topo.dt_alpha);

  // `cc_mix = dctcp:0.5+powertcp:0.5, dctcp` — each comma-separated
  // entry is one mix cell; members reference [experiment] scheme
  // labels (so [cc.<label>] params apply per member).
  const std::vector<std::string> mix_specs = work.get_list("cc_mix", {});
  if (mix_specs.empty()) {
    throw ConfigError(file.origin() +
                      ": [workload] needs a non-empty `cc_mix` list");
  }
  // The entry's source line, for member-resolution errors.
  std::string at = file.origin();
  if (const ConfigFile::Section* wsec = file.find("workload")) {
    for (const auto& e : wsec->entries) {
      if (e.key == "cc_mix") {
        at += ":" + std::to_string(e.line);
        break;
      }
    }
  }
  for (const std::string& spec : mix_specs) {
    std::vector<cc::MixMember> members;
    try {
      members = cc::parse_cc_mix(spec);
    } catch (const std::exception& e) {
      throw ConfigError(at + ": [workload] cc_mix entry '" + spec +
                        "': " + e.what());
    }
    MixedCcMix mix;
    mix.display = cc::mix_display(members);
    for (const auto& mem : members) {
      const SchemeRun* run = nullptr;
      for (const auto& s : ctx.schemes) {
        if (s.display() == mem.label) {
          run = &s;
          break;
        }
      }
      if (run == nullptr) {
        throw ConfigError(at + ": [workload] cc_mix member '" + mem.label +
                          "' is not in the [experiment] schemes list");
      }
      const cc::Scheme& scheme = cc::Registry::instance().at(run->scheme);
      if (scheme.message_transport) {
        throw ConfigError(
            at + ": [workload] cc_mix member '" + mem.label + "' (scheme " +
            run->scheme +
            ") is a receiver-driven message transport; it reshapes the "
            "fabric and cannot share a bottleneck with sender CC "
            "algorithms");
      }
      if (scheme.needs.circuit_schedule) {
        throw ConfigError(at + ": [workload] cc_mix member '" + mem.label +
                          "' (scheme " + run->scheme +
                          ") needs a circuit schedule; the coexistence "
                          "dumbbell has none");
      }
      mix.members.push_back(*run);
      mix.weights.push_back(mem.weight);
    }
    m.mixes.push_back(std::move(mix));
  }

  m.aqm_kinds = work.get_list("aqm", m.aqm_kinds);
  for (const auto& kind : m.aqm_kinds) {
    if (net::AqmRegistry::instance().find(kind) == nullptr) {
      throw ConfigError(file.origin() + ": [workload] aqm = '" + kind +
                        "' is not one of " +
                        net::AqmRegistry::instance().joined_names());
    }
  }
  m.rtt_us = work.get_double_list("rtt_us", m.rtt_us);
  for (const double rtt : m.rtt_us) {
    if (!std::isfinite(rtt) || rtt <= 0) {
      throw ConfigError(file.origin() +
                        ": [workload] rtt_us entries must be > 0");
    }
  }
  // `buffer_kb = 0, 16, 250` — 0 keeps the topology's default (deep)
  // buffer; small values reach the Tiny-Buffer regime.
  for (const double kb : work.get_double_list("buffer_kb", {})) {
    m.buffer_bytes.push_back(
        kb == 0 ? 0 : size_to_bytes(kb, 1e3, "buffer_kb", file));
  }
  m.senders = static_cast<int>(work.get_int("senders", m.senders));
  if (m.senders < 1) {
    throw ConfigError(file.origin() + ": [workload] senders must be >= 1");
  }
  m.flow_bytes = size_to_bytes(
      work.get_double("flow_mb", static_cast<double>(m.flow_bytes) / 1e6),
      1e6, "flow_mb", file);
  m.horizon = get_ms(work, "horizon_ms", m.horizon);
  return sc;
}

std::unique_ptr<ScenarioConfig> load_fluid_phase_kind(
    const ConfigFile& file, SectionView& topo, SectionView& work,
    const ScenarioContext& ctx) {
  auto sc = std::make_unique<FluidPhaseKindConfig>();
  sc->slug_prefix = ctx.slug_prefix;
  sc->bandwidth_gbps = topo.get_double("bandwidth_gbps", sc->bandwidth_gbps);
  sc->base_rtt_us = topo.get_double("base_rtt_us", sc->base_rtt_us);
  sc->gamma = topo.get_double("gamma", sc->gamma);
  sc->update_interval_us =
      topo.get_double("update_interval_us", sc->update_interval_us);
  sc->beta_frac = topo.get_double("beta_frac", sc->beta_frac);
  if (sc->bandwidth_gbps <= 0 || sc->base_rtt_us <= 0 || sc->gamma <= 0 ||
      sc->update_interval_us <= 0 || sc->beta_frac <= 0) {
    throw ConfigError(file.origin() +
                      ": [topology] fluid-model parameters must be > 0");
  }
  sc->duration_ms = work.get_double("duration_ms", sc->duration_ms);
  sc->step_us = work.get_double("step_us", sc->step_us);
  sc->sample_us = work.get_double("sample_us", sc->sample_us);
  if (sc->duration_ms <= 0 || sc->step_us <= 0 || sc->sample_us <= 0) {
    throw ConfigError(
        file.origin() +
        ": [workload] duration_ms, step_us and sample_us must be > 0");
  }
  sc->grid_w_bdp = work.get_double_list("grid_w_bdp", sc->grid_w_bdp);
  sc->grid_q_bdp = work.get_double_list("grid_q_bdp", sc->grid_q_bdp);
  if (sc->grid_w_bdp.empty() ||
      sc->grid_w_bdp.size() != sc->grid_q_bdp.size()) {
    throw ConfigError(file.origin() +
                      ": [workload] grid_w_bdp and grid_q_bdp must be "
                      "non-empty lists of equal length");
  }
  for (std::size_t i = 0; i < sc->grid_w_bdp.size(); ++i) {
    if (!std::isfinite(sc->grid_w_bdp[i]) || sc->grid_w_bdp[i] <= 0 ||
        !std::isfinite(sc->grid_q_bdp[i]) || sc->grid_q_bdp[i] < 0) {
      throw ConfigError(file.origin() +
                        ": [workload] grid entries need w > 0 and q >= 0");
    }
  }
  return sc;
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.add(
      {"fat_tree",
       "Fig. 6/7 FCT sweep: websearch fat-tree, tail slowdown per size "
       "bucket, one table per load",
       "preset (quick|paper), pods, tors_per_pod, aggs_per_pod, cores, "
       "servers_per_tor, host_gbps, fabric_gbps, buffer_bytes_per_gbps, "
       "dt_alpha",
       "loads, duration_ms, size_scale, expected_flows, incast, "
       "incast_requests_per_sec, incast_request_kb, incast_fan_in",
       load_fat_tree_kind});
  registry.add(
      {"incast",
       "Fig. 4 reaction to incast: long flow + N:1 burst on one downlink, "
       "goodput/queue time series per scheme",
       "preset (quick|paper) + fat-tree overrides (see fat_tree)",
       "query_kb, fan_in, long_flow_mb, long_companions, burst_at_us, "
       "horizon_ms, bin_us, expected_flows",
       load_incast_kind});
  registry.add(
      {"rdcn",
       "Fig. 8 reconfigurable-DCN case study: rack-to-rack series over the "
       "rotor schedule plus p99 ToR latency vs packet bandwidth",
       "preset (small|paper), n_tors, servers_per_tor, host_gbps, "
       "circuit_gbps, day_us, night_us",
       "packet_gbps, flow_mb, horizon_ms, bin_us, expected_flows",
       load_rdcn_kind});
  registry.add(
      {"dumbbell",
       "Fig. 5 fairness/stability: staggered flows over one bottleneck, "
       "per-flow goodput series, one table per scheme",
       "host_gbps, bottleneck_gbps, link_delay_us, dt_alpha, buffer_kb",
       "flow_mb, stagger_us, horizon_ms, bin_us, row_every",
       load_dumbbell_kind});
  registry.add(
      {"homa_oc",
       "Figs. 9-11 overcommitment sweep: message-transport fairness per "
       "level plus N:1 incast reaction summaries",
       "preset (quick|paper) + fat-tree overrides for the incast panel",
       "overcommit, fan_in, flow_mb, stagger_us, fairness_horizon_ms, "
       "fairness_bin_us, fairness_row_every, long_message_mb, burst_kb, "
       "burst_at_us, incast_horizon_ms, incast_bin_us",
       load_homa_oc_kind});
  registry.add(
      {"single_flow",
       "Fig. 2 analytic reaction curves: multiplicative decrease of the "
       "voltage/current/power laws on one bottleneck (no simulation)",
       "bandwidth_gbps, bdp_packets, packet_kb",
       "hold_queue_pkts, hold_rate_x, rate_max, queue_max_pkts, "
       "queue_step_pkts",
       load_single_flow_kind});
  registry.add(
      {"mixed_cc",
       "brownfield coexistence: per-host CC mixes sharing one dumbbell, "
       "swept over (mix, aqm, rtt, buffer) cells into fairness/share/FCT "
       "tables",
       "host_gbps, bottleneck_gbps, dt_alpha",
       "cc_mix, aqm, rtt_us, buffer_kb, senders, flow_mb, horizon_ms",
       load_mixed_cc_kind});
  registry.add(
      {"fluid_phase",
       "Fig. 3 fluid-model phase portraits: per-law trajectories from a "
       "grid of initial states plus the Theorem 1/2 stability summary "
       "(no simulation)",
       "bandwidth_gbps, base_rtt_us, gamma, update_interval_us, beta_frac",
       "duration_ms, step_us, sample_us, grid_w_bdp, grid_q_bdp",
       load_fluid_phase_kind});
}

RunnerConfig load_runner_config(const ConfigFile& file,
                                const ScenarioRegistry& registry,
                                const RunnerLoadOptions& options) {
  const ConfigFile::Section* exp_sec = file.find("experiment");
  if (exp_sec == nullptr) {
    throw ConfigError(file.origin() + ": missing [experiment] section");
  }
  SectionView exp(file, exp_sec);
  const std::string kind = exp.get_string("kind", "fat_tree");
  const ScenarioEntry* entry = registry.find(kind);
  if (entry == nullptr) {
    throw ConfigError(file.origin() + ": [experiment] kind = '" + kind +
                      "' is not one of " + registry.joined_names());
  }

  ScenarioContext ctx;
  ctx.slug_prefix = exp.get_string("slug", ctx.slug_prefix);
  const std::vector<std::string> scheme_names = exp.get_list("schemes");
  if (scheme_names.empty()) {
    throw ConfigError(file.origin() +
                      ": [experiment] needs a non-empty `schemes` list");
  }
  ctx.seed = static_cast<std::uint64_t>(exp.get_int("seed", 1));
  ctx.percentile = exp.get_double("percentile", ctx.percentile);
  const std::string queue = exp.get_string("sim_queue", "heap");
  if (queue == "heap") {
    ctx.sim_queue = sim::QueueKind::kBinaryHeap;
  } else if (queue == "calendar") {
    ctx.sim_queue = sim::QueueKind::kCalendar;
  } else {
    throw ConfigError(file.origin() + ": [experiment] sim_queue = '" + queue +
                      "' is not one of heap, calendar");
  }
  // Partitioned event engine. Every value is byte-identical to
  // sim_threads = 1 (pinned by the sharded golden tests); 1 runs the
  // exact sequential engine with no threads spawned.
  const std::int64_t threads_knob =
      exp.get_int("sim_threads", options.force_sim_threads > 0
                                     ? options.force_sim_threads
                                     : ctx.sim_threads);
  if (threads_knob < 1 || threads_knob > 64) {
    throw ConfigError(file.origin() +
                      ": [experiment] sim_threads must be in [1, 64]");
  }
  ctx.sim_threads = static_cast<int>(threads_knob);
  if (options.force_sim_threads > 0) {
    ctx.sim_threads = options.force_sim_threads;
  }
  exp.finish();

  ctx.telemetry = load_telemetry_config(file);
  if (options.force_telemetry) ctx.telemetry.enabled = true;

  ctx.burst = load_burst_config(file);

  // Optional [aqm] section: the switch marking/drop policy. The
  // default ("red") keeps every pre-AQM-layer config byte-identical
  // (pinned by the golden tests).
  SectionView aqm(file, file.find("aqm"));
  ctx.aqm.kind = aqm.get_string("kind", ctx.aqm.kind);
  if (net::AqmRegistry::instance().find(ctx.aqm.kind) == nullptr) {
    throw ConfigError(file.origin() + ": [aqm] kind = '" + ctx.aqm.kind +
                      "' is not one of " +
                      net::AqmRegistry::instance().joined_names());
  }
  ctx.aqm.target_us = aqm.get_double("target_us", ctx.aqm.target_us);
  ctx.aqm.tupdate_us = aqm.get_double("tupdate_us", ctx.aqm.tupdate_us);
  ctx.aqm.alpha = aqm.get_double("alpha", ctx.aqm.alpha);
  ctx.aqm.beta = aqm.get_double("beta", ctx.aqm.beta);
  ctx.aqm.ecn_threshold =
      aqm.get_double("ecn_threshold", ctx.aqm.ecn_threshold);
  ctx.aqm.interval_us = aqm.get_double("interval_us", ctx.aqm.interval_us);
  if (ctx.aqm.target_us <= 0 || ctx.aqm.tupdate_us <= 0 ||
      ctx.aqm.alpha <= 0 || ctx.aqm.beta <= 0 || ctx.aqm.interval_us <= 0) {
    throw ConfigError(file.origin() +
                      ": [aqm] target_us, tupdate_us, alpha, beta and "
                      "interval_us must be > 0");
  }
  if (ctx.aqm.ecn_threshold < 0 || ctx.aqm.ecn_threshold > 1) {
    throw ConfigError(file.origin() +
                      ": [aqm] ecn_threshold must be in [0, 1]");
  }
  aqm.finish();

  for (const auto& name : scheme_names) {
    ctx.schemes.push_back(resolve_scheme(file, name));
  }

  SectionView topo(file, file.find("topology"));
  SectionView work(file, file.find("workload"));
  RunnerConfig rc;
  rc.kind = kind;
  rc.scenario = entry->load(file, topo, work, ctx);
  topo.finish();
  work.finish();

  // Reject sections the loader never looked at (typos, or [cc.X] for a
  // scheme the `schemes` list does not run).
  std::set<std::string> known = {"experiment", "topology", "workload",
                                 "telemetry", "aqm", "burst"};
  for (const auto& name : scheme_names) known.insert("cc." + name);
  for (const auto& sec : file.sections()) {
    if (known.count(sec.name) == 0) {
      throw ConfigError(file.origin() + ":" + std::to_string(sec.line) +
                        ": unused section [" + sec.name + "]");
    }
  }
  return rc;
}

std::vector<ResultTable> run_config(const RunnerConfig& cfg,
                                    const SweepRunner& runner) {
  if (!cfg.scenario) {
    throw std::logic_error("run_config: RunnerConfig carries no scenario");
  }
  return cfg.scenario->run(runner);
}

// ---- built-in kind execution --------------------------------------

std::vector<ResultTable> FatTreeKindConfig::run(
    const SweepRunner& runner) const {
  std::vector<ResultTable> tables;
  for (const double load : loads) {
    SweepSpec spec =
        fct_sweep_spec(fat_tree, load, percentile, schemes, slug_prefix);
    if (!fat_tree.telemetry.enabled) {
      tables.push_back(runner.run(spec));
      continue;
    }
    // Collect per-point flight recordings by declaration index (the
    // observe hook runs on worker threads; slots don't alias).
    std::vector<TelemetrySeries> flights(spec.points.size());
    spec.observe = [&flights](std::size_t i, const FatTreeExperiment&,
                              const ExperimentResult& r) {
      flights[i] = r.flight;
    };
    tables.push_back(runner.run(spec));
    const std::string sweep_slug = tables.back().slug;
    for (std::size_t i = 0; i < flights.size(); ++i) {
      if (flights[i].empty()) continue;
      tables.push_back(flight_table(
          flights[i], sweep_slug + "_flight_" + schemes[i].display(),
          schemes[i].display() +
              " flight recorder (first ToR uplink + tapped flow)"));
    }
  }
  return tables;
}

std::vector<ResultTable> IncastKindConfig::run(
    const SweepRunner& runner) const {
  std::vector<ResultTable> tables;
  for (std::size_t i = 0; i < query_kb.size(); ++i) {
    IncastScenario point = incast;
    point.query_bytes = static_cast<std::int64_t>(query_kb[i] * 1e3);
    point.fan_in =
        static_cast<int>(fan_in[fan_in.size() == 1 ? 0 : i]);
    std::vector<ResultTable> flights;
    tables.push_back(
        incast_figure_table(runner, point, schemes, slug_prefix, &flights));
    for (auto& f : flights) tables.push_back(std::move(f));
  }
  return tables;
}

std::vector<ResultTable> RdcnKindConfig::run(const SweepRunner& runner) const {
  std::vector<ResultTable> tables;
  RdcnScenario series = rdcn;
  series.topo.packet_bw = sim::Bandwidth::gbps(packet_gbps.front());
  char title[128];
  std::snprintf(title, sizeof(title),
                "rack0 -> rack1 throughput / VOQ time series "
                "(%.0fG packet plane, %.0fG circuit)",
                packet_gbps.front(), series.topo.circuit_bw.gbps_value());
  std::vector<ResultTable> flights;
  tables.push_back(rdcn_timeseries_table(runner, series, schemes,
                                         slug_prefix + "_timeseries", title,
                                         &flights));
  for (auto& f : flights) tables.push_back(std::move(f));
  std::snprintf(title, sizeof(title),
                "p99 ToR queuing latency (us) vs packet bandwidth");
  tables.push_back(rdcn_latency_table(runner, rdcn, schemes, packet_gbps,
                                      slug_prefix + "_p99", title));
  return tables;
}

std::vector<ResultTable> DumbbellKindConfig::run(
    const SweepRunner& runner) const {
  return dumbbell_fairness_tables(runner, dumbbell, schemes, slug_prefix);
}

std::vector<ResultTable> HomaOcKindConfig::run(
    const SweepRunner& runner) const {
  return homa_oc_tables(runner, homa_oc, schemes, slug_prefix);
}

std::vector<ResultTable> MixedCcKindConfig::run(
    const SweepRunner& runner) const {
  return mixed_cc_tables(runner, mixed, slug_prefix);
}

std::vector<ResultTable> FluidPhaseKindConfig::run(
    const SweepRunner&) const {
  analysis::FluidParams p;
  p.bandwidth_Bps = bandwidth_gbps * 1e9 / 8.0;
  p.base_rtt_s = base_rtt_us * 1e-6;
  p.gamma = gamma;
  p.update_interval_s = update_interval_us * 1e-6;
  p.beta_bytes = beta_frac * p.bdp_bytes();
  const double bdp = p.bdp_bytes();

  // Fig. 3's three panels: (a) voltage dips below the BDP line, (b)
  // current settles at initial-state-dependent queues, (c) power is
  // unique and undershoot-free.
  const struct {
    analysis::LawType law;
    const char* slug;
  } laws[] = {{analysis::LawType::kQueueLength, "voltage"},
              {analysis::LawType::kRttGradient, "current"},
              {analysis::LawType::kPower, "power"}};

  std::vector<ResultTable> tables;
  ResultTable summary;
  summary.slug = slug_prefix + "_summary";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Fig. 3 summary: final-queue spread and worst inflight "
                "(b=%.0fG tau=%.0fus BDP=%.0f KB beta=%.1f KB)",
                bandwidth_gbps, base_rtt_us, bdp / 1e3,
                p.beta_bytes / 1e3);
  summary.title = buf;
  summary.key_columns = {"law"};
  summary.value_columns = {"spreadBDP", "minInflBDP", "verdict", "eqW_BDP",
                           "eqQ_BDP"};

  for (const auto& lr : laws) {
    const analysis::FluidModel model(lr.law, p);
    ResultTable t;
    std::snprintf(buf, sizeof(buf),
                  "Fig. 3 phase portrait: %s, %zu initial states",
                  std::string(analysis::law_name(lr.law)).c_str(),
                  grid_w_bdp.size());
    t.title = buf;
    t.slug = slug_prefix + "_" + lr.slug;
    t.key_columns = {"initW_BDP", "initQ_BDP"};
    t.value_columns = {"finalW_BDP", "finalQ_BDP", "minInflBDP"};
    double min_final_q = 1e300;
    double max_final_q = -1e300;
    double worst_undershoot = 1e300;
    for (std::size_t i = 0; i < grid_w_bdp.size(); ++i) {
      const analysis::FluidState init{grid_w_bdp[i] * bdp,
                                      grid_q_bdp[i] * bdp};
      const auto traj =
          model.trajectory(init, duration_ms * 1e-3, step_us * 1e-6,
                           sample_us * 1e-6);
      // Undershoot only counts once the system is past the initial
      // transient toward the line.
      double min_inflight = 1e300;
      for (const auto& pt : traj) {
        if (pt.t > 5 * p.base_rtt_s) {
          min_inflight = std::min(min_inflight, pt.inflight_bytes);
        }
      }
      const analysis::FluidState fin = traj.back().state;
      min_final_q = std::min(min_final_q, fin.q_bytes);
      max_final_q = std::max(max_final_q, fin.q_bytes);
      worst_undershoot = std::min(worst_undershoot, min_inflight);
      ResultTable::Row row;
      row.keys = {Cell(grid_w_bdp[i], 2), Cell(grid_q_bdp[i], 2)};
      row.values = {Cell(fin.w_bytes / bdp, 3), Cell(fin.q_bytes / bdp, 3),
                    Cell(min_inflight / bdp, 3)};
      t.rows.push_back(std::move(row));
    }
    ResultTable::Row srow;
    srow.keys = {Cell(std::string(lr.slug))};
    srow.values = {
        Cell((max_final_q - min_final_q) / bdp, 3),
        Cell(worst_undershoot / bdp, 3),
        Cell(std::string(worst_undershoot < 0.97 * bdp ? "loss"
                                                       : "no loss"))};
    if (model.has_unique_equilibrium()) {
      const analysis::FluidState eq = model.analytic_equilibrium();
      srow.values.push_back(Cell(eq.w_bytes / bdp, 3));
      srow.values.push_back(Cell(eq.q_bytes / bdp, 3));
    } else {
      // No unique equilibrium (Appendix C) — the current-law defect.
      srow.values.push_back(Cell());
      srow.values.push_back(Cell());
    }
    summary.rows.push_back(std::move(srow));
    tables.push_back(std::move(t));
  }
  tables.push_back(std::move(summary));

  {
    ResultTable t;
    t.title =
        "Theorems 1-2: PowerTCP linearization eigenvalues (negative -> "
        "stable) and convergence time constant";
    t.slug = slug_prefix + "_stability";
    t.key_columns = {"quantity"};
    t.value_columns = {"value"};
    const auto eig = analysis::power_tcp_eigenvalues(p);
    const auto add = [&t](const char* name, Cell value) {
      ResultTable::Row row;
      row.keys = {Cell(std::string(name))};
      row.values = {std::move(value)};
      t.rows.push_back(std::move(row));
    };
    add("T1 eigenvalue 1 (1/s)", Cell(eig[0], 0));
    add("T1 eigenvalue 2 (1/s)", Cell(eig[1], 0));
    add("T2 dt/gamma (us)", Cell(p.update_interval_s / p.gamma * 1e6, 2));
    tables.push_back(std::move(t));
  }
  return tables;
}

std::vector<ResultTable> SingleFlowKindConfig::run(
    const SweepRunner&) const {
  analysis::FluidParams p;
  p.bandwidth_Bps = bandwidth_gbps * 1e9 / 8.0;
  const double pkt = packet_kb * 1e3;
  p.base_rtt_s = bdp_packets * pkt / p.bandwidth_Bps;
  // One cell triple per bottleneck state (q, q̇): the decrease factor
  // of each law, µ fixed at line rate as in Fig. 2.
  const auto laws = [&](double q_bytes, double q_dot_Bps) {
    return std::vector<Cell>{
        Cell(analysis::feedback_ratio(analysis::LawType::kQueueLength, p,
                                      q_bytes, q_dot_Bps, p.bandwidth_Bps),
             2),
        Cell(analysis::feedback_ratio(analysis::LawType::kRttGradient, p,
                                      q_bytes, q_dot_Bps, p.bandwidth_Bps),
             2),
        Cell(analysis::feedback_ratio(analysis::LawType::kPower, p, q_bytes,
                                      q_dot_Bps, p.bandwidth_Bps),
             2)};
  };

  std::vector<ResultTable> tables;
  char buf[128];
  {
    ResultTable t;
    std::snprintf(buf, sizeof(buf),
                  "Fig. 2a: multiplicative decrease vs queue buildup rate "
                  "(queue fixed at %.0f pkts)",
                  hold_queue_pkts);
    t.title = buf;
    t.slug = slug_prefix + "_vs_rate";
    t.key_columns = {"rate (x bw)"};
    t.value_columns = {"voltage-CC", "gradient-CC", "power-CC"};
    for (double r = 0.0; r <= rate_max_x + 0.01; r += 1.0) {
      ResultTable::Row row;
      row.keys = {Cell(r, 0)};
      row.values = laws(hold_queue_pkts * pkt, r * p.bandwidth_Bps);
      t.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(t));
  }
  {
    ResultTable t;
    std::snprintf(buf, sizeof(buf),
                  "Fig. 2b: multiplicative decrease vs queue length "
                  "(buildup rate fixed at %.0fx bw)",
                  hold_rate_x);
    t.title = buf;
    t.slug = slug_prefix + "_vs_queue";
    t.key_columns = {"queue (pkts)"};
    t.value_columns = {"voltage-CC", "gradient-CC", "power-CC"};
    for (double q = 0.0; q <= queue_max_pkts + 0.01; q += queue_step_pkts) {
      ResultTable::Row row;
      row.keys = {Cell(q, 0)};
      row.values = laws(q * pkt, hold_rate_x * p.bandwidth_Bps);
      t.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(t));
  }
  {
    // Fig. 2c: voltage cannot tell case-2 from case-3, current cannot
    // tell case-1 from case-3; power separates all three.
    ResultTable t;
    t.title = "Fig. 2c: three scenarios (voltage 3.24/2.12/2.12, current "
              "9/1/9; only power separates all three)";
    t.slug = slug_prefix + "_three_cases";
    t.key_columns = {"scenario"};
    t.value_columns = {"voltage", "current", "power"};
    const struct {
      const char* desc;
      double q_pkts;
      double rate_x;  // queue buildup in multiples of bandwidth
    } cases[] = {
        {"case-1: q=50 pkts, increasing at 8x", 50, 8},
        {"case-2: q=25 pkts, draining at max rate", 25, 0},
        {"case-3: q=25 pkts, increasing at 8x", 25, 8},
    };
    for (const auto& c : cases) {
      ResultTable::Row row;
      row.keys = {Cell(std::string(c.desc))};
      row.values = laws(c.q_pkts * pkt, c.rate_x * p.bandwidth_Bps);
      t.rows.push_back(std::move(row));
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

// ---- shared table builders ----------------------------------------

SweepSpec fct_sweep_spec(const FatTreeExperiment& base, double load,
                         double percentile,
                         const std::vector<SchemeRun>& schemes,
                         const std::string& slug_prefix) {
  SweepSpec sw;
  char title[128];
  std::snprintf(title, sizeof(title),
                "%.0f%% ToR-uplink load, websearch (x%.2f sizes), "
                "p%.1f slowdown per size bucket",
                load * 100, base.size_scale, percentile);
  sw.title = title;
  char slug[64];
  std::snprintf(slug, sizeof(slug), "%s_load%.0f", slug_prefix.c_str(),
                load * 100);
  sw.slug = slug;
  sw.key_columns = {"algorithm"};
  for (const auto& b : stats::paper_size_buckets()) {
    sw.value_columns.push_back(b.label);
  }
  sw.value_columns.insert(sw.value_columns.end(),
                          {"allP50", "drops", "flows", "done%"});
  for (const auto& scheme : schemes) {
    SweepPoint p;
    p.keys = {Cell(scheme.display())};
    p.cfg = base;
    p.cfg.cc = scheme.scheme;
    p.cfg.cc_params = scheme.params;
    p.cfg.uplink_load = load;
    sw.points.push_back(std::move(p));
  }
  const double size_scale = base.size_scale;
  sw.metrics = [size_scale, percentile](const FatTreeExperiment&,
                                        const ExperimentResult& r) {
    std::vector<Cell> row;
    // Buckets are defined on unscaled sizes; rescale the edges.
    std::int64_t lo = 0;
    for (const auto& b : stats::paper_size_buckets()) {
      const auto hi = static_cast<std::int64_t>(
          static_cast<double>(b.upper_bytes) * size_scale);
      const auto s = r.fct.slowdowns_in_range(lo, hi);
      row.push_back(s.count() >= 5 ? Cell(s.percentile(percentile), 2)
                                   : Cell());
      lo = hi;
    }
    const auto all = r.fct.all_slowdowns();
    row.push_back(all.empty() ? Cell() : Cell(all.percentile(50), 2));
    row.push_back(Cell::integer(static_cast<std::int64_t>(r.drops)));
    row.push_back(Cell::integer(static_cast<std::int64_t>(r.flows_started)));
    row.push_back(Cell(r.completion_rate() * 100, 1));
    return row;
  };
  return sw;
}

ResultTable incast_figure_table(const SweepRunner& runner,
                                const IncastScenario& cfg,
                                const std::vector<SchemeRun>& schemes,
                                const std::string& slug_prefix,
                                std::vector<ResultTable>* flight_out) {
  char title[96];
  std::string slug;
  const auto burst_us =
      static_cast<long long>(cfg.burst_at / sim::kPsPerUs);
  if (cfg.query_bytes > 0) {
    std::snprintf(title, sizeof(title),
                  "%d long flows + %d:1 query incast (%lld KB total) "
                  "at t=%lldus",
                  cfg.long_companions, cfg.fan_in,
                  static_cast<long long>(cfg.query_bytes / 1000), burst_us);
    // The query size keeps slugs unique when a config sweeps several
    // query points (CSV rows and the regression gate key on the slug).
    slug = slug_prefix + "_query" +
           std::to_string(cfg.query_bytes / 1000) + "kb";
  } else {
    std::snprintf(title, sizeof(title),
                  "%d:1 incast of long flows at t=%lldus",
                  cfg.long_companions, burst_us);
    slug = slug_prefix + "_" + std::to_string(cfg.long_companions) + "to1";
  }
  return incast_table(runner, cfg, schemes, slug, title, flight_out);
}

// ---- the one figure defined in C++: bench_fig6_fct's --fast/--full ---

RunnerConfig fig6_runner_config(bool fast, bool full) {
  auto sc = std::make_shared<FatTreeKindConfig>();
  sc->slug_prefix = "fig6";
  sc->loads = {0.2, 0.6};
  sc->percentile = 99.0;
  sc->fat_tree.seed = 42;
  sc->fat_tree.duration = sim::milliseconds(20);
  sc->fat_tree.size_scale = 0.1;
  if (fast) sc->fat_tree.duration = sim::milliseconds(8);
  if (full) {
    sc->fat_tree.topo = topo::FatTreeConfig();  // paper scale
    sc->fat_tree.duration = sim::milliseconds(100);
    sc->fat_tree.size_scale = 1.0;
    sc->percentile = 99.9;
  }
  for (const char* name :
       {"powertcp", "theta-powertcp", "hpcc", "dcqcn", "timely", "homa"}) {
    sc->schemes.push_back(SchemeRun{"", name, {}});
  }
  RunnerConfig rc;
  rc.kind = "fat_tree";
  rc.scenario = std::move(sc);
  return rc;
}

}  // namespace powertcp::harness
