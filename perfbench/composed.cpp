#include "composed.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "cc/mix.hpp"
#include "cc/registry.hpp"
#include "harness/burst.hpp"
#include "host/host.hpp"
#include "net/switch_node.hpp"
#include "sim/rng.hpp"
#include "topo/partition.hpp"

namespace perfbench {

namespace cc = powertcp::cc;
namespace harness = powertcp::harness;
namespace host = powertcp::host;
namespace net = powertcp::net;
namespace sim = powertcp::sim;
namespace stats = powertcp::stats;
namespace topo = powertcp::topo;
namespace workload = powertcp::workload;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Forwards every call to the flow's real algorithm; times on_ack and
/// counts on_ack / on_timeout into its shard's tally.
class TimedCc final : public cc::CcAlgorithm {
 public:
  TimedCc(std::unique_ptr<cc::CcAlgorithm> inner, ShardTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  cc::CcDecision initial() const override { return inner_->initial(); }

  cc::CcDecision on_ack(const cc::AckContext& ctx) override {
    const auto t0 = Clock::now();
    const cc::CcDecision d = inner_->on_ack(ctx);
    tally_->ack_ns += elapsed_ns(t0);
    ++tally_->acks;
    return d;
  }

  void on_timeout() override {
    ++tally_->timeouts;
    inner_->on_timeout();
  }

  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cc::CcAlgorithm> inner_;
  ShardTally* tally_;
};

std::unique_ptr<cc::CcAlgorithm> maybe_timed(
    std::unique_ptr<cc::CcAlgorithm> algo, bool traced, ShardTally* tally) {
  if (!traced) return algo;
  return std::make_unique<TimedCc>(std::move(algo), tally);
}

/// Records into `fct`, timed into `tally` when traced.
void record(stats::FctRecorder& fct, const stats::FlowRecord& rec,
            bool traced, ShardTally& tally) {
  if (!traced) {
    fct.record(rec);
    return;
  }
  const auto t0 = Clock::now();
  fct.record(rec);
  tally.record_ns += elapsed_ns(t0);
  ++tally.records;
}

void add_tallies(const std::vector<ShardTally>& tallies, LayerStats& out) {
  for (const ShardTally& t : tallies) {
    out.cc_on_ack_calls += t.acks;
    out.cc_on_timeout_calls += t.timeouts;
    out.cc_on_ack_s += static_cast<double>(t.ack_ns) * 1e-9;
    out.stats_record_calls += t.records;
    out.stats_record_s += static_cast<double>(t.record_ns) * 1e-9;
  }
}

/// Σ per-port counters over every node of `network` into `out`.
void count_ports(net::Network& network, LayerStats& out) {
  for (std::size_t id = 0; id < network.node_count(); ++id) {
    net::Node& node = network.node(static_cast<net::NodeId>(id));
    const bool is_host = dynamic_cast<host::Host*>(&node) != nullptr;
    for (int p = 0; p < node.port_count(); ++p) {
      const net::EgressPort& port = node.port(p);
      out.net_tx_packets += port.tx_packets();
      if (is_host) out.net_host_tx_packets += port.tx_packets();
      out.net_drops += port.drops();
      out.net_ecn_marks += port.ecn_marks();
    }
  }
}

/// The harness's websearch scaling (experiment.cpp), which is internal
/// to that file: sizes × scale, support kept strictly increasing.
workload::FlowSizeDistribution scaled_websearch(double scale) {
  if (scale == 1.0) return workload::FlowSizeDistribution::websearch();
  auto points = workload::FlowSizeDistribution::websearch().points();
  std::int64_t prev = 0;
  for (auto& [bytes, cdf] : points) {
    bytes = static_cast<std::int64_t>(static_cast<double>(bytes) * scale);
    bytes = std::max(bytes, prev + 1);
    prev = bytes;
  }
  return workload::FlowSizeDistribution(std::move(points), /*min_bytes=*/100);
}

}  // namespace

void LayerStats::add(const LayerStats& o) {
  sim_events += o.sim_events;
  net_tx_packets += o.net_tx_packets;
  net_host_tx_packets += o.net_host_tx_packets;
  net_drops += o.net_drops;
  net_ecn_marks += o.net_ecn_marks;
  cc_on_ack_calls += o.cc_on_ack_calls;
  cc_on_timeout_calls += o.cc_on_timeout_calls;
  workload_flows += o.workload_flows;
  flows_completed += o.flows_completed;
  stats_record_calls += o.stats_record_calls;
  shard_windows += o.shard_windows;
  shard_ambiguities += o.shard_ambiguities;
  topo_build_s += o.topo_build_s;
  workload_plan_s += o.workload_plan_s;
  host_start_s += o.host_start_s;
  sim_run_s += o.sim_run_s;
  sim_run_cpu_s += o.sim_run_cpu_s;
  cc_on_ack_s += o.cc_on_ack_s;
  stats_record_s += o.stats_record_s;
  stats_summary_s += o.stats_summary_s;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- fat-tree point -------------------------------------------------

ComposedFatTree::ComposedFatTree(const harness::FatTreeExperiment& cfg,
                                 int threads, bool traced)
    : cfg_(cfg), traced_(traced) {
  if (!cfg_.cc_mix.empty() || cfg_.incast || cfg_.telemetry.enabled) {
    throw std::invalid_argument(
        "composed fat-tree points cover single-scheme websearch runs only "
        "(no cc_mix, incast or telemetry)");
  }
  const cc::Scheme& scheme = cc::Registry::instance().at(cfg_.cc);
  if (scheme.message_transport) {
    throw std::invalid_argument("composed fat-tree points do not cover "
                                "message transports ('" + cfg_.cc + "')");
  }

  // ---- topo: partition plan, engine, network, fabric, routes ----
  auto t0 = Clock::now();
  point_ = std::make_unique<harness::ShardedPoint>(
      topo::fat_tree_shard_plan(cfg_.topo, threads), cfg_.sim_queue);
  net::Network& network = point_->network;
  topo::FatTreeConfig topo_cfg = cfg_.topo;
  topo_cfg.ecn = scheme.needs.ecn;
  topo_cfg.priority_bands = scheme.needs.priority_bands;
  topo_cfg.int_enabled = true;
  fabric_ = std::make_unique<topo::FatTree>(network, topo_cfg);
  harness::apply_burst(cfg_.burst, point_->engine, network);
  tau_ = fabric_->max_base_rtt();
  host_bw_ = topo_cfg.host_bw;
  layers_.topo_build_s = elapsed_s(t0);

  cc::FlowParams params;
  params.host_bw = topo_cfg.host_bw;
  params.base_rtt = tau_;
  params.expected_flows = cfg_.expected_flows;

  // ---- workload: the Poisson websearch plan ----
  t0 = Clock::now();
  sim::Rng rng(cfg_.seed);
  const auto dist = scaled_websearch(cfg_.size_scale);
  workload::PoissonConfig pc;
  pc.load_per_host = fabric_->host_load_for_uplink_load(cfg_.uplink_load);
  pc.host_bw = topo_cfg.host_bw;
  pc.start = 0;
  pc.stop = cfg_.duration;
  pc.n_hosts = fabric_->host_count();
  pc.hosts_per_group = 0;
  plan_ = workload::generate_poisson(pc, dist, rng);
  layers_.workload_plan_s = elapsed_s(t0);
  layers_.workload_flows = plan_.size();

  // ---- host: one start_flow per planned arrival ----
  t0 = Clock::now();
  const auto shards = static_cast<std::size_t>(point_->plan.shards);
  sinks_.resize(shards);
  tallies_.resize(shards);
  cc::ParamMap scheme_params = cfg_.cc_params;
  if (scheme.experiment_defaults) {
    scheme.experiment_defaults(params, scheme_params);
  }
  const cc::FlowCcFactory factory =
      scheme.make(scheme_params, cc::SchemeTopology{});
  net::FlowId next_id = 1;
  for (const auto& arrival : plan_) {
    const net::FlowId id = next_id++;
    const cc::FlowEndpoints endpoints{fabric_->tor_of_host(arrival.src_host),
                                      fabric_->tor_of_host(arrival.dst_host)};
    const auto shard = static_cast<std::size_t>(
        network.shard_of(fabric_->host_node(arrival.src_host)));
    Sink* sink = &sinks_[shard];
    ShardTally* tally = &tallies_[shard];
    fabric_->host(arrival.src_host)
        .start_flow(id, fabric_->host_node(arrival.dst_host),
                    arrival.size_bytes,
                    maybe_timed(factory(params, endpoints), traced_, tally),
                    params, arrival.start,
                    [this, sink, tally](const host::FlowCompletion& c) {
                      stats::FlowRecord rec;
                      rec.flow_id = c.flow;
                      rec.size_bytes = c.size_bytes;
                      rec.start = c.start;
                      rec.finish = c.finish;
                      rec.ideal = tau_ + host_bw_.tx_time(c.size_bytes);
                      record(sink->fct, rec, traced_, *tally);
                      ++sink->completed;
                    });
  }

  // ToR-uplink queue sampling, one self-rescheduling event per shard,
  // exactly as the harness schedules it (it shares the event order).
  shard_uplinks_.resize(shards);
  int rank = 0;
  for (int t = 0; t < fabric_->tor_count(); ++t) {
    const auto s =
        static_cast<std::size_t>(network.shard_of(fabric_->tor(t).id()));
    for (const int p : fabric_->tor_uplink_ports(t)) {
      shard_uplinks_[s].push_back({rank++, &fabric_->tor(t).port(p)});
    }
  }
  if (cfg_.queue_sample_every > 0) {
    for (int s = 0; s < point_->plan.shards; ++s) {
      const auto& ports = shard_uplinks_[static_cast<std::size_t>(s)];
      if (ports.empty()) continue;
      sim::Simulator* ssim = &point_->engine.shard(s);
      auto sampler = std::make_unique<Sampler>();
      Sampler* self = sampler.get();
      self->fn = [this, self, ssim, &ports] {
        for (const RankedPort& rp : ports) {
          self->out.push_back({self->tick, rp.rank,
                               static_cast<double>(rp.port->queue_bytes())});
        }
        ++self->tick;
        if (ssim->now() < cfg_.duration) {
          ssim->schedule_in(cfg_.queue_sample_every, self->fn);
        }
      };
      ssim->schedule_at(0, self->fn);
      samplers_.push_back(std::move(sampler));
    }
  }
  layers_.host_start_s = elapsed_s(t0);
}

ComposedFatTree::~ComposedFatTree() = default;

ComposedFatTree::Outcome ComposedFatTree::run(
    const harness::SweepSpec& spec) {
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  point_->engine.run_until(cfg_.duration + sim::milliseconds(20));
  layers_.sim_run_s = elapsed_s(t0);
  layers_.sim_run_cpu_s = process_cpu_s() - cpu0;

  Outcome out;
  harness::ExperimentResult& result = out.result;
  result.tau = tau_;
  result.flows_started = plan_.size();
  if (sinks_.size() == 1) {
    result.fct = std::move(sinks_[0].fct);
    result.flows_completed = sinks_[0].completed;
  } else {
    std::vector<stats::FlowRecord> all;
    for (auto& s : sinks_) {
      result.flows_completed += s.completed;
      all.insert(all.end(), s.fct.flows().begin(), s.fct.flows().end());
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const stats::FlowRecord& a,
                        const stats::FlowRecord& b) {
                       return std::tie(a.finish, a.flow_id) <
                              std::tie(b.finish, b.flow_id);
                     });
    for (const auto& r : all) result.fct.record(r);
  }
  std::vector<UplinkSample> merged;
  for (const auto& s : samplers_) {
    merged.insert(merged.end(), s->out.begin(), s->out.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const UplinkSample& a, const UplinkSample& b) {
                     return std::tie(a.tick, a.rank) <
                            std::tie(b.tick, b.rank);
                   });
  for (const auto& s : merged) result.uplink_queue_bytes.add(s.value);
  result.drops = fabric_->total_drops();

  const auto t1 = Clock::now();
  out.row = spec.metrics(cfg_, result);
  layers_.stats_summary_s = elapsed_s(t1);

  layers_.sim_events = point_->engine.events_executed();
  layers_.shard_windows = point_->engine.windows();
  layers_.shard_ambiguities = point_->engine.boundary_ambiguities();
  layers_.flows_completed = result.flows_completed;
  count_ports(point_->network, layers_);
  add_tallies(tallies_, layers_);
  return out;
}

// ---- coexistence dumbbell cell --------------------------------------

ComposedDumbbell::ComposedDumbbell(const harness::MixedCcScenario& cfg,
                                   const harness::MixedCcMix& mix,
                                   const std::string& aqm_kind,
                                   double rtt_us, std::int64_t buffer_bytes,
                                   int threads, bool traced)
    : cfg_(cfg), mix_(mix), traced_(traced) {
  if (mix_.members.empty() || mix_.members.size() != mix_.weights.size()) {
    throw std::invalid_argument("malformed mix '" + mix_.display + "'");
  }
  std::vector<const cc::Scheme*> schemes;
  for (const auto& run : mix_.members) {
    schemes.push_back(&cc::Registry::instance().at(run.scheme));
  }

  // ---- topo ----
  auto t0 = Clock::now();
  topo_cfg_ = cfg_.topo;
  topo_cfg_.n_senders = cfg_.senders;
  topo_cfg_.link_delay = sim::from_seconds(rtt_us * 1e-6 / 4.0);
  if (buffer_bytes > 0) topo_cfg_.buffer_bytes = buffer_bytes;
  topo_cfg_.priority_bands = 0;
  topo_cfg_.aqm = cfg_.aqm;
  topo_cfg_.aqm.kind = aqm_kind;
  topo_cfg_.ecn = net::EcnConfig{};
  for (const cc::Scheme* s : schemes) {
    if (s->needs.ecn.enabled) {
      const double gbps = topo_cfg_.bottleneck_bw.gbps_value();
      topo_cfg_.ecn = s->needs.ecn;
      topo_cfg_.ecn.kmin_bytes = static_cast<std::int64_t>(
          static_cast<double>(topo_cfg_.ecn.kmin_bytes) * gbps);
      topo_cfg_.ecn.kmax_bytes = static_cast<std::int64_t>(
          static_cast<double>(topo_cfg_.ecn.kmax_bytes) * gbps);
      break;
    }
  }
  point_ = std::make_unique<harness::ShardedPoint>(
      topo::dumbbell_shard_plan(topo_cfg_, threads), cfg_.sim_queue);
  net::Network& network = point_->network;
  topo_ = std::make_unique<topo::Dumbbell>(network, topo_cfg_);
  harness::apply_burst(cfg_.burst, point_->engine, network);
  layers_.topo_build_s = elapsed_s(t0);

  params_.host_bw = topo_cfg_.host_bw;
  params_.base_rtt = topo_->base_rtt();
  params_.expected_flows = cfg_.senders;

  // ---- workload: one flow per sender, pinned to a mix member ----
  t0 = Clock::now();
  std::vector<cc::FlowCcFactory> factories;
  factories.reserve(mix_.members.size());
  for (std::size_t i = 0; i < mix_.members.size(); ++i) {
    factories.push_back(
        schemes[i]->make(mix_.members[i].params, cc::SchemeTopology{}));
  }
  std::vector<cc::MixMember> mm;
  mm.reserve(mix_.members.size());
  for (std::size_t i = 0; i < mix_.members.size(); ++i) {
    mm.push_back({mix_.members[i].display(), mix_.weights[i]});
  }
  assign_ = cc::mix_assignment(mm, cfg_.senders, cfg_.seed);
  layers_.workload_plan_s = elapsed_s(t0);
  layers_.workload_flows = static_cast<std::uint64_t>(cfg_.senders);

  // ---- host ----
  t0 = Clock::now();
  const auto n = static_cast<std::size_t>(cfg_.senders);
  bytes_.assign(n, 0);
  finish_.assign(n, 0);
  done_.assign(n, 0);
  const auto shards = static_cast<std::size_t>(point_->plan.shards);
  sinks_.resize(shards);
  tallies_.resize(shards);
  topo_->receiver().set_data_callback(
      [this, n](net::FlowId flow, std::int64_t b, sim::TimePs) {
        if (flow >= 1 && static_cast<std::size_t>(flow) <= n) {
          bytes_[static_cast<std::size_t>(flow - 1)] += b;
        }
      });
  const sim::TimePs ideal =
      params_.base_rtt + topo_cfg_.bottleneck_bw.tx_time(cfg_.flow_bytes);
  for (int i = 0; i < cfg_.senders; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const auto shard =
        static_cast<std::size_t>(network.shard_of(topo_->sender(i).id()));
    stats::FctRecorder* sink = &sinks_[shard];
    ShardTally* tally = &tallies_[shard];
    topo_->sender(i).start_flow(
        static_cast<net::FlowId>(i + 1), topo_->receiver_node(),
        cfg_.flow_bytes,
        maybe_timed(factories[static_cast<std::size_t>(assign_[idx])](
                        params_, cc::FlowEndpoints{}),
                    traced_, tally),
        params_, 0,
        [this, idx, sink, tally, ideal](const host::FlowCompletion& c) {
          finish_[idx] = c.finish;
          done_[idx] = 1;
          stats::FlowRecord rec;
          rec.flow_id = c.flow;
          rec.size_bytes = c.size_bytes;
          rec.start = c.start;
          rec.finish = c.finish;
          rec.ideal = ideal;
          record(*sink, rec, traced_, *tally);
        });
  }
  layers_.host_start_s = elapsed_s(t0);
}

ComposedDumbbell::~ComposedDumbbell() = default;

harness::MixedCcCellResult ComposedDumbbell::run() {
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  point_->engine.run_until(cfg_.horizon);
  layers_.sim_run_s = elapsed_s(t0);
  layers_.sim_run_cpu_s = process_cpu_s() - cpu0;

  // The cell summary, computed exactly as run_mixed_cc_cell does it.
  const auto t1 = Clock::now();
  const auto n = static_cast<std::size_t>(cfg_.senders);
  const double horizon_s = sim::to_seconds(cfg_.horizon);
  std::vector<double> rate_gbps(n, 0);
  double sum = 0, sum_sq = 0;
  std::int64_t total_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double active_s =
        done_[i] ? sim::to_seconds(finish_[i]) : horizon_s;
    rate_gbps[i] = active_s > 0 ? static_cast<double>(bytes_[i]) * 8.0 /
                                      active_s / 1e9
                                : 0.0;
    sum += rate_gbps[i];
    sum_sq += rate_gbps[i] * rate_gbps[i];
    total_bytes += bytes_[i];
  }
  harness::MixedCcCellResult cell;
  if (sum_sq > 0) cell.jain = sum * sum / (static_cast<double>(n) * sum_sq);
  cell.agg_gbps = static_cast<double>(total_bytes) * 8.0 / horizon_s / 1e9;
  cell.drops = topo_->bottleneck_switch().total_drops();
  cell.ecn_marks = topo_->bottleneck_port().ecn_marks();
  const double ideal_s = sim::to_seconds(
      params_.base_rtt + topo_cfg_.bottleneck_bw.tx_time(cfg_.flow_bytes));
  cell.members.resize(mix_.members.size());
  int done_total = 0;
  for (std::size_t m = 0; m < mix_.members.size(); ++m) {
    auto& stat = cell.members[m];
    stats::Samples slowdowns;
    std::int64_t member_bytes = 0;
    double member_rate = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<std::size_t>(assign_[i]) != m) continue;
      ++stat.hosts;
      member_bytes += bytes_[i];
      member_rate += rate_gbps[i];
      if (done_[i]) {
        ++stat.done;
        ++done_total;
        slowdowns.add(sim::to_seconds(finish_[i]) / ideal_s);
      }
    }
    if (total_bytes > 0) {
      stat.share_pct = static_cast<double>(member_bytes) /
                       static_cast<double>(total_bytes) * 100.0;
    }
    if (stat.hosts > 0) stat.mean_gbps = member_rate / stat.hosts;
    if (!slowdowns.empty()) {
      stat.p50_slowdown = slowdowns.percentile(50);
      stat.p99_slowdown = slowdowns.percentile(99);
    }
  }
  cell.done_frac =
      static_cast<double>(done_total) / static_cast<double>(cfg_.senders);
  layers_.stats_summary_s = elapsed_s(t1);

  layers_.sim_events = point_->engine.events_executed();
  layers_.shard_windows = point_->engine.windows();
  layers_.shard_ambiguities = point_->engine.boundary_ambiguities();
  layers_.flows_completed = static_cast<std::uint64_t>(done_total);
  count_ports(point_->network, layers_);
  add_tallies(tallies_, layers_);
  return cell;
}

}  // namespace perfbench
