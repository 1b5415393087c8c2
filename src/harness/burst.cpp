#include "harness/burst.hpp"

#include "host/host.hpp"
#include "net/network.hpp"

namespace powertcp::harness {

BurstConfig load_burst_config(const ConfigFile& file) {
  BurstConfig cfg;
  const ConfigFile::Section* sec = file.find("burst");
  if (sec == nullptr) return cfg;
  SectionView v(file, sec);
  const double us = v.get_double("ack_agg_us", 0);
  if (us < 0 || us > 1e6) {
    throw ConfigError(file.origin() +
                      ": [burst] ack_agg_us must be in [0, 1000000]");
  }
  cfg.ack_agg = sim::from_seconds(us * 1e-6);
  cfg.pacing_quantum = static_cast<std::int32_t>(
      v.get_int("pacing_quantum", cfg.pacing_quantum));
  if (cfg.pacing_quantum < 1 || cfg.pacing_quantum > 1'000'000) {
    throw ConfigError(file.origin() +
                      ": [burst] pacing_quantum must be in [1, 1000000]");
  }
  v.finish();
  return cfg;
}

void apply_burst(const BurstConfig& cfg, sim::ShardedSimulator& /*engine*/,
                 net::Network& network) {
  if (cfg.ack_agg <= 0 && cfg.pacing_quantum <= 1) return;
  for (net::NodeId id = 0; id < network.next_node_id(); ++id) {
    auto* h = dynamic_cast<host::Host*>(&network.node(id));
    if (h == nullptr) continue;
    if (cfg.ack_agg > 0) h->set_ack_agg_window(cfg.ack_agg);
    if (cfg.pacing_quantum > 1) {
      host::FlowSenderConfig scfg = h->sender_config();
      scfg.pacing_quantum = cfg.pacing_quantum;
      h->set_sender_config(scfg);
    }
  }
}

}  // namespace powertcp::harness
