#include "net/switch_node.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

namespace powertcp::net {
namespace {

/// SplitMix64 finalizer: decorrelates ECMP picks across switches so the
/// same flow does not always take the "first" parallel link.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Checked per-Gbps threshold scaling (same guard pattern as the
/// harness size parser): a NaN/negative/overflowing product is a
/// configuration error, not silent UB from an out-of-range
/// double→int64 cast.
std::int64_t scale_ecn_threshold(const char* which, std::int64_t bytes,
                                 double gbps) {
  const double scaled = static_cast<double>(bytes) * gbps;
  if (!std::isfinite(scaled) || scaled < 0 || scaled > 9.0e18) {
    throw std::invalid_argument(
        std::string("Switch::add_port: ecn_per_gbps scaling of ") + which +
        " (" + std::to_string(bytes) + " B/Gbps x " + std::to_string(gbps) +
        " Gbps) is out of range");
  }
  return static_cast<std::int64_t>(scaled);
}

}  // namespace

Switch::Switch(sim::Simulator& simulator, NodeId id, std::string name,
               SwitchConfig cfg)
    : Node(id, std::move(name)),
      sim_(simulator),
      cfg_(cfg),
      buffer_(cfg.buffer_bytes, cfg.dt_alpha) {}

int Switch::add_port(sim::Bandwidth bw, sim::TimePs propagation) {
  std::unique_ptr<QueueDiscipline> q;
  if (cfg_.priority_bands > 0) {
    q = std::make_unique<PriorityQueue>(cfg_.priority_bands);
  } else {
    q = std::make_unique<FifoQueue>();
  }
  auto port = std::make_unique<BasicPort>(sim_, bw, propagation, std::move(q));
  port->set_shared_buffer(&buffer_);
  port->set_int_enabled(cfg_.int_enabled);
  // The default "red" policy is the scheme's ECN marking profile:
  // installed only when that profile is enabled, preserving the
  // AQM-free hot path (and RNG stream) of ECN-less fabrics. The
  // delay-based policies manage the queue whether or not marking is
  // on — they drop — so they are installed unconditionally.
  if (cfg_.ecn.enabled || cfg_.aqm.kind != "red") {
    EcnConfig ecn = cfg_.ecn;
    if (cfg_.ecn.enabled && cfg_.ecn_per_gbps) {
      const double gbps = bw.gbps_value();
      ecn.kmin_bytes = scale_ecn_threshold("kmin_bytes", ecn.kmin_bytes, gbps);
      ecn.kmax_bytes = scale_ecn_threshold("kmax_bytes", ecn.kmax_bytes, gbps);
    }
    // Seed deterministically from (switch id, port index).
    const auto seed = mix64((static_cast<std::uint64_t>(id()) << 16) |
                            static_cast<std::uint64_t>(port_count()));
    port->set_aqm(AqmRegistry::instance().at(cfg_.aqm.kind).make(
        cfg_.aqm, ecn, bw, seed));
  }
  return attach_port(std::move(port));
}

void Switch::set_routes(NodeId dst, std::vector<int> ports) {
  if (ports.empty()) {
    throw std::invalid_argument("Switch::set_routes: empty port set");
  }
  if (dst < 0) {
    throw std::invalid_argument("Switch::set_routes: negative destination " +
                                std::to_string(dst));
  }
  const auto i = static_cast<std::size_t>(dst);
  if (i >= routes_.size()) routes_.resize(i + 1);
  routes_[i] = std::move(ports);
}

const std::vector<int>* Switch::routes_to(NodeId dst) const {
  const auto i = static_cast<std::size_t>(dst);
  if (dst < 0 || i >= routes_.size() || routes_[i].empty()) return nullptr;
  return &routes_[i];
}

std::size_t Switch::ecmp_index(FlowId flow, std::size_t n) const {
  if (n <= 1) return 0;
  return static_cast<std::size_t>(
             mix64(flow ^ (static_cast<std::uint64_t>(id()) * 0xD6E8FEB8ull))) %
         n;
}

void Switch::receive(Packet pkt, int /*in_port*/) {
  const auto* choices = routes_to(pkt.dst);
  if (choices == nullptr) {
    throw std::logic_error("Switch '" + name() + "': no route to node " +
                           std::to_string(pkt.dst));
  }
  const std::size_t pick = ecmp_index(pkt.flow, choices->size());
  port((*choices)[pick]).enqueue(pkt);
}

std::uint64_t Switch::total_drops() const {
  std::uint64_t total = 0;
  for (int i = 0; i < port_count(); ++i) total += port(i).drops();
  return total;
}

}  // namespace powertcp::net
