#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cc/cc_algorithm.hpp"
#include "host/flow.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

/// \file host.hpp
/// End host: one NIC, window/pacing senders (PowerTCP and friends), a
/// per-packet-acking receiver, and optionally the receiver-driven
/// (HOMA-like) message transport.

namespace powertcp::host {

class HomaTransport;

/// Invoked on every data payload delivered to this host (goodput hook).
using DataCallback =
    std::function<void(net::FlowId, std::int64_t bytes, sim::TimePs now)>;

class Host final : public net::Node {
 public:
  Host(sim::Simulator& simulator, net::NodeId id, std::string name);
  ~Host() override;

  /// The NIC egress port (created by Network::connect; exactly one link
  /// per host).
  net::EgressPort& nic();
  sim::Bandwidth nic_bandwidth() const;

  /// Reads the packet in place and releases its handle: the host is
  /// where a packet's trip through the pool ends.
  void receive(net::PacketPool::Handle h, int in_port) override;

  /// Creates a sender flow; transmission begins at `start_time`. The
  /// flow waits in the host's start list, ordered by the key its start
  /// event would have taken now (Simulator::reserve); only the earliest
  /// start sits in the engine's pending set.
  FlowSender& start_flow(net::FlowId flow, net::NodeId dst,
                         std::int64_t size_bytes,
                         std::unique_ptr<cc::CcAlgorithm> algorithm,
                         const cc::FlowParams& params,
                         sim::TimePs start_time,
                         CompletionCallback on_complete = nullptr);

  /// Attaches the receiver-driven message transport (HOMA baseline).
  HomaTransport& enable_homa(const struct HomaConfig& cfg);
  HomaTransport* homa() { return homa_.get(); }

  void set_data_callback(DataCallback cb) { data_cb_ = std::move(cb); }

  /// Fires the goodput hook for payload delivered outside the standard
  /// receiver path (used by the HOMA transport).
  void notify_payload(net::FlowId flow, std::int64_t bytes) {
    if (data_cb_) data_cb_(flow, bytes, sim_.now());
  }

  sim::Simulator& simulator() { return sim_; }

  /// Looks up a live (started or pending) sender flow. Completed flows
  /// are swept from the table — at paper scale hundreds of thousands of
  /// short flows churn through one host, so per-flow state must retire
  /// with the flow. Returns nullptr after completion.
  FlowSender* sender(net::FlowId flow);

  /// Live per-flow state counts (leak regression tests).
  std::size_t active_senders() const { return senders_.size(); }
  std::size_t active_receivers() const { return receivers_.size(); }

  /// Parks a packet in this host's pool — the one copy on its way
  /// through the network — and enqueues it on the NIC, stamping
  /// src/sent_time.
  void send_packet(net::Packet pkt);

  /// Receiver-side ack aggregation window. 0 (the default) acks every
  /// data packet — the historical, byte-identical behavior. A positive
  /// window defers the ack for in-order progress and sends ONE
  /// cumulative ack when the window expires; any packet that does not
  /// advance the edge (a go-back-N duplicate) or that completes the
  /// flow flushes immediately, so loss recovery and completion see no
  /// added latency. ECN marks on deferred packets are echoed sticky so
  /// aggregation never hides a congestion signal.
  void set_ack_agg_window(sim::TimePs w) { ack_agg_window_ = w; }
  sim::TimePs ack_agg_window() const { return ack_agg_window_; }

  /// Sender knobs (pacing quantum, RTO profile) applied to flows
  /// started after the call.
  void set_sender_config(const FlowSenderConfig& cfg) { sender_cfg_ = cfg; }
  const FlowSenderConfig& sender_config() const { return sender_cfg_; }

  /// Quiet period after a flow's last data packet before its receiver
  /// state retires. Long enough that go-back-N replays (the sender's
  /// RTO racing our acks, with exponential backoff) still find the
  /// state and see identical acks; after retirement the sender-edge
  /// echo in data packets answers stragglers statelessly.
  static constexpr sim::TimePs kReceiverGrace = sim::milliseconds(2);

 private:
  struct ReceiverState {
    std::int64_t expected_seq = 0;
    sim::TimePs last_activity = 0;
    bool retire_armed = false;
    sim::EventId retire_event{};
    /// Ack aggregation: a deferred cumulative ack is pending, its flush
    /// timer is armed, and agg_pkt holds the newest deferred data
    /// packet (the template make_ack echoes — sent_time, INT, sticky
    /// ECN). The Packet lives inline in the map node, so deferral
    /// allocates nothing per packet.
    bool agg_armed = false;
    bool agg_pending = false;
    sim::EventId agg_event{};
    net::Packet agg_pkt;
  };

  /// Queues the start event of the earliest unstarted flow.
  void arm_next_start();
  /// Start event: starts the earliest unstarted flow.
  void start_next_flow();

  void handle_data(net::Packet& pkt);
  void handle_ack(const net::Packet& pkt);
  void retire_receiver(net::FlowId flow);
  void flush_ack(net::FlowId flow);

  sim::Simulator& sim_;
  std::unordered_map<net::FlowId, std::unique_ptr<FlowSender>> senders_;
  std::unordered_map<net::FlowId, ReceiverState> receivers_;
  /// A flow created by start_flow that has not started yet.
  struct UnstartedFlow {
    sim::EventKey key;  ///< its reserved start key
    FlowSender* sender;
  };
  /// Unstarted flows in start-key order from index next_start_ on (the
  /// started prefix is dropped once the list drains); the first one's
  /// start event (start_event_) is the only one queued.
  std::vector<UnstartedFlow> unstarted_;
  std::size_t next_start_ = 0;
  sim::EventId start_event_{};
  std::unique_ptr<HomaTransport> homa_;
  DataCallback data_cb_;
  sim::TimePs ack_agg_window_ = 0;
  FlowSenderConfig sender_cfg_;
};

}  // namespace powertcp::host
