#include "host/host.hpp"

#include <algorithm>
#include <stdexcept>

#include "host/flow.hpp"
#include "host/homa.hpp"
#include "net/egress_port.hpp"

namespace powertcp::host {

Host::Host(sim::Simulator& simulator, net::NodeId id, std::string name)
    : net::Node(id, std::move(name)), sim_(simulator) {}

Host::~Host() {
  // The queued flow start, armed retire and ack-aggregation timers
  // capture `this`.
  sim_.cancel(start_event_);
  for (auto& [flow, rs] : receivers_) {
    if (rs.retire_armed) sim_.cancel(rs.retire_event);
    if (rs.agg_armed) sim_.cancel(rs.agg_event);
  }
}

net::EgressPort& Host::nic() {
  if (port_count() == 0) {
    throw std::logic_error("Host '" + name() + "': NIC not connected");
  }
  return port(0);
}

sim::Bandwidth Host::nic_bandwidth() const {
  if (port_count() == 0) {
    throw std::logic_error("Host '" + name() + "': NIC not connected");
  }
  return port(0).bandwidth();
}

void Host::send_packet(net::Packet pkt) {
  pkt.src = id();
  // Acks echo the acked data packet's sent_time (the RTT measurement);
  // only fresh transmissions get stamped here.
  if (pkt.type != net::PacketType::kAck) pkt.sent_time = sim_.now();
  nic().enqueue(pool().put(pkt));
}

void Host::receive(net::PacketPool::Handle h, int /*in_port*/) {
  // Pool storage never relocates, so `pkt` stays valid while the
  // handlers park replies (acks, grants) in the same pool.
  net::Packet& pkt = pool().get(h);
  switch (pkt.type) {
    case net::PacketType::kData:
      handle_data(pkt);
      break;
    case net::PacketType::kAck:
      handle_ack(pkt);
      break;
    case net::PacketType::kHomaData:
    case net::PacketType::kHomaGrant:
      if (homa_ == nullptr) {
        throw std::logic_error("Host '" + name() +
                               "': HOMA packet but transport not enabled");
      }
      homa_->on_packet(pkt);
      break;
  }
  pool().release(h);
}

void Host::handle_data(net::Packet& pkt) {
  auto it = receivers_.find(pkt.flow);
  if (it == receivers_.end()) {
    // Data packets echo the sender's cumulative received-ack edge in
    // ack_seq. A nonzero edge proves this receiver once produced acks
    // for the flow — so its missing state can only have been retired
    // after completion. Answer the go-back-N retransmission with the
    // full-size ack the retained state would have produced, without
    // resurrecting state. A zero edge proves nothing (e.g. the flow's
    // first packets were dropped): fall through and create state.
    if (pkt.ack_seq > 0 && pkt.message_bytes > 0) {
      send_packet(net::make_ack(pkt, pkt.message_bytes));
      return;
    }
    it = receivers_.emplace(pkt.flow, ReceiverState{}).first;
  }
  ReceiverState& rs = it->second;
  // A completed flow's edge equals its exact size, and every replay of
  // it carries that size in message_bytes. A different size therefore
  // proves a NEW flow reusing the id before the old state retired —
  // without this reset the stale edge would instantly "ack" the whole
  // new flow. (Reusing an id within the grace period with the *same*
  // size is indistinguishable from a replay and stays unsupported;
  // after the grace period any reuse is clean.)
  if (rs.retire_armed && pkt.message_bytes > 0 &&
      pkt.message_bytes != rs.expected_seq) {
    sim_.cancel(rs.retire_event);
    if (rs.agg_armed) sim_.cancel(rs.agg_event);
    rs = ReceiverState{};
  }
  rs.last_activity = sim_.now();
  std::int64_t delivered = 0;
  if (pkt.seq <= rs.expected_seq) {
    const std::int64_t new_edge = pkt.seq + pkt.payload_bytes;
    delivered = std::max<std::int64_t>(0, new_edge - rs.expected_seq);
    rs.expected_seq = std::max(rs.expected_seq, new_edge);
  }
  const bool completing =
      pkt.message_bytes > 0 && rs.expected_seq >= pkt.message_bytes;
  // Complete flows retire after a quiet period rather than immediately:
  // the sender may still replay the flow (its RTO racing our acks), and
  // those replays must see the same acks the retained state produces.
  // The timer never touches the network, so retirement is invisible to
  // packet traces.
  if (completing && !rs.retire_armed) {
    rs.retire_armed = true;
    const net::FlowId flow = pkt.flow;
    rs.retire_event = sim_.schedule_in(
        kReceiverGrace, [this, flow] { retire_receiver(flow); });
  }
  if (delivered > 0 && data_cb_) data_cb_(pkt.flow, delivered, sim_.now());
  // Ack aggregation: defer the ack for plain in-order progress; one
  // cumulative ack goes out when the window closes. Everything else —
  // duplicates/out-of-order (go-back-N needs its dup-ack signal now),
  // completion (the sender is waiting on the final edge) — flushes
  // immediately, and the cumulative edge subsumes the deferred ack.
  if (ack_agg_window_ > 0 && delivered > 0 && !completing) {
    const bool sticky_ecn = rs.agg_pending && rs.agg_pkt.ecn_marked;
    rs.agg_pkt = pkt;  // newest packet: freshest sent_time/INT echo
    if (sticky_ecn) rs.agg_pkt.ecn_marked = true;
    rs.agg_pending = true;
    if (!rs.agg_armed) {
      rs.agg_armed = true;
      const net::FlowId flow = pkt.flow;
      rs.agg_event = sim_.schedule_in(ack_agg_window_,
                                      [this, flow] { flush_ack(flow); });
    }
    return;
  }
  if (rs.agg_armed) {
    sim_.cancel(rs.agg_event);
    rs.agg_armed = false;
  }
  if (rs.agg_pending) {
    if (rs.agg_pkt.ecn_marked) pkt.ecn_marked = true;  // sticky echo
    rs.agg_pending = false;
  }
  // Out-of-order packets (go-back-N) generate duplicate acks here.
  net::Packet ack = net::make_ack(pkt, rs.expected_seq);
  send_packet(std::move(ack));
}

void Host::flush_ack(net::FlowId flow) {
  const auto it = receivers_.find(flow);
  if (it == receivers_.end()) return;
  ReceiverState& rs = it->second;
  rs.agg_armed = false;
  if (!rs.agg_pending) return;
  rs.agg_pending = false;
  send_packet(net::make_ack(rs.agg_pkt, rs.expected_seq));
}

void Host::retire_receiver(net::FlowId flow) {
  const auto it = receivers_.find(flow);
  if (it == receivers_.end()) return;
  ReceiverState& rs = it->second;
  const sim::TimePs quiet_until = rs.last_activity + kReceiverGrace;
  if (sim_.now() < quiet_until) {
    // A replay arrived since arming; wait out a fresh quiet period.
    rs.retire_event = sim_.schedule_at(
        quiet_until, [this, flow] { retire_receiver(flow); });
    return;
  }
  if (rs.agg_armed) sim_.cancel(rs.agg_event);
  receivers_.erase(it);
}

void Host::handle_ack(const net::Packet& pkt) {
  const auto it = senders_.find(pkt.flow);
  if (it == senders_.end()) return;  // flow gone (e.g. post-completion ack)
  FlowSender* sender = it->second.get();
  sender->on_ack(pkt);
  // Deferred sweep: a completed sender erases itself here, after its
  // own on_ack frame has returned. Re-find instead of reusing `it` —
  // the completion callback may have started flows (rehash) or, in
  // principle, reused the id.
  if (sender->complete()) {
    const auto again = senders_.find(pkt.flow);
    if (again != senders_.end() && again->second.get() == sender) {
      senders_.erase(again);
    }
  }
}

FlowSender& Host::start_flow(net::FlowId flow, net::NodeId dst,
                             std::int64_t size_bytes,
                             std::unique_ptr<cc::CcAlgorithm> algorithm,
                             const cc::FlowParams& params,
                             sim::TimePs start_time,
                             CompletionCallback on_complete) {
  // Reserved first, so a start in the past throws before the sender
  // exists.
  const sim::EventKey key = sim_.reserve(start_time);
  auto sender = std::make_unique<FlowSender>(*this, flow, dst, size_bytes,
                                             std::move(algorithm), params,
                                             sender_cfg_);
  FlowSender* raw = sender.get();
  auto [it, inserted] = senders_.emplace(flow, std::move(sender));
  if (!inserted) {
    throw std::invalid_argument("Host::start_flow: duplicate flow id");
  }
  const bool idle = next_start_ == unstarted_.size();
  // Plans are sorted by start time, so a new flow normally goes last.
  if (idle || sim::earlier(unstarted_.back().key, key)) {
    unstarted_.push_back({key, raw});
    if (idle) arm_next_start();
  } else {
    const auto head = unstarted_.begin() +
                      static_cast<std::ptrdiff_t>(next_start_);
    const auto pos = std::upper_bound(
        head, unstarted_.end(), key,
        [](const sim::EventKey& k, const UnstartedFlow& u) {
          return sim::earlier(k, u.key);
        });
    const bool new_head = pos == head;
    unstarted_.insert(pos, {key, raw});
    if (new_head) {
      sim_.cancel(start_event_);
      arm_next_start();
    }
  }
  if (on_complete) {
    // Poll-free completion: the sender records finish_time; we watch the
    // ack path by wrapping via a completion check after each ack would
    // be invasive, so instead wrap the callback through the sender.
    raw->set_completion_callback(std::move(on_complete));
  }
  return *raw;
}

void Host::arm_next_start() {
  start_event_ = sim_.schedule_reserved(unstarted_[next_start_].key,
                                        [this] { start_next_flow(); });
}

void Host::start_next_flow() {
  FlowSender* next = unstarted_[next_start_++].sender;
  if (next_start_ == unstarted_.size()) {
    unstarted_.clear();  // keeps the capacity for later flows
    next_start_ = 0;
  } else {
    // Queue the following start first: the flow's start may itself
    // call start_flow (e.g. from a completion callback).
    arm_next_start();
  }
  next->start();
}

FlowSender* Host::sender(net::FlowId flow) {
  const auto it = senders_.find(flow);
  return it == senders_.end() ? nullptr : it->second.get();
}

HomaTransport& Host::enable_homa(const HomaConfig& cfg) {
  if (homa_ == nullptr) {
    homa_ = std::make_unique<HomaTransport>(*this, cfg);
  }
  return *homa_;
}

}  // namespace powertcp::host
