#include "net/egress_port.hpp"

#include <stdexcept>

#include "net/node.hpp"
#include "net/shard_link.hpp"

namespace powertcp::net {

EgressPort::EgressPort(sim::Simulator& simulator, sim::Bandwidth bw,
                       sim::TimePs propagation_delay)
    : sim_(simulator), bandwidth_(bw), propagation_(propagation_delay) {}

EgressPort::~EgressPort() {
  // The pending wakeup and a queued finish both capture `this`; cancel
  // them so destroying a port mid-run (e.g. tearing a topology down)
  // cannot leave a dangling callback in the engine. Deliveries already
  // scheduled capture only their peer: as in the pre-pool engine, nodes
  // must outlive deliveries in flight — don't run the simulator after
  // destroying parts of a network that still has packets airborne.
  if (pending_kick_at_ != sim::kTimeInfinity) sim_.cancel(pending_kick_id_);
  sim_.cancel(finish_event_);
}

void EgressPort::use_pool(PacketPool* pool) {
  if (pool_->live() != 0) {
    throw std::logic_error("EgressPort::use_pool: packets already parked");
  }
  pool_ = pool;
}

void EgressPort::set_shared_buffer(DtSharedBuffer* buf) {
  shared_buffer_ = buf;
  buffer_slot_ = buf != nullptr ? buf->add_port(sim_) : -1;
}

bool EgressPort::enqueue(PacketPool::Handle h) {
  Packet& pkt = pool_->get(h);
  const std::int64_t sz = pkt.wire_bytes();
  if (shared_buffer_ != nullptr &&
      !shared_buffer_->admits(queue_bytes(), sz)) {
    ++drops_;
    pool_->release(h);
    sample_queue();
    return false;
  }
  if (aqm_ != nullptr) {
    // The verdict reads only the pre-enqueue backlog (and the policy's
    // own RNG/controller state), so consulting it before charging the
    // shared buffer is equivalent — and an AQM drop then never has to
    // un-charge the buffer.
    const AqmVerdict v =
        aqm_->on_enqueue(queue_bytes(), pkt.ecn_capable, sim_.now());
    if (v.drop) {
      ++drops_;
      pool_->release(h);
      sample_queue();
      return false;
    }
    if (v.mark) {
      pkt.ecn_marked = true;
      ++ecn_marks_;
    }
  }
  if (shared_buffer_ != nullptr) shared_buffer_->on_enqueue(sz);
  pkt.enqueue_time = sim_.now();
  push_to_queue(h, pkt);
  sample_queue();
  kick();
  return true;
}

void EgressPort::kick() {
  if (busy()) {
    // Still on the wire: the finish must now run to serve what waits.
    schedule_finish();
    return;
  }
  const SelectResult sel = try_select();
  if (sel.pkt.has_value()) {
    if (pending_kick_at_ != sim::kTimeInfinity) {
      sim_.cancel(pending_kick_id_);
      pending_kick_at_ = sim::kTimeInfinity;
    }
    start_tx(*sel.pkt);
    return;
  }
  if (sel.retry_at == sim::kTimeInfinity) return;
  // Deduplicate wakeups: keep only the earliest pending retry.
  if (pending_kick_at_ != sim::kTimeInfinity &&
      pending_kick_at_ <= sel.retry_at) {
    return;
  }
  if (pending_kick_at_ != sim::kTimeInfinity) sim_.cancel(pending_kick_id_);
  pending_kick_at_ = sel.retry_at;
  pending_kick_id_ = sim_.schedule_at(sel.retry_at, [this] {
    pending_kick_at_ = sim::kTimeInfinity;
    kick();
  });
}

void EgressPort::schedule_finish() {
  if (finish_event_.seq == finish_key_.seq) return;
  // At the finish the wire is free (busy() reads the passed key), so
  // the kick serializes the next packet or arms a retry.
  finish_event_ = sim_.schedule_reserved(finish_key_, [this] { kick(); });
}

void EgressPort::start_tx(PacketPool::Handle h) {
  if (tie_token_ == 0) {
    throw std::logic_error(
        "EgressPort: transmitting without a tie token (attach the port "
        "to a node, or set_tie_token a unique nonzero one)");
  }
  Packet& pkt = pool_->get(h);
  // INT is stamped "when the packet is scheduled for transmission"
  // (paper §3.3): queue length is the backlog left behind, txBytes the
  // cumulative count before this packet.
  if (int_enabled_ && (pkt.type == PacketType::kData ||
                       pkt.type == PacketType::kHomaData)) {
    IntHopRecord rec;
    rec.qlen_bytes = int_qlen_bytes();
    rec.tx_bytes = tx_bytes_;
    rec.ts = sim_.now();
    rec.bandwidth_bps = bandwidth_.bps();
    pkt.int_hdr.push(rec);
  }
  if (sojourn_cb_) sojourn_cb_(sim_.now() - pkt.enqueue_time);
  sample_queue();
  const std::int64_t wire = pkt.wire_bytes();
  tx_bytes_ += wire;
  ++tx_packets_;
  // The key an eager finish event would take here; the packet's bytes
  // leave the shared buffer once it has passed.
  const sim::TimePs finish = sim_.now() + bandwidth_.tx_time(wire);
  finish_key_ = sim_.reserve(finish);
  if (shared_buffer_ != nullptr) {
    shared_buffer_->release_at(buffer_slot_, finish_key_, wire);
  }
  // The delivery carries the key the finish would have given it:
  // (finish + propagation, sched = finish, this port's tie token).
  const sim::TimePs arrival = finish + propagation_;
  if (remote_ != nullptr) {
    // EARLY PUBLICATION (lookahead batching): the packet's content is
    // final here — ECN was decided at enqueue, INT stamped above — and
    // so is its delivery key. Publishing at start_tx guarantees every
    // cross-shard delivery lands at least tx_time(min packet) beyond
    // the event that produced it, which is what lets the cut-link
    // weight — and therefore the engine's lookahead windows — include
    // the flit serialization delay on top of propagation (see
    // ShardedSimulator::add_cut_edge and docs/performance.md §6).
    remote_->send(arrival, finish, tie_token_, pool_->take(h));
  } else if (peer_ == nullptr) {
    pool_->release(h);  // no peer: the packet is dropped as it leaves
  } else {
    if (&peer_->pool() != pool_) {
      throw std::logic_error(
          "EgressPort: local delivery to node '" + peer_->name() +
          "' on another packet pool (only a ShardChannel crosses pools)");
    }
    sim_.schedule_reserved(
        sim_.reserve(arrival, finish, tie_token_),
        [peer = peer_, in_port = peer_in_port_, h] {
          peer->receive(h, in_port);
        });
  }
  if (finish_always_due() || queue_bytes() > 0) schedule_finish();
}

void EgressPort::sample_queue() {
  if (queue_monitor_ != nullptr) {
    queue_monitor_->sample(sim_.now(), queue_bytes());
  }
}

BasicPort::BasicPort(sim::Simulator& simulator, sim::Bandwidth bw,
                     sim::TimePs propagation_delay,
                     std::unique_ptr<QueueDiscipline> queue)
    : EgressPort(simulator, bw, propagation_delay), queue_(std::move(queue)) {}

EgressPort::SelectResult BasicPort::try_select() {
  SelectResult out;
  out.pkt = queue_->pop();
  return out;
}

}  // namespace powertcp::net
