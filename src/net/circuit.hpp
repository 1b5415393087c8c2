#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/egress_port.hpp"
#include "net/node.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

/// \file circuit.hpp
/// The reconfigurable-DCN plane of the §5 case study: an optical circuit
/// switch cycling through a fixed permutation schedule, ToR virtual
/// output queues, and the two ports that drain them (circuit when the
/// matching is up, packet-network uplink otherwise).

namespace powertcp::net {

/// Rotor-style round-robin permutation schedule. In slot k (0-based) ToR
/// i transmits to ToR (i + k + 1) mod N, so every ordered pair is
/// connected exactly once per cycle of N-1 slots ("one week", paper §5).
/// Each slot is `day` of connectivity followed by `night` of
/// reconfiguration during which the circuit carries nothing.
class CircuitSchedule {
 public:
  CircuitSchedule(int n_tors, sim::TimePs day, sim::TimePs night);

  int n_tors() const { return n_tors_; }
  int n_matchings() const { return n_tors_ - 1; }
  sim::TimePs day() const { return day_; }
  sim::TimePs night() const { return night_; }
  sim::TimePs slot_length() const { return day_ + night_; }
  /// Full cycle over all matchings.
  sim::TimePs week_length() const {
    return slot_length() * n_matchings();
  }

  /// Matching slot active (or reconfiguring) at time t.
  int slot_index(sim::TimePs t) const;
  /// True iff t falls in the day portion of its slot.
  bool is_day(sim::TimePs t) const;
  /// End of the day portion of the slot containing t (valid day or night).
  sim::TimePs day_end(sim::TimePs t) const;
  /// Start of the next day strictly after the current day ends (if t is
  /// in a day) or of the upcoming day (if t is in a night).
  sim::TimePs next_day_start(sim::TimePs t) const;

  /// ToR that `tor` can transmit to at time t; -1 during night.
  int active_peer(int tor, sim::TimePs t) const;
  /// ToR that `tor` transmits to during slot k (ignoring day/night).
  int peer_in_slot(int tor, int slot) const;
  /// Earliest day start at or after t in which src transmits to dst.
  sim::TimePs next_connection(int src_tor, int dst_tor, sim::TimePs t) const;

 private:
  int n_tors_;
  sim::TimePs day_;
  sim::TimePs night_;
};

/// Entry point for all inter-rack traffic at an RDCN ToR: enqueues into
/// the shared VOQ set and transmits VOQ[active peer] over the circuit
/// during days, never spilling a serialization past the day boundary.
class CircuitPort final : public EgressPort {
 public:
  CircuitPort(sim::Simulator& simulator, sim::Bandwidth bw,
              sim::TimePs propagation, VoqSet* voqs,
              const CircuitSchedule* schedule, int my_tor);

  std::int64_t queue_bytes() const override { return voqs_->total_bytes(); }
  std::int64_t int_qlen_bytes() const override;

 protected:
  void push_to_queue(PacketPool::Handle h, const Packet& pkt) override {
    voqs_->push(h, pkt);
  }
  SelectResult try_select() override;
  /// Selection follows the circuit schedule, not just the backlog.
  bool finish_always_due() const override { return true; }

 private:
  VoqSet* voqs_;
  const CircuitSchedule* schedule_;
  int my_tor_;
};

/// Packet-network uplink that drains the same VOQ set round-robin,
/// skipping the VOQ currently served by the circuit ("forward
/// exclusively on the circuit network when available", §5).
class VoqUplinkPort final : public EgressPort {
 public:
  VoqUplinkPort(sim::Simulator& simulator, sim::Bandwidth bw,
                sim::TimePs propagation, VoqSet* voqs,
                const CircuitSchedule* schedule, int my_tor);

  std::int64_t queue_bytes() const override { return voqs_->total_bytes(); }

 protected:
  void push_to_queue(PacketPool::Handle h, const Packet& pkt) override {
    voqs_->push(h, pkt);
  }
  SelectResult try_select() override;
  /// Selection skips the circuit-served VOQ, which changes by schedule.
  bool finish_always_due() const override { return true; }

 private:
  VoqSet* voqs_;
  const CircuitSchedule* schedule_;
  int my_tor_;
  int rr_cursor_ = 0;
};

/// The optical switch itself. Passive: a packet entering from ToR i
/// during a day is delivered to the ToR its VOQ classified it for, after
/// the output propagation delay. No queueing, no serialization (the
/// sending ToR's CircuitPort already paid the wire time).
class CircuitSwitchNode final : public Node {
 public:
  CircuitSwitchNode(sim::Simulator& simulator, NodeId id, std::string name,
                    const CircuitSchedule* schedule,
                    std::function<int(NodeId)> tor_of_dst);

  /// Registers the ToR attached as circuit endpoint `tor_index`.
  void attach_tor(int tor_index, Node* tor, int tor_in_port,
                  sim::TimePs out_propagation);

  /// Reschedules the same handle to the destination ToR after the
  /// output propagation delay.
  void receive(PacketPool::Handle h, int in_port) override;

 private:
  struct TorLink {
    Node* tor = nullptr;
    int in_port = -1;
    sim::TimePs propagation = 0;
  };
  sim::Simulator& sim_;
  const CircuitSchedule* schedule_;
  std::function<int(NodeId)> tor_of_dst_;
  std::vector<TorLink> tors_;
};

}  // namespace powertcp::net
