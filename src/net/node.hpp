#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"

/// \file node.hpp
/// Base class for anything attached to the network graph: hosts,
/// shared-buffer switches, and the optical circuit switch.
///
/// Packets move between nodes by PacketPool handle. A node parks its
/// packets in the pool it is bound to — its engine shard's, shared by
/// every node on that shard (Network::add_node / adopt bind it) — so a
/// packet is parked once, when its host sends it, and the same handle
/// crosses every hop until the destination host releases it. A node
/// built outside a Network keeps a pool of its own. Only a ShardChannel
/// carries a packet from one pool into another.

namespace powertcp::net {

class EgressPort;

class Node {
 public:
  Node(NodeId id, std::string name);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Called when a packet has fully arrived (store-and-forward) on
  /// ingress `in_port` (the index of the local port whose peer sent
  /// it). `h` redeems the packet in pool(); the node either forwards
  /// the handle (enqueues it on one of its ports) or releases it.
  virtual void receive(PacketPool::Handle h, int in_port) = 0;

  /// Takes ownership of an egress port — which from then on parks its
  /// packets in this node's pool — and returns its index.
  int attach_port(std::unique_ptr<EgressPort> port);

  EgressPort& port(int i) { return *ports_.at(static_cast<std::size_t>(i)); }
  const EgressPort& port(int i) const {
    return *ports_.at(static_cast<std::size_t>(i));
  }
  int port_count() const { return static_cast<int>(ports_.size()); }

  /// The pool this node and its egress ports (and any in-node delay,
  /// like the circuit switch's) park packets in. Touched only by the
  /// shard that owns the node.
  PacketPool& pool() { return *pool_; }
  const PacketPool& pool() const { return *pool_; }

  /// Parks this node's packets, and its ports', in `pool` (not owned;
  /// it must outlive the node). Network binds every node to its
  /// shard's pool. Throws std::logic_error if packets are parked.
  void bind_pool(PacketPool* pool);

 private:
  NodeId id_;
  std::string name_;
  PacketPool own_pool_;
  PacketPool* pool_ = &own_pool_;
  std::vector<std::unique_ptr<EgressPort>> ports_;
};

}  // namespace powertcp::net
