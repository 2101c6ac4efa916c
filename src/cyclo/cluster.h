// Cluster: builds the simulated Data Roundabout — hosts with core pools,
// RNICs (or kernel-TCP stacks), the ring fabric, and one RoundaboutNode per
// host, all wired together.
#pragma once

#include <memory>
#include <vector>

#include "cyclo/config.h"
#include "net/fabric.h"
#include "rdma/verbs.h"
#include "ring/node.h"
#include "ring/rdma_wire.h"
#include "ring/tcp_wire.h"
#include "sim/core_pool.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "tcpsim/tcp.h"

namespace cj::cyclo {

class Cluster {
 public:
  Cluster(sim::Engine& engine, const ClusterConfig& config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_hosts() const { return config_.num_hosts; }
  const ClusterConfig& config() const { return config_; }

  sim::CorePool& cores(int host) { return *hosts_[static_cast<std::size_t>(host)]->cores; }
  ring::RoundaboutNode& node(int host) { return *hosts_[static_cast<std::size_t>(host)]->node; }
  rdma::Device& device(int host) { return *hosts_[static_cast<std::size_t>(host)]->device; }
  net::RingFabric& fabric() { return fabric_; }

  /// Non-null iff the config carries a fault plan.
  sim::FaultInjector* injector() { return injector_.get(); }

  /// Ring repair after `dead` fail-stopped: builds a fresh duplex link plus
  /// QPs between the dead host's neighbors and splices their nodes onto it
  /// (the survivors' in/out wires are swapped live). RDMA transport only;
  /// supports the single-crash plans the fault framework allows.
  sim::Task<void> splice_around(int dead);

 private:
  struct Host {
    std::unique_ptr<sim::CorePool> cores;
    std::unique_ptr<rdma::Device> device;  // present for RDMA transport
    // Wire endpoints (in = from predecessor, out = to successor).
    std::unique_ptr<ring::Wire> in_wire;
    std::unique_ptr<ring::Wire> out_wire;
    // RDMA plumbing owned here so lifetimes cover the run.
    std::vector<std::unique_ptr<rdma::CompletionQueue>> cqs;
    std::unique_ptr<ring::RoundaboutNode> node;
  };

  struct TcpPlumbing {
    std::unique_ptr<tcpsim::TcpConnection> data;    // i -> i+1
    std::unique_ptr<tcpsim::TcpConnection> credit;  // i+1 -> i
  };

  struct RepairPlumbing {
    std::unique_ptr<net::DuplexLink> link;
    std::unique_ptr<ring::Wire> pred_out;
    std::unique_ptr<ring::Wire> succ_in;
  };

  /// A fresh QP pair carrying data a -> b over `forward` and credits back
  /// over `backward`; returns (a's out wire, b's in wire). A `link_id` >= 0
  /// attaches the fault injector, if any.
  std::pair<std::unique_ptr<ring::Wire>, std::unique_ptr<ring::Wire>>
  connect_rdma(Host& a, Host& b, net::Link& forward, net::Link& backward,
               int link_id);
  void wire_rdma();
  void wire_tcp(sim::Engine& engine);

  sim::Engine& engine_;
  ClusterConfig config_;
  net::RingFabric fabric_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<TcpPlumbing> tcp_plumbing_;
  std::vector<std::unique_ptr<RepairPlumbing>> repairs_;
};

}  // namespace cj::cyclo
