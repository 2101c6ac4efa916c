#include "cyclo/cluster.h"

#include <tuple>

namespace cj::cyclo {

Cluster::Cluster(sim::Engine& engine, const ClusterConfig& config)
    : engine_(engine),
      config_(config),
      fabric_(engine, config.num_hosts, config.link) {
  CJ_CHECK(config_.num_hosts >= 1);

  CJ_CHECK_MSG(config_.per_host_cpu_scale.empty() ||
                   config_.per_host_cpu_scale.size() ==
                       static_cast<std::size_t>(config_.num_hosts),
               "per_host_cpu_scale must be empty or have one entry per host");
  if (!config_.fault.empty()) {
    CJ_CHECK_MSG(config_.transport == Transport::kRdma,
                 "fault injection requires the RDMA transport");
    injector_ = std::make_unique<sim::FaultInjector>(engine, config_.fault);
    // Under faults, receiver-not-ready is a transient condition (a repair
    // can leave a message racing a re-posted buffer), not a protocol bug.
    config_.rdma_attr.rnr_retry = true;
  }
  for (int i = 0; i < config_.num_hosts; ++i) {
    auto host = std::make_unique<Host>();
    const double host_scale =
        config_.per_host_cpu_scale.empty()
            ? 1.0
            : config_.per_host_cpu_scale[static_cast<std::size_t>(i)];
    host->cores = std::make_unique<sim::CorePool>(
        engine, config_.cores_per_host, config_.context_switch_cost,
        config_.cpu_scale * host_scale);
    host->cores->set_trace_host(i);
    if (injector_ != nullptr) injector_->arm_slowdowns(i, *host->cores);
    if (config_.transport == Transport::kRdma) {
      host->device = std::make_unique<rdma::Device>(
          engine, *host->cores, config_.rdma_attr, "rnic" + std::to_string(i));
      host->device->set_trace_host(i);
    }
    hosts_.push_back(std::move(host));
  }

  if (config_.num_hosts > 1) {
    if (config_.transport == Transport::kRdma) {
      wire_rdma();
    } else {
      wire_tcp(engine);
    }
  }

  ring::NodeConfig node_cfg = config_.node;
  // Over TCP the kernel's window provides the backpressure; explicit
  // credits are an RDMA necessity (paper's TCP baseline is plain send/recv).
  node_cfg.use_credits = config_.transport == Transport::kRdma;
  node_cfg.resilience.enabled = injector_ != nullptr && config_.num_hosts > 1;
  node_cfg.resilience.num_hosts = config_.num_hosts;
  for (int i = 0; i < config_.num_hosts; ++i) {
    Host& host = *hosts_[static_cast<std::size_t>(i)];
    node_cfg.resilience.host_id = i;
    node_cfg.trace_host = i;
    host.node = std::make_unique<ring::RoundaboutNode>(
        engine, *host.cores, host.in_wire.get(), host.out_wire.get(), node_cfg);
  }
}

std::pair<std::unique_ptr<ring::Wire>, std::unique_ptr<ring::Wire>>
Cluster::connect_rdma(Host& a, Host& b, net::Link& forward,
                      net::Link& backward, int link_id) {
  auto make_cq = [this](Host& h) -> rdma::CompletionQueue& {
    h.cqs.push_back(std::make_unique<rdma::CompletionQueue>(
        engine_, h.device->attr().max_cq_entries));
    return *h.cqs.back();
  };
  rdma::CompletionQueue& a_scq = make_cq(a);
  rdma::CompletionQueue& a_rcq = make_cq(a);
  rdma::CompletionQueue& b_scq = make_cq(b);
  rdma::CompletionQueue& b_rcq = make_cq(b);
  rdma::QueuePair& qp_a = a.device->create_qp(&a_scq, &a_rcq);
  rdma::QueuePair& qp_b = b.device->create_qp(&b_scq, &b_rcq);
  // Endpoint a transmits on the data direction; b's transmissions
  // (credits) ride the reverse direction.
  rdma::connect(qp_a, qp_b, forward, backward);
  if (injector_ != nullptr && link_id >= 0) {
    // Link ids: the data direction of edge i is link i, the credit
    // direction is link n + i (fault plans usually target the data side).
    qp_a.attach_fault_injector(injector_.get(), link_id);
    qp_b.attach_fault_injector(injector_.get(), config_.num_hosts + link_id);
  }
  return {std::make_unique<ring::RdmaWire>(*a.device, qp_a, a_scq, a_rcq,
                                           config_.rdma_wire),
          std::make_unique<ring::RdmaWire>(*b.device, qp_b, b_scq, b_rcq,
                                           config_.rdma_wire)};
}

void Cluster::wire_rdma() {
  for (int i = 0; i < config_.num_hosts; ++i) {
    const int succ = fabric_.successor(i);
    Host& a = *hosts_[static_cast<std::size_t>(i)];     // sends data i -> succ
    Host& b = *hosts_[static_cast<std::size_t>(succ)];  // sends credits back
    std::tie(a.out_wire, b.in_wire) = connect_rdma(
        a, b, fabric_.data_link(i), fabric_.control_link(succ), i);
  }
}

sim::Task<void> Cluster::splice_around(int dead) {
  CJ_CHECK_MSG(config_.transport == Transport::kRdma,
               "ring repair is only implemented for the RDMA transport");
  CJ_CHECK_MSG(config_.num_hosts >= 3, "ring repair needs at least three hosts");
  const int pred = fabric_.predecessor(dead);
  const int succ = fabric_.successor(dead);
  Host& p = *hosts_[static_cast<std::size_t>(pred)];
  Host& s = *hosts_[static_cast<std::size_t>(succ)];

  auto repair = std::make_unique<RepairPlumbing>();
  repair->link = std::make_unique<net::DuplexLink>(
      engine_, config_.link,
      "repair[" + std::to_string(pred) + "->" + std::to_string(succ) + "]");
  // The replacement link carries no injected faults (link id -1): a flaky
  // repair path would just re-trigger recovery.
  std::tie(repair->pred_out, repair->succ_in) = connect_rdma(
      p, s, repair->link->forward, repair->link->backward, /*link_id=*/-1);

  if (obs::Tracer* t = engine_.tracer()) {
    t->instant(engine_.now(), obs::kGlobalHost, "fault", "fault.splice", dead);
  }

  // Inbound side first: the successor reports how many receive buffers it
  // re-posted, which is exactly the predecessor's opening credit balance.
  const int credits = co_await s.node->splice_in(repair->succ_in.get());
  co_await p.node->splice_out(repair->pred_out.get(), credits);
  repairs_.push_back(std::move(repair));
}

void Cluster::wire_tcp(sim::Engine& engine) {
  const int n = config_.num_hosts;
  tcp_plumbing_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int succ = fabric_.successor(i);
    Host& a = *hosts_[static_cast<std::size_t>(i)];
    Host& b = *hosts_[static_cast<std::size_t>(succ)];

    auto& plumbing = tcp_plumbing_[static_cast<std::size_t>(i)];
    plumbing.data = std::make_unique<tcpsim::TcpConnection>(
        engine, *a.cores, *b.cores, fabric_.data_link(i), config_.tcp);
    plumbing.credit = std::make_unique<tcpsim::TcpConnection>(
        engine, *b.cores, *a.cores, fabric_.control_link(succ), config_.tcp);

    const auto posted = static_cast<std::size_t>(config_.node.num_buffers);
    a.out_wire = std::make_unique<ring::TcpWire>(engine, *plumbing.data,
                                                 *plumbing.credit, posted);
    b.in_wire = std::make_unique<ring::TcpWire>(engine, *plumbing.credit,
                                                *plumbing.data, posted);
  }
}

}  // namespace cj::cyclo
