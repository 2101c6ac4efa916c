#include "rdma/verbs.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"

namespace cj::rdma {

// ---------------------------------------------------------------- Device

Device::Device(sim::Engine& engine, sim::CorePool& host_cores, DeviceAttr attr,
               std::string name)
    : engine_(engine),
      host_cores_(host_cores),
      attr_(attr),
      name_(std::move(name)),
      pd_(*this) {}

QueuePair& Device::create_qp(CompletionQueue* send_cq, CompletionQueue* recv_cq) {
  CJ_CHECK(send_cq != nullptr && recv_cq != nullptr);
  auto qp = std::unique_ptr<QueuePair>(new QueuePair(*this, send_cq, recv_cq));
  qp->trace_name_ = "qp" + std::to_string(qps_.size());
  qps_.push_back(std::move(qp));
  return *qps_.back();
}

std::uint64_t Device::total_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& qp : qps_) total += qp->retransmissions();
  return total;
}

std::uint64_t Device::total_rnr_retries() const {
  std::uint64_t total = 0;
  for (const auto& qp : qps_) total += qp->rnr_retries();
  return total;
}

// ------------------------------------------------------ ProtectionDomain

sim::Task<MemoryRegion*> ProtectionDomain::register_memory(std::span<std::byte> range) {
  CJ_CHECK_MSG(!range.empty(), "cannot register an empty range");
  const auto pages = static_cast<SimDuration>((range.size() + 4095) / 4096);
  const DeviceAttr& attr = device_.attr();
  const SimDuration cost =
      attr.registration_base_cost + pages * attr.registration_per_page_cost;
  co_await device_.host_cores_.consume(cost, "mr-reg");

  regions_.push_back(
      std::unique_ptr<MemoryRegion>(new MemoryRegion(range, next_lkey_++)));
  registered_bytes_ += range.size();
  co_return regions_.back().get();
}

void ProtectionDomain::deregister(MemoryRegion* mr) {
  for (auto it = regions_.begin(); it != regions_.end(); ++it) {
    if (it->get() == mr) {
      registered_bytes_ -= mr->size();
      regions_.erase(it);
      return;
    }
  }
  CJ_CHECK_MSG(false, "deregister of unknown memory region");
}

MemoryRegion* ProtectionDomain::find_region(const std::byte* ptr,
                                            std::size_t len) const {
  for (const auto& mr : regions_) {
    const std::byte* base = mr->data();
    if (ptr >= base && ptr + len <= base + mr->size()) return mr.get();
  }
  return nullptr;
}

// -------------------------------------------------------------- QueuePair

QueuePair::QueuePair(Device& device, CompletionQueue* send_cq,
                     CompletionQueue* recv_cq)
    : device_(device),
      send_cq_(send_cq),
      recv_cq_(recv_cq),
      send_queue_(std::make_unique<sim::Channel<WorkRequest>>(
          device.engine_, device.attr_.max_send_wr)),
      in_flight_(std::make_unique<sim::Channel<InFlight>>(
          device.engine_, device.attr_.max_send_wr)) {}

void QueuePair::validate(const WorkRequest& wr) const {
  // Header-only messages (resilient retire acks) carry no payload region.
  CJ_CHECK_MSG(wr.mr != nullptr || (wr.length == 0 && wr.opcode == Opcode::kSend),
               "work request without a memory region");
  CJ_CHECK_MSG(wr.mr == nullptr || wr.offset + wr.length <= wr.mr->size(),
               "work request exceeds its memory region");
  CJ_CHECK_MSG(wr.inline_header_len <= wr.inline_header.size(),
               "inline header exceeds its fixed capacity");
  CJ_CHECK_MSG(wr.inline_header_len == 0 || wr.opcode == Opcode::kSend,
               "inline headers are only supported on kSend");
  if (wr.opcode == Opcode::kRdmaWrite || wr.opcode == Opcode::kRdmaRead) {
    CJ_CHECK_MSG(wr.remote_mr != nullptr, "one-sided op without a remote region");
    CJ_CHECK_MSG(wr.remote_offset + wr.length <= wr.remote_mr->size(),
                 "one-sided op exceeds the remote region");
  }
}

Status QueuePair::post_send(const WorkRequest& wr) {
  if (!connected()) return failed_precondition("post_send on unconnected QP");
  if (error_) return failed_precondition("post_send on QP in error state");
  if (closed()) return unavailable("post_send on closed QP");
  CJ_CHECK_MSG(wr.opcode != Opcode::kRecv, "kRecv posted to the send queue");
  validate(wr);
  // Like a real send queue, a work request holds its slot until its
  // completion is generated, also while it is on the wire.
  if (outstanding_sends_ >= device_.attr_.max_send_wr) {
    return resource_exhausted("send queue full");
  }
  CJ_CHECK(send_queue_->try_push(wr));
  ++outstanding_sends_;
  trace_instant("rdma.post",
                static_cast<std::int64_t>(wr.inline_header_len + wr.length));
  return Status::ok();
}

Status QueuePair::post_recv(const WorkRequest& wr) {
  CJ_CHECK_MSG(wr.opcode == Opcode::kSend || wr.opcode == Opcode::kRecv,
               "recv queue takes plain buffers");
  validate(wr);
  if (recv_queue_.size() >= device_.attr_.max_recv_wr) {
    return resource_exhausted("receive queue full");
  }
  WorkRequest recv = wr;
  recv.opcode = Opcode::kRecv;
  recv_queue_.push_back(recv);
  return Status::ok();
}

void QueuePair::close() {
  if (send_queue_ && !send_queue_->closed()) send_queue_->close();
}

void QueuePair::set_error() { error_ = true; }

void QueuePair::deliver_send(const WorkRequest& send_wr,
                             sim::FaultInjector* corruptor, int link_id) {
  // Direct data placement: the RNIC matches the incoming message against
  // the head of the pre-posted receive queue — no receiver CPU involved.
  CJ_CHECK_MSG(!recv_queue_.empty(),
               "receiver not ready: send arrived with no posted receive "
               "(flow-control protocol violated)");
  const std::size_t wire_len = send_wr.inline_header_len + send_wr.length;
  WorkRequest recv = recv_queue_.front();
  recv_queue_.pop_front();
  CJ_CHECK_MSG(recv.length >= wire_len,
               "posted receive buffer smaller than incoming message");

  std::byte* dst = recv.mr->data() + recv.offset;
  if (send_wr.inline_header_len > 0) {
    std::memcpy(dst, send_wr.inline_header.data(), send_wr.inline_header_len);
  }
  if (send_wr.length > 0) {
    std::memcpy(dst + send_wr.inline_header_len,
                send_wr.mr->data() + send_wr.offset, send_wr.length);
  }
  if (corruptor != nullptr) {
    // The sender's injector decided this message arrives damaged; flip
    // bytes in the buffer the receiver will actually read.
    corruptor->corrupt(std::span<std::byte>(dst, wire_len), link_id);
  }
  recv_cq_->push(Completion{recv.wr_id, Opcode::kRecv, wire_len});
  trace_instant("rdma.comp", static_cast<std::int64_t>(wire_len));
}

sim::Task<bool> QueuePair::deliver_with_retry(const InFlight& sent) {
  const WorkRequest& wr = sent.wr;
  const DeviceAttr& attr = device_.attr_;
  const std::size_t wire_len = wr.inline_header_len + wr.length;
  obs::Tracer* const t = device_.engine_.tracer();
  // The span runs from when this send heads the delivery queue until it is
  // placed (or given up): spans of one QP never overlap, even while the
  // sender process already serializes later sends.
  if (t != nullptr) {
    t->begin(device_.engine_.now(), device_.trace_host_, trace_name_,
             "rdma.send", static_cast<std::int64_t>(wire_len));
  }
  if (device_.engine_.now() < sent.arrival) {
    co_await device_.engine_.sleep(sent.arrival - device_.engine_.now());
  }
  SimDuration backoff = attr.retry_backoff_initial;
  for (std::uint32_t attempt = 0;; ++attempt) {
    // A peer in the error state (crashed host, torn-down connection) NAKs
    // immediately: no amount of retrying will get the message placed.
    if (remote_->error_) {
      if (t != nullptr) t->end(device_.engine_.now(), device_.trace_host_, trace_name_);
      co_return false;
    }

    auto verdict = sim::FaultInjector::Verdict::kDeliver;
    if (injector_ != nullptr) {
      verdict = injector_->next_message_verdict(fault_link_id_);
    }
    if (verdict != sim::FaultInjector::Verdict::kDrop) {
      if (!remote_->recv_queue_.empty() || !attr.rnr_retry) {
        // Without rnr_retry, an empty receive queue keeps the historical
        // hard abort inside deliver_send (flow-control bug, not a fault).
        const bool corrupt = verdict == sim::FaultInjector::Verdict::kCorrupt;
        remote_->deliver_send(wr, corrupt ? injector_ : nullptr, fault_link_id_);
        if (t != nullptr) t->end(device_.engine_.now(), device_.trace_host_, trace_name_);
        co_return true;
      }
      ++rnr_retries_;  // RNR NAK: receiver slow, back off and re-send
      trace_instant("rdma.rnr", static_cast<std::int64_t>(wire_len));
    }
    if (attempt >= attr.retry_limit) {
      if (t != nullptr) t->end(device_.engine_.now(), device_.trace_host_, trace_name_);
      co_return false;
    }
    if (verdict == sim::FaultInjector::Verdict::kDrop) ++retransmissions_;
    // The backoff is a nested "rdma.retry" span inside the "rdma.send"
    // span, so a viewer shows each retransmission round in place.
    if (t != nullptr) {
      t->begin(device_.engine_.now(), device_.trace_host_, trace_name_,
               "rdma.retry", attempt);
    }
    co_await device_.engine().sleep(backoff);
    if (t != nullptr) t->end(device_.engine_.now(), device_.trace_host_, trace_name_);
    backoff = std::min(backoff * 2, attr.retry_backoff_cap);
    co_await out_link_->transfer(wire_len, attr.per_wr_nic_overhead);
  }
}

void QueuePair::trace_instant(std::string_view name, std::int64_t arg) {
  if (obs::Tracer* t = device_.engine_.tracer()) {
    t->instant(device_.engine_.now(), device_.trace_host_, trace_name_, name, arg);
  }
}

sim::Task<void> QueuePair::sender_process() {
  // Streams: each work request goes on the wire as soon as the previous one
  // has left it. Propagation, placement and completion happen in
  // delivery_process().
  const SimDuration wr_overhead = device_.attr_.per_wr_nic_overhead;
  while (auto wr = co_await send_queue_->pop()) {
    InFlight sent{*wr};
    if (error_) {
      // Error state: flush without touching the wire, like a real QP
      // transitioning through SQE/ERR (in order, behind earlier sends).
      sent.flushed = true;
    } else {
      // A read request carries no payload out; its data returns on the
      // in-link once the request has arrived.
      std::size_t out_bytes = 0;
      if (wr->opcode == Opcode::kSend) out_bytes = wr->inline_header_len + wr->length;
      if (wr->opcode == Opcode::kRdmaWrite) out_bytes = wr->length;
      co_await out_link_->serialize(out_bytes, wr_overhead);
      sent.arrival = device_.engine_.now() + out_link_->spec().propagation_delay;
    }
    co_await in_flight_->push(std::move(sent));
  }
  in_flight_->close();
}

void QueuePair::complete_send(const Completion& c) {
  --outstanding_sends_;
  send_cq_->push(c);
}

sim::Task<void> QueuePair::delivery_process() {
  const SimDuration wr_overhead = device_.attr_.per_wr_nic_overhead;
  while (auto sent = co_await in_flight_->pop()) {
    const WorkRequest& wr = sent->wr;
    if (sent->flushed || error_) {
      complete_send(Completion{wr.wr_id, wr.opcode, 0, WcStatus::kFlushed});
      continue;
    }
    // A send waits for its arrival inside deliver_with_retry(), under its
    // trace span.
    const SimTime now = device_.engine_.now();
    if (wr.opcode != Opcode::kSend && now < sent->arrival) {
      co_await device_.engine_.sleep(sent->arrival - now);
    }
    switch (wr.opcode) {
      case Opcode::kSend: {
        const std::size_t wire_len = wr.inline_header_len + wr.length;
        if (co_await deliver_with_retry(*sent)) {
          complete_send(Completion{wr.wr_id, Opcode::kSend, wire_len});
        } else {
          error_ = true;
          complete_send(
              Completion{wr.wr_id, Opcode::kSend, 0, WcStatus::kRetryExceeded});
        }
        break;
      }
      case Opcode::kRdmaWrite: {
        std::memcpy(wr.remote_mr->data() + wr.remote_offset,
                    wr.mr->data() + wr.offset, wr.length);
        complete_send(Completion{wr.wr_id, Opcode::kRdmaWrite, wr.length});
        break;
      }
      case Opcode::kRdmaRead: {
        co_await in_link_->transfer(wr.length, wr_overhead);
        std::memcpy(wr.mr->data() + wr.offset,
                    wr.remote_mr->data() + wr.remote_offset, wr.length);
        complete_send(Completion{wr.wr_id, Opcode::kRdmaRead, wr.length});
        break;
      }
      case Opcode::kRecv:
        CJ_CHECK_MSG(false, "kRecv in the send queue");
    }
  }
}

void connect(QueuePair& a, QueuePair& b, net::Link& a_to_b, net::Link& b_to_a) {
  CJ_CHECK_MSG(!a.connected() && !b.connected(), "QP already connected");
  a.remote_ = &b;
  a.out_link_ = &a_to_b;
  a.in_link_ = &b_to_a;
  b.remote_ = &a;
  b.out_link_ = &b_to_a;
  b.in_link_ = &a_to_b;
  for (QueuePair* qp : {&a, &b}) {
    sim::Engine& engine = qp->device_.engine();
    engine.spawn(qp->sender_process(), qp->device_.name() + "/qp-sender");
    engine.spawn(qp->delivery_process(), qp->device_.name() + "/qp-delivery");
  }
}

}  // namespace cj::rdma
