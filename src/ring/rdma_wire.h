// RDMA implementation of the Wire: a thin layer over one queue-pair
// endpoint. Zero additional copies — ring buffers are registered once and
// the RNIC places data straight into them (paper Sec. III-D). Sends stream:
// a post returns as soon as the work request is queued, several may be in
// flight, and their completions are collected in post order.
#pragma once

#include <deque>
#include <memory>

#include "rdma/verbs.h"
#include "ring/wire.h"
#include "sim/core_pool.h"
#include "sim/sync.h"

namespace cj::ring {

struct RdmaWireConfig {
  /// Host CPU cost to post one work request (doorbell + WQE build). Small —
  /// this is precisely what RDMA keeps off the CPU-intensive path. It is
  /// billed to the host's cores but interleaves with the join tasks on them
  /// (CorePool::interleave) instead of waiting for one to finish.
  SimDuration post_cpu_cost = 300;  // ns
};

class RdmaWire final : public Wire {
 public:
  /// `qp` must already be connected. CQs must be dedicated to this wire.
  /// Registrations go to the device's protection domain, so the two wires
  /// of one host share them — each slab is registered (and billed) once.
  RdmaWire(rdma::Device& device, rdma::QueuePair& qp, rdma::CompletionQueue& send_cq,
           rdma::CompletionQueue& recv_cq, RdmaWireConfig config = {})
      : device_(device),
        qp_(qp),
        send_cq_(send_cq),
        recv_cq_(recv_cq),
        config_(config),
        send_mutex_(device.engine(), 1) {}

  sim::Task<void> prepare(std::span<std::byte> slab) override {
    // Idempotent: repair re-prepares slabs on a replacement wire, but the
    // device PD already holds the registration from first bring-up.
    if (device_.pd().find_region(slab.data(), slab.size()) != nullptr) co_return;
    co_await device_.pd().register_memory(slab);
  }

  sim::Task<void> post_recv(std::uint64_t tag, std::span<std::byte> buffer) override {
    rdma::MemoryRegion* mr = locate(buffer.data(), buffer.size());
    co_await device_.host_cores().interleave(config_.post_cpu_cost, "rdma-post");
    rdma::WorkRequest wr;
    wr.wr_id = tag;
    wr.mr = mr;
    wr.offset = static_cast<std::size_t>(buffer.data() - mr->data());
    wr.length = buffer.size();
    const Status status = qp_.post_recv(wr);
    CJ_CHECK_MSG(status.is_ok(), status.to_string().c_str());
  }

  sim::Task<Arrival> next_arrival() override {
    const rdma::Completion c = co_await recv_cq_.next();
    co_return Arrival{c.wr_id, c.byte_len, c.ok()};
  }

  /// Posts under the lock (posts are billed and numbered in order) and
  /// returns without waiting for the completion: several sends may be in
  /// flight, bounded by the caller's credits.
  sim::Task<Status> post_send(const FrameHeader* header,
                              std::span<const std::byte> data) override {
    co_await send_mutex_.acquire();
    rdma::WorkRequest wr;
    wr.wr_id = next_send_id_++;
    wr.opcode = rdma::Opcode::kSend;
    if (!data.empty()) {
      rdma::MemoryRegion* mr = locate(data.data(), data.size());
      wr.mr = mr;
      wr.offset = static_cast<std::size_t>(data.data() - mr->data());
      wr.length = data.size();
    }
    if (header != nullptr) {
      encode_frame(*header, wr.inline_header.data());
      wr.inline_header_len = static_cast<std::uint32_t>(kFrameBytes);
    }
    co_await device_.host_cores().interleave(config_.post_cpu_cost, "rdma-post");
    const Status status = qp_.post_send(wr);
    send_mutex_.release();
    if (!status.is_ok()) {
      // Queue-full is a protocol bug in every mode; only error-state QPs
      // (injected faults) and QPs the peer already closed at teardown
      // surface as a recoverable failure.
      CJ_CHECK_MSG(qp_.in_error() || qp_.closed(), status.to_string().c_str());
      co_return status;
    }
    posted_ids_.push_back(wr.wr_id);
    co_return Status::ok();
  }

  /// The QP completes sends in post order, so the next completion belongs
  /// to the oldest outstanding post.
  sim::Task<Status> send_done() override {
    CJ_CHECK_MSG(!posted_ids_.empty(), "send_done without an outstanding send");
    const rdma::Completion c = co_await send_cq_.next();
    const std::uint64_t expected = posted_ids_.front();
    posted_ids_.pop_front();
    if (!c.ok()) {
      co_return unavailable(c.status == rdma::WcStatus::kRetryExceeded
                                ? "send failed: transport retries exhausted"
                                : "send failed: work request flushed");
    }
    CJ_CHECK_MSG(c.wr_id == expected, "out-of-order send completion");
    co_return Status::ok();
  }

  void close_send() override { qp_.close(); }
  void close_recv() override { recv_cq_.shutdown(); }

  void fail() override {
    // Endpoint death: the QP breaks (peers observe retry-exceeded) and both
    // CQs flush so local pollers unblock with errors.
    qp_.set_error();
    send_cq_.shutdown();
    recv_cq_.shutdown();
  }

 private:
  rdma::MemoryRegion* locate(const std::byte* ptr, std::size_t len) const {
    rdma::MemoryRegion* mr = device_.pd().find_region(ptr, len);
    CJ_CHECK_MSG(mr != nullptr, "buffer not within any registered memory region");
    return mr;
  }

  rdma::Device& device_;
  rdma::QueuePair& qp_;
  rdma::CompletionQueue& send_cq_;
  rdma::CompletionQueue& recv_cq_;
  RdmaWireConfig config_;
  sim::Semaphore send_mutex_;
  std::uint64_t next_send_id_ = 1;
  /// wr_ids of posted sends whose completion send_done() has not yet taken.
  std::deque<std::uint64_t> posted_ids_;
};

}  // namespace cj::ring
