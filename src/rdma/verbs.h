// A verbs-style RDMA substrate on the simulated fabric.
//
// The API deliberately mirrors ibverbs/iWARP concepts — protection domains,
// registered memory regions, queue pairs, work requests, completion
// queues — because the paper's Data Roundabout is written against exactly
// this model (Chelsio T3 iWARP RNICs). Differences from real hardware:
//
//  * Transfers move data with one memcpy executed by the simulated NIC and
//    are billed to *link* time, never to host CPU — the RDMA zero-copy
//    property (paper Sec. III-B).
//  * Per-work-request NIC processing overhead produces the chunk-size
//    throughput curve of paper Fig. 5 (small messages cannot saturate the
//    wire).
//  * The send side streams: the next work request starts serializing as
//    soon as the previous one has left the wire, so propagation overlaps
//    it. Deliveries and completions still happen in post order, and a
//    dropped send is retransmitted before any later one is placed.
//  * Memory registration bills a base + per-page CPU cost to the host's
//    cores (paper Sec. III-C: registration is expensive, so buffers must be
//    registered once and reused).
//  * Posting to a queue that lacks a matching receive aborts the simulation
//    (receiver-not-ready). Real RNICs drop the connection; in both worlds a
//    correct flow-control protocol must make this unreachable. With
//    `DeviceAttr::rnr_retry` the RNIC instead backs off and retries (RNR
//    NAK semantics), which resilient transports enable under fault
//    injection.
//  * Under an attached FaultInjector, sends can be dropped (recovered by
//    timeout-and-retransmit with capped exponential backoff, up to
//    `retry_limit`) or corrupted in flight; a QP whose retries are
//    exhausted enters an error state and flushes its queue, mirroring how
//    a real RC connection breaks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "net/link.h"
#include "sim/core_pool.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace cj::rdma {

/// Tunable characteristics of the simulated RNIC.
struct DeviceAttr {
  /// RNIC processing time per work request (dominates small-message cost).
  SimDuration per_wr_nic_overhead = 1 * kMicrosecond;
  /// Host-CPU cost to register one memory region (syscall, pinning).
  SimDuration registration_base_cost = 10 * kMicrosecond;
  /// Host-CPU cost per 4 KiB page registered (translation + pin).
  SimDuration registration_per_page_cost = 400;  // ns
  /// Queue depths; exceeding them makes post_send/post_recv fail.
  std::uint32_t max_send_wr = 256;
  std::uint32_t max_recv_wr = 256;
  /// Completion queue capacity; overrunning a CQ puts it into an error
  /// state surfaced to pollers (or aborts, with abort_on_overrun).
  std::uint32_t max_cq_entries = 4096;

  // ----- resilience knobs (only exercised under fault injection) -------
  /// Retransmit attempts for a send the fault injector dropped before the
  /// QP gives up and enters the error state.
  std::uint32_t retry_limit = 7;
  /// First retransmit backoff; doubles per attempt up to the cap.
  SimDuration retry_backoff_initial = 20 * kMicrosecond;
  SimDuration retry_backoff_cap = 1 * kMillisecond;
  /// Treat receiver-not-ready as a transient condition (RNR NAK + retry)
  /// instead of a fatal flow-control violation.
  bool rnr_retry = false;
};

enum class Opcode { kSend, kRecv, kRdmaWrite, kRdmaRead };

class MemoryRegion;

/// A work request: what to transfer from/to which registered region.
struct WorkRequest {
  std::uint64_t wr_id = 0;
  MemoryRegion* mr = nullptr;
  std::size_t offset = 0;
  std::size_t length = 0;
  Opcode opcode = Opcode::kSend;
  /// For kRdmaWrite / kRdmaRead: the target region on the remote host.
  /// The remote side must have shared it out-of-band (rkey exchange).
  MemoryRegion* remote_mr = nullptr;
  std::size_t remote_offset = 0;
  /// Optional inline header prepended to the payload on the wire (kSend
  /// only) — models verbs inline data. The receiver sees header + payload
  /// contiguously in its posted buffer; byte_len covers both.
  std::array<std::byte, 40> inline_header{};
  std::uint32_t inline_header_len = 0;
};

/// Outcome of a work request, modeled on ibv_wc_status.
enum class WcStatus : std::uint8_t {
  kSuccess = 0,
  kRetryExceeded,  ///< transport gave up after retry_limit retransmits
  kFlushed,        ///< QP/CQ torn down with the request still queued
  kCqOverrun,      ///< the CQ overflowed; completions were lost
};

/// Delivered when a work request finishes.
struct Completion {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  std::size_t byte_len = 0;
  WcStatus status = WcStatus::kSuccess;

  bool ok() const { return status == WcStatus::kSuccess; }
};

/// A registered, pinned memory range the RNIC may DMA from/to.
class MemoryRegion {
 public:
  std::span<std::byte> range() const { return range_; }
  std::uint32_t lkey() const { return lkey_; }
  std::byte* data() const { return range_.data(); }
  std::size_t size() const { return range_.size(); }

 private:
  friend class ProtectionDomain;
  MemoryRegion(std::span<std::byte> range, std::uint32_t lkey)
      : range_(range), lkey_(lkey) {}
  std::span<std::byte> range_;
  std::uint32_t lkey_;
};

class Device;

/// Owns memory registrations for one device.
class ProtectionDomain {
 public:
  /// Registers `range` with the RNIC. Bills the registration CPU cost to
  /// the host's cores (tag "mr-reg"). The returned region stays valid until
  /// deregistered or the PD is destroyed; `range` must outlive it.
  sim::Task<MemoryRegion*> register_memory(std::span<std::byte> range);

  /// Releases a registration. The region pointer becomes invalid.
  void deregister(MemoryRegion* mr);

  /// Finds the registered region fully containing [ptr, ptr + len), or
  /// nullptr. Work requests may only reference registered memory.
  MemoryRegion* find_region(const std::byte* ptr, std::size_t len) const;

  std::size_t registered_regions() const { return regions_.size(); }
  std::uint64_t registered_bytes() const { return registered_bytes_; }

 private:
  friend class Device;
  explicit ProtectionDomain(Device& device) : device_(device) {}

  Device& device_;
  std::uint32_t next_lkey_ = 1;
  std::uint64_t registered_bytes_ = 0;
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
};

class CompletionQueue {
 public:
  /// `abort_on_overrun` restores the historical fail-stop behavior for
  /// tests that assert an overrun is unreachable; by default an overrun is
  /// surfaced to pollers as a kCqOverrun error completion.
  CompletionQueue(sim::Engine& engine, std::uint32_t capacity,
                  bool abort_on_overrun = false)
      : queue_(engine, capacity, "cq"), abort_on_overrun_(abort_on_overrun) {}

  /// Awaits the next completion (blocking poll in verbs terms). Once the
  /// CQ has overrun or been shut down, buffered completions drain first,
  /// then every poll returns an error completion (kCqOverrun / kFlushed)
  /// instead of blocking forever on entries that were lost.
  sim::Task<Completion> next() {
    auto c = co_await queue_.pop();
    if (!c.has_value()) {
      Completion err;
      err.status = overrun_ ? WcStatus::kCqOverrun : WcStatus::kFlushed;
      co_return err;
    }
    co_return *c;
  }

  /// Non-blocking poll (nullopt covers both "empty" and "torn down").
  std::optional<Completion> poll() { return queue_.try_pop(); }

  std::size_t depth() const { return queue_.size(); }
  bool overrun() const { return overrun_; }
  bool shut_down() const { return queue_.closed(); }

  /// Tears the CQ down: pending completions still drain, further pushes
  /// are dropped, and pollers then observe kFlushed.
  void shutdown() {
    if (!queue_.closed()) queue_.close();
  }

  void set_name(std::string name) { queue_.set_name(std::move(name)); }

 private:
  friend class QueuePair;
  void push(Completion c) {
    if (queue_.closed()) return;  // torn down: completions are flushed
    if (queue_.try_push(c)) return;
    CJ_CHECK_MSG(!abort_on_overrun_, "completion queue overrun");
    overrun_ = true;
    queue_.close();  // wake pollers; they observe kCqOverrun after draining
  }
  sim::Channel<Completion> queue_;
  bool abort_on_overrun_;
  bool overrun_ = false;
};

/// A connected, reliable queue pair. Created via Device::create_qp and
/// wired to its peer with rdma::connect().
class QueuePair {
 public:
  /// Posts a send-side work request (kSend, kRdmaWrite, kRdmaRead).
  /// Fails with kResourceExhausted when max_send_wr work requests are
  /// outstanding (posted, not yet completed) and with
  /// kFailedPrecondition when the QP is not connected or in error.
  Status post_send(const WorkRequest& wr);

  /// Posts a receive buffer. Fails when the receive queue is full.
  Status post_recv(const WorkRequest& wr);

  /// Closes the send queue; in-flight work completes, then the NIC's sender
  /// process exits. Required for a clean simulation shutdown.
  void close();

  /// Transitions the QP to the error state: the current and all queued
  /// sends complete with kFlushed, and peers that try to reach this QP get
  /// kRetryExceeded. Models a broken RC connection (host crash, admin
  /// teardown).
  void set_error();

  bool connected() const { return remote_ != nullptr; }
  /// Entity name of this QP on its host's trace tracks ("qp0", "qp1", ...).
  const std::string& trace_name() const { return trace_name_; }
  bool in_error() const { return error_; }
  /// True once close() ran: the send queue no longer accepts work. At
  /// teardown a peer's post can legitimately race this (both ends are
  /// stopping); post_send then fails with a status instead of aborting.
  bool closed() const { return send_queue_ == nullptr || send_queue_->closed(); }
  std::size_t recv_queue_depth() const { return recv_queue_.size(); }

  /// Routes this QP's outbound messages through `injector`'s decision
  /// stream for `link_id`. Null detaches.
  void attach_fault_injector(sim::FaultInjector* injector, int link_id) {
    injector_ = injector;
    fault_link_id_ = link_id;
  }

  /// Retransmits performed after injector-dropped deliveries.
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// Backoff-and-retry rounds taken on receiver-not-ready (rnr_retry mode).
  std::uint64_t rnr_retries() const { return rnr_retries_; }

 private:
  friend class Device;
  friend void connect(QueuePair& a, QueuePair& b, net::Link& a_to_b,
                      net::Link& b_to_a);

  QueuePair(Device& device, CompletionQueue* send_cq, CompletionQueue* recv_cq);

  /// A work request the sender process has put on the wire (or flushed
  /// untouched, once the QP is in error), waiting for its far-end effect.
  struct InFlight {
    WorkRequest wr;
    SimTime arrival = 0;  ///< when the first copy reaches the peer
    bool flushed = false;
  };

  void validate(const WorkRequest& wr) const;
  sim::Task<void> sender_process();
  sim::Task<void> delivery_process();
  /// Frees the work request's send-queue slot and reports its completion.
  void complete_send(const Completion& c);
  sim::Task<bool> deliver_with_retry(const InFlight& sent);
  void deliver_send(const WorkRequest& send_wr, sim::FaultInjector* corruptor,
                    int link_id);
  void trace_instant(std::string_view name, std::int64_t arg);

  Device& device_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  QueuePair* remote_ = nullptr;
  net::Link* out_link_ = nullptr;
  net::Link* in_link_ = nullptr;
  std::unique_ptr<sim::Channel<WorkRequest>> send_queue_;
  /// Serialized work requests in post order; delivery_process() places and
  /// completes them one at a time, so none overtakes a retransmission.
  std::unique_ptr<sim::Channel<InFlight>> in_flight_;
  /// Posted send-side work requests without a completion yet (queued or on
  /// the wire); post_send() refuses work beyond max_send_wr of them.
  std::uint32_t outstanding_sends_ = 0;
  std::deque<WorkRequest> recv_queue_;
  sim::FaultInjector* injector_ = nullptr;
  int fault_link_id_ = -1;
  std::string trace_name_;
  bool error_ = false;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t rnr_retries_ = 0;
};

/// One simulated RNIC, attached to one host's core pool.
class Device {
 public:
  Device(sim::Engine& engine, sim::CorePool& host_cores, DeviceAttr attr,
         std::string name);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  ProtectionDomain& pd() { return pd_; }
  const DeviceAttr& attr() const { return attr_; }
  const std::string& name() const { return name_; }
  sim::Engine& engine() { return engine_; }
  sim::CorePool& host_cores() { return host_cores_; }

  /// Creates a queue pair completing into the given CQs (may be shared).
  QueuePair& create_qp(CompletionQueue* send_cq, CompletionQueue* recv_cq);

  /// Fault-report aggregates over all of this device's queue pairs.
  std::uint64_t total_retransmissions() const;
  std::uint64_t total_rnr_retries() const;

  /// Host id stamped on this device's trace events (Chrome pid).
  void set_trace_host(int host) { trace_host_ = host; }
  int trace_host() const { return trace_host_; }

 private:
  friend class ProtectionDomain;
  friend class QueuePair;

  sim::Engine& engine_;
  sim::CorePool& host_cores_;
  DeviceAttr attr_;
  std::string name_;
  int trace_host_ = 0;
  ProtectionDomain pd_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
};

/// Wires two queue pairs together over a pair of directed links and starts
/// their NIC sender and delivery processes. Both QPs transition to
/// "connected".
void connect(QueuePair& a, QueuePair& b, net::Link& a_to_b, net::Link& b_to_a);

}  // namespace cj::rdma
