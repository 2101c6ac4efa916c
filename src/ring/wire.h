// Wire: one duplex neighbor connection as seen from one host.
//
// The Data Roundabout's transmitter/receiver entities are transport-
// agnostic (the paper swaps RDMA verbs for kernel send/recv in Sec. V-G by
// replacing exactly this layer). A Wire sends messages toward one neighbor
// and receives messages coming back from that neighbor on the reverse
// direction of the same connection:
//
//   out-wire (toward successor):    send = data chunks, arrivals = credits
//   in-wire  (toward predecessor):  send = credits,     arrivals = data
//
// Receive semantics follow RDMA's pre-posted-buffer model for both
// implementations: the caller posts buffers (post_recv), each incoming
// message consumes the oldest posted buffer, and next_arrival() reports
// which buffer (by tag) was filled. A correct credit protocol guarantees a
// posted buffer exists for every arrival; its violation aborts.
#pragma once

#include <cstdint>
#include <span>

#include "common/assert.h"
#include "common/status.h"
#include "common/units.h"
#include "ring/frame.h"
#include "sim/task.h"

namespace cj::ring {

/// A completed inbound message.
struct Arrival {
  /// Tag given at post_recv time (ring-buffer index).
  std::uint64_t tag = 0;
  /// Payload length actually received.
  std::size_t length = 0;
  /// False when the wire failed or was torn down instead of delivering a
  /// message (peer crash, CQ shutdown). Protocols that expected no faults
  /// treat false as a fatal bug; resilient ones wait for repair.
  bool ok = true;
};

class Wire {
 public:
  virtual ~Wire() = default;

  /// Registers a memory area messages will be sent from / received into.
  /// RDMA bills registration cost and pins the region; TCP ignores this.
  /// Must cover every span later passed to send/post_recv. Registering a
  /// range that is already covered is a no-op (ring repair re-prepares
  /// slabs on a replacement wire).
  virtual sim::Task<void> prepare(std::span<std::byte> slab) = 0;

  /// Posts a receive buffer. Arrivals consume posted buffers FIFO.
  virtual sim::Task<void> post_recv(std::uint64_t tag, std::span<std::byte> buffer) = 0;

  /// Awaits the next inbound message.
  virtual sim::Task<Arrival> next_arrival() = 0;

  /// Posts one message — the optional frame `header` (the resilient
  /// framing; the receiver sees it contiguous with `payload` in its posted
  /// buffer) plus `payload` — and returns once the transport has taken it,
  /// without waiting for the message to complete. Several posts may be
  /// outstanding; send_done() reports their outcomes in post order. An
  /// error means the wire is broken and nothing was posted, so no
  /// send_done() is owed for it.
  virtual sim::Task<Status> post_send(const FrameHeader* header,
                                      std::span<const std::byte> payload) = 0;

  /// Awaits the outcome of the oldest post_send() not yet collected: ok
  /// when its buffer is safe to reuse (RDMA: send completion; TCP: accepted
  /// into the send window), an error when the wire failed and the message
  /// may not have been delivered.
  virtual sim::Task<Status> send_done() = 0;

  /// Posts one unframed message and awaits its outcome. Concurrent callers
  /// are fine: nothing suspends between a caller's post and its wait, so
  /// each collects its own outcome.
  sim::Task<Status> send(std::span<const std::byte> data) {
    const Status posted = co_await post_send(nullptr, data);
    if (!posted.is_ok()) co_return posted;
    co_return co_await send_done();
  }

  /// Shuts down the send side after queued data drains.
  virtual void close_send() = 0;

  /// Shuts down the receive side once every expected arrival has been
  /// consumed (stops internal pump processes; pollers blocked in
  /// next_arrival observe ok=false).
  virtual void close_recv() {}

  /// Hard-fails the wire (simulated endpoint death): pending and future
  /// operations complete with errors on both this wire and, through the
  /// transport, its peer. Only wires that participate in fault injection
  /// implement this.
  virtual void fail() { CJ_CHECK_MSG(false, "this transport cannot fail"); }
};

}  // namespace cj::ring
