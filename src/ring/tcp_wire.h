// Kernel-TCP implementation of the Wire (the paper's Sec. V-G baseline:
// "we changed the transmitter and receiver of Data Roundabout to use send
// and recv calls instead of their RDMA counterparts").
//
// Messages are framed with a 4-byte length prefix on a byte stream. All
// stack costs are billed to host cores by the underlying TcpConnection, so
// communication competes with join threads for CPU.
#pragma once

#include <array>
#include <memory>

#include "ring/wire.h"
#include "sim/sync.h"
#include "tcpsim/tcp.h"

namespace cj::ring {

class TcpWire final : public Wire {
 public:
  /// `send_conn` carries this wire's outbound messages; `recv_conn` is the
  /// reverse direction of the same neighbor connection.
  TcpWire(sim::Engine& engine, tcpsim::TcpConnection& send_conn,
          tcpsim::TcpConnection& recv_conn, std::size_t max_posted_buffers)
      : engine_(engine),
        send_conn_(send_conn),
        recv_conn_(recv_conn),
        posted_(engine, max_posted_buffers),
        arrivals_(engine, max_posted_buffers),
        send_mutex_(engine, 1) {
    engine_.spawn(rx_pump(), "tcp-wire-rx-pump");
  }

  /// TCP needs no registration.
  sim::Task<void> prepare(std::span<std::byte>) override { co_return; }

  sim::Task<void> post_recv(std::uint64_t tag, std::span<std::byte> buffer) override {
    co_await posted_.push(Posted{tag, buffer});
  }

  sim::Task<Arrival> next_arrival() override {
    auto a = co_await arrivals_.pop();
    CJ_CHECK_MSG(a.has_value(), "tcp wire receive side closed while polling");
    co_return *a;
  }

  /// Completes once the whole message is accepted into the send window,
  /// so send_done() has nothing left to wait for.
  sim::Task<Status> post_send(const FrameHeader* header,
                              std::span<const std::byte> payload) override {
    // Length prefix, header and payload must not interleave with a
    // concurrent send.
    co_await send_mutex_.acquire();
    const std::size_t head_len = header != nullptr ? kFrameBytes : 0;
    std::uint32_t len = static_cast<std::uint32_t>(head_len + payload.size());
    co_await send_conn_.send(
        std::span<const std::byte>(reinterpret_cast<const std::byte*>(&len), 4));
    if (header != nullptr) {
      std::array<std::byte, kFrameBytes> head;
      encode_frame(*header, head.data());
      co_await send_conn_.send(std::span<const std::byte>(head.data(), head.size()));
    }
    if (!payload.empty()) co_await send_conn_.send(payload);
    send_mutex_.release();
    co_return Status::ok();
  }

  sim::Task<Status> send_done() override { co_return Status::ok(); }

  void close_send() override { send_conn_.close(); }
  void close_recv() override {
    if (!posted_.closed()) posted_.close();
  }

 private:
  struct Posted {
    std::uint64_t tag;
    std::span<std::byte> buffer;
  };

  sim::Task<void> rx_pump() {
    // One framed message per posted buffer. The header is read *first*:
    // when the peer closes its send side at a message boundary, the pump
    // exits cleanly even if unused buffers remain posted. The credit
    // protocol guarantees a posted buffer exists for every real message.
    while (true) {
      std::uint32_t len = 0;
      const bool open = co_await recv_conn_.recv_or_eof(
          std::span<std::byte>(reinterpret_cast<std::byte*>(&len), 4));
      if (!open) break;
      auto posted = co_await posted_.pop();
      CJ_CHECK_MSG(posted.has_value(),
                   "message arrived with no posted buffer (flow control bug)");
      CJ_CHECK_MSG(len <= posted->buffer.size(),
                   "incoming tcp message larger than the posted buffer");
      if (len > 0) co_await recv_conn_.recv(posted->buffer.subspan(0, len));
      co_await arrivals_.push(Arrival{posted->tag, len});
    }
  }

  sim::Engine& engine_;
  tcpsim::TcpConnection& send_conn_;
  tcpsim::TcpConnection& recv_conn_;
  sim::Channel<Posted> posted_;
  sim::Channel<Arrival> arrivals_;
  sim::Semaphore send_mutex_;
};

}  // namespace cj::ring
