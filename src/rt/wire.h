// Shared-memory wires: the rt backend's transport between host threads.
//
// One ShmLink is a duplex connection between two neighboring hosts that run
// on different OS threads; its two ShmWire endpoints implement ring::Wire,
// so the Data Roundabout entities drive them exactly like the simulated
// RDMA/TCP wires. The receive side keeps RDMA's pre-posted-buffer model:
// post_recv() queues a buffer, each inbound message is copied into the
// oldest posted buffer, and next_arrival() reports the buffer's tag. The
// credit protocol above (ring/node.cpp) guarantees a posted buffer exists
// for every arrival; a message with no buffer posted aborts, same as the
// simulated RNIC.
//
// Concurrency: one mutex per link guards both directions' queues. A send
// completes synchronously — the payload is copied under the lock, so the
// caller's buffer is immediately reusable (RDMA send-completion semantics).
// At most one coroutine per endpoint may be parked in next_arrival(); a
// producer that finds one consumes the message straight into the waiter's
// Arrival slot and wakes it via Engine::post(), the only cross-thread entry
// point a wall-clock engine has.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "ring/wire.h"
#include "sim/engine.h"

namespace cj::rt {

class ShmLink;

class ShmWire final : public ring::Wire {
 public:
  /// The engine that runs this endpoint's consumer coroutines. Must be set
  /// (by the ring builder) before the protocol starts; producers on other
  /// threads use it to wake a parked next_arrival().
  void attach_engine(sim::Engine* engine) { engine_ = engine; }

  sim::Task<void> prepare(std::span<std::byte> slab) override;
  sim::Task<void> post_recv(std::uint64_t tag,
                            std::span<std::byte> buffer) override;
  sim::Task<ring::Arrival> next_arrival() override;
  /// Copies the message into the link under its lock: it is complete on
  /// return, so send_done() has nothing left to wait for.
  sim::Task<Status> post_send(const ring::FrameHeader* header,
                              std::span<const std::byte> payload) override;
  sim::Task<Status> send_done() override;
  void close_send() override;
  void close_recv() override;
  void fail() override;

 private:
  friend class ShmLink;
  ShmWire() = default;

  Status push_message(std::vector<std::byte> bytes);

  ShmLink* link_ = nullptr;
  int side_ = 0;  ///< 0 = endpoint a, 1 = endpoint b
  sim::Engine* engine_ = nullptr;
};

class ShmLink {
 public:
  ShmLink() {
    a_.link_ = this;
    a_.side_ = 0;
    b_.link_ = this;
    b_.side_ = 1;
  }
  ShmLink(const ShmLink&) = delete;
  ShmLink& operator=(const ShmLink&) = delete;

  ShmWire& a() { return a_; }
  ShmWire& b() { return b_; }

  /// Payload bytes ever enqueued from endpoint a toward b (0) or b toward
  /// a (1). Read after the run for wire-volume accounting.
  std::uint64_t bytes_sent(int direction) const;

 private:
  friend class ShmWire;

  /// One direction of the link. All fields are guarded by mu_.
  struct Direction {
    std::deque<std::vector<std::byte>> messages;
    struct Posted {
      std::uint64_t tag;
      std::span<std::byte> buffer;
    };
    std::deque<Posted> posted;
    std::coroutine_handle<> waiter;
    sim::Engine* waiter_engine = nullptr;
    ring::Arrival* waiter_slot = nullptr;
    bool failed = false;
    bool send_closed = false;
    bool recv_closed = false;
    std::uint64_t bytes = 0;
  };

  /// Fills *out from the direction's state if an arrival (or a teardown
  /// ok=false) is deliverable right now. Caller holds mu_.
  static bool try_consume(Direction& d, ring::Arrival* out);

  mutable std::mutex mu_;
  Direction dir_[2];  ///< [0]: a -> b, [1]: b -> a
  ShmWire a_;
  ShmWire b_;
};

}  // namespace cj::rt
