#include "rt/wire.h"

#include <cstring>
#include <utility>

#include "common/assert.h"

namespace cj::rt {

std::uint64_t ShmLink::bytes_sent(int direction) const {
  CJ_CHECK(direction == 0 || direction == 1);
  std::lock_guard<std::mutex> lk(mu_);
  return dir_[direction].bytes;
}

bool ShmLink::try_consume(Direction& d, ring::Arrival* out) {
  if (d.failed || d.recv_closed) {
    *out = ring::Arrival{0, 0, false};
    return true;
  }
  if (d.messages.empty()) {
    if (d.send_closed) {
      // The only producer of this direction hung up: no message will ever
      // come, so a poller gets the teardown signal instead of parking.
      *out = ring::Arrival{0, 0, false};
      return true;
    }
    return false;
  }
  CJ_CHECK_MSG(!d.posted.empty(),
               "arrival with no posted receive buffer (credit protocol "
               "violation)");
  const Direction::Posted slot = d.posted.front();
  const std::vector<std::byte>& msg = d.messages.front();
  CJ_CHECK_MSG(msg.size() <= slot.buffer.size(),
               "message larger than its posted buffer");
  if (!msg.empty()) std::memcpy(slot.buffer.data(), msg.data(), msg.size());
  *out = ring::Arrival{slot.tag, msg.size(), true};
  d.posted.pop_front();
  d.messages.pop_front();
  return true;
}

sim::Task<void> ShmWire::prepare(std::span<std::byte> slab) {
  // Nothing to register: both endpoints live in one address space.
  (void)slab;
  co_return;
}

sim::Task<void> ShmWire::post_recv(std::uint64_t tag,
                                   std::span<std::byte> buffer) {
  {
    std::lock_guard<std::mutex> lk(link_->mu_);
    ShmLink::Direction& d = link_->dir_[1 - side_];
    if (!d.failed && !d.recv_closed) {
      d.posted.push_back(ShmLink::Direction::Posted{tag, buffer});
    }
  }
  co_return;
}

sim::Task<ring::Arrival> ShmWire::next_arrival() {
  ring::Arrival out;
  struct Awaiter {
    ShmWire* wire;
    ring::Arrival* out;
    bool await_ready() { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      // Consume-or-park must be one atomic step: checking first and parking
      // later would let a producer slip a message (and find no waiter)
      // between the two.
      std::lock_guard<std::mutex> lk(wire->link_->mu_);
      ShmLink::Direction& d = wire->link_->dir_[1 - wire->side_];
      if (ShmLink::try_consume(d, out)) return false;
      CJ_CHECK_MSG(d.waiter == nullptr,
                   "one pending next_arrival per wire endpoint");
      CJ_CHECK_MSG(wire->engine_ != nullptr,
                   "ShmWire polled before attach_engine");
      d.waiter = h;
      d.waiter_slot = out;
      d.waiter_engine = wire->engine_;
      return true;
    }
    void await_resume() {}
  };
  co_await Awaiter{this, &out};
  co_return out;
}

Status ShmWire::push_message(std::vector<std::byte> bytes) {
  std::coroutine_handle<> wake;
  sim::Engine* wake_engine = nullptr;
  {
    std::lock_guard<std::mutex> lk(link_->mu_);
    ShmLink::Direction& d = link_->dir_[side_];
    if (d.failed) return unavailable("send failed: shm wire is down");
    if (d.recv_closed) return Status::ok();  // receiver torn down: dropped
    d.bytes += bytes.size();
    d.messages.push_back(std::move(bytes));
    if (d.waiter != nullptr && ShmLink::try_consume(d, d.waiter_slot)) {
      wake = d.waiter;
      wake_engine = d.waiter_engine;
      d.waiter = nullptr;
      d.waiter_slot = nullptr;
      d.waiter_engine = nullptr;
    }
  }
  if (wake != nullptr) wake_engine->post(wake);
  return Status::ok();
}

sim::Task<Status> ShmWire::post_send(const ring::FrameHeader* header,
                                     std::span<const std::byte> payload) {
  std::vector<std::byte> bytes;
  bytes.reserve((header != nullptr ? ring::kFrameBytes : 0) + payload.size());
  if (header != nullptr) {
    bytes.resize(ring::kFrameBytes);
    ring::encode_frame(*header, bytes.data());
  }
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  co_return push_message(std::move(bytes));
}

sim::Task<Status> ShmWire::send_done() { co_return Status::ok(); }

void ShmWire::close_send() {
  std::coroutine_handle<> wake;
  sim::Engine* wake_engine = nullptr;
  {
    std::lock_guard<std::mutex> lk(link_->mu_);
    ShmLink::Direction& d = link_->dir_[side_];
    d.send_closed = true;
    if (d.waiter != nullptr && ShmLink::try_consume(d, d.waiter_slot)) {
      wake = d.waiter;
      wake_engine = d.waiter_engine;
      d.waiter = nullptr;
      d.waiter_slot = nullptr;
      d.waiter_engine = nullptr;
    }
  }
  if (wake != nullptr) wake_engine->post(wake);
}

void ShmWire::close_recv() {
  std::coroutine_handle<> wake;
  sim::Engine* wake_engine = nullptr;
  {
    std::lock_guard<std::mutex> lk(link_->mu_);
    ShmLink::Direction& d = link_->dir_[1 - side_];
    d.recv_closed = true;
    if (d.waiter != nullptr) {
      *d.waiter_slot = ring::Arrival{0, 0, false};
      wake = d.waiter;
      wake_engine = d.waiter_engine;
      d.waiter = nullptr;
      d.waiter_slot = nullptr;
      d.waiter_engine = nullptr;
    }
  }
  if (wake != nullptr) wake_engine->post(wake);
}

void ShmWire::fail() {
  std::pair<sim::Engine*, std::coroutine_handle<>> wake[2] = {};
  {
    std::lock_guard<std::mutex> lk(link_->mu_);
    for (int i = 0; i < 2; ++i) {
      ShmLink::Direction& d = link_->dir_[i];
      d.failed = true;
      if (d.waiter != nullptr) {
        *d.waiter_slot = ring::Arrival{0, 0, false};
        wake[i] = {d.waiter_engine, d.waiter};
        d.waiter = nullptr;
        d.waiter_slot = nullptr;
        d.waiter_engine = nullptr;
      }
    }
  }
  for (auto& [engine, handle] : wake) {
    if (handle != nullptr) engine->post(handle);
  }
}

}  // namespace cj::rt
