// Point-to-point network links.
//
// A Link models one *direction* of a physical cable through the cluster
// switch: transfers serialize FIFO on the wire at the link bandwidth, then
// experience a fixed propagation/switching delay that is pipelined with the
// next transfer. A full-duplex connection between neighbors is a DuplexLink
// (two independent wires), matching 10 GbE semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/units.h"
#include "sim/core_pool.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace cj::net {

struct LinkSpec {
  /// Wire bandwidth in bytes per second. Default: 10 Gb/s Ethernet.
  double bandwidth_bytes_per_sec = 1.25e9;
  /// One-way propagation + switch latency.
  SimDuration propagation_delay = 5 * kMicrosecond;
};

/// One direction of a cable. FIFO, work-conserving, lossless.
class Link {
 public:
  Link(sim::Engine& engine, LinkSpec spec, std::string name)
      : engine_(engine), spec_(spec), name_(std::move(name)), wire_(engine, 1) {}
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Transfers `bytes` plus `extra_wire_time` of per-message overhead
  /// (e.g. the RNIC's per-work-request processing). Completes after the
  /// data has fully arrived at the far end.
  sim::Task<void> transfer(std::uint64_t bytes, SimDuration extra_wire_time = 0) {
    co_await serialize(bytes, extra_wire_time);
    co_await engine_.sleep(spec_.propagation_delay);
  }

  /// Puts a message on the wire and completes once its last bit has left
  /// the sender; it arrives `spec().propagation_delay` later. A sender that
  /// streams calls this back to back, so propagation overlaps the next
  /// message's serialization.
  sim::Task<void> serialize(std::uint64_t bytes, SimDuration extra_wire_time = 0) {
    co_await wire_.acquire();
    const SimDuration wire_time = serialization_time(bytes) + extra_wire_time;
    co_await engine_.sleep(wire_time);
    busy_ += wire_time;
    bytes_ += bytes;
    ++messages_;
    wire_.release();
  }

  /// Pure wire time for a payload of `bytes` at link bandwidth.
  SimDuration serialization_time(std::uint64_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) /
                                    spec_.bandwidth_bytes_per_sec * 1e9);
  }

  const LinkSpec& spec() const { return spec_; }
  const std::string& name() const { return name_; }
  std::uint64_t bytes_transferred() const { return bytes_; }
  std::uint64_t messages() const { return messages_; }
  SimDuration busy_time() const { return busy_; }

 private:
  sim::Engine& engine_;
  LinkSpec spec_;
  std::string name_;
  sim::Semaphore wire_;
  std::uint64_t bytes_ = 0;
  std::uint64_t messages_ = 0;
  SimDuration busy_ = 0;
};

/// Both directions between a pair of neighboring hosts.
struct DuplexLink {
  DuplexLink(sim::Engine& engine, LinkSpec spec, const std::string& name)
      : forward(engine, spec, name + ">"), backward(engine, spec, name + "<") {}

  Link forward;
  Link backward;
};

}  // namespace cj::net
