// Always-on flight recorder: per-host lock-free ring buffers of fixed-size
// chunk-hop records.
//
// Every hop in a chunk's life — inject, recv, forward, probe, retire, ack,
// re-inject, adopt, discard — appends one 24-byte record keyed by
// (origin, seq, query) to the lane of the host where it happened. The
// recorder is bounded (old records are overwritten), allocation-free on the
// hot path, and safe to write from any thread and read concurrently from a
// sampler thread: each slot is a tiny seqlock of four u64 atomics (ticket +
// three packed words), so a reader that races a wrap simply skips the slot.
//
// Unlike the Tracer (opt-in, unbounded, mutex-guarded), the flight recorder
// is installed unconditionally by the runner; its recent window is the
// black box that gets serialized (CJT1-compatible, see blackbox_dump) on a
// crash, a retry storm, or an SLO breach.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace cj::obs {

class Tracer;

// What happened to the chunk at this hop. Values are part of the blackbox
// encoding (name-interned in CJT1 dumps); append new kinds at the end.
enum class HopKind : std::uint8_t {
  kInject = 0,     // origin put the chunk on the wire (arg: payload bytes)
  kRecv = 1,       // host pulled the chunk off the wire
  kForward = 2,    // host passed it to the successor (arg: residency us)
  kProbe = 3,      // host joined it against S_i (arg: probe us)
  kRetire = 4,     // chunk completed its last hop (arg: residency us)
  kAck = 5,        // origin saw the retire ack (arg: clean ack RTT us)
  kReinject = 6,   // origin re-sent after an ack timeout (arg: attempt)
  kAdopt = 7,      // recovery host re-injected an adopted chunk
  kDiscard = 8,    // corrupt frame dropped (arg: bytes)
  kDuplicate = 9,  // already-seen (origin, seq) skipped
  kStale = 10,     // frame from a finished query group dropped
};
inline constexpr int kNumHopKinds = 11;

std::string_view hop_kind_name(HopKind kind);

// Origin id stamped when the wire carries no frame identity (fault-free
// mode sends raw chunk bytes): the emit cost is still paid, but journeys
// are only reconstructible in resilient mode.
inline constexpr std::uint16_t kNoOrigin = 0xFFFF;

/// Nanoseconds -> saturated microseconds, the unit of FlightRecord::arg_us
/// durations.
inline std::uint32_t saturating_us(SimDuration ns) {
  const SimDuration us = ns / kMicrosecond;
  if (us < 0) return 0;
  if (us > static_cast<SimDuration>(0xFFFFFFFFu)) return 0xFFFFFFFFu;
  return static_cast<std::uint32_t>(us);
}

struct FlightRecord {
  SimTime ts = 0;                   // engine time, ns
  std::uint32_t seq = 0;            // per-origin chunk sequence number
  std::uint16_t origin = kNoOrigin; // injecting host
  std::uint16_t query = 0;          // serving wave query group (0 = none)
  std::int16_t host = -1;           // where the hop happened
  HopKind kind = HopKind::kInject;
  std::uint8_t revolution = 0;      // frame hop counter at this hop
  std::uint32_t arg_us = 0;         // kind-specific payload (see HopKind)

  friend bool operator==(const FlightRecord&, const FlightRecord&) = default;
};

// Lossless 3-word packing used by the ring slots (exposed for tests).
std::array<std::uint64_t, 3> pack_record(const FlightRecord& r);
FlightRecord unpack_record(const std::array<std::uint64_t, 3>& w);

struct FlightConfig {
  // Slots per host lane; rounded up to a power of two. 4096 slots * 32 B
  // = 128 KiB per host — the bounded "recent window".
  std::size_t slots_per_host = 4096;
  // When non-empty, the runners write a CJT1 black-box dump of the
  // recorder window to this path on a crash ("crash") or a retry storm
  // ("retry-storm"). The serving layer has its own dump knob for SLO
  // breaches (serve::ServeConfig::blackbox_path).
  std::string blackbox_path;
  // Total re-injections in one run at or beyond which the runner writes a
  // "retry-storm" black box (0 = never). Checked at end of run on both
  // backends, so a storm that resolves itself still leaves evidence.
  std::uint64_t retry_storm_threshold = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(int num_hosts, FlightConfig config = {});

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Lock-free, allocation-free; callable from any thread. Records with an
  // out-of-range host index are counted but not stored.
  void emit(int host, const FlightRecord& record);

  // Consistent snapshot of one lane's surviving window, oldest first.
  // Callable concurrently with writers; slots mid-write are skipped.
  std::vector<FlightRecord> snapshot(int host) const;
  // All lanes merged and sorted by timestamp.
  std::vector<FlightRecord> snapshot_all() const;

  // Lane cursors for incremental scans (the live sampler): appends records
  // with ticket >= *cursor to out, advances *cursor past the lane head.
  void scan(int host, std::uint64_t* cursor,
            std::vector<FlightRecord>* out) const;

  std::uint64_t emitted(int host) const;
  std::uint64_t total_emitted() const;
  // In-range host: records overwritten before they could ever be read
  // (lane head beyond capacity). Out-of-range host: the count of emits
  // that named no valid lane (stored nowhere, attributed to no host).
  std::uint64_t dropped(int host) const;

  int num_hosts() const { return num_hosts_; }
  std::size_t capacity_per_host() const { return capacity_; }

 private:
  struct Slot {
    // 0 = never written; kBusy = mid-write; else ticket+1 of the claim.
    std::atomic<std::uint64_t> ticket{0};
    std::array<std::atomic<std::uint64_t>, 3> words{};
  };
  struct Lane {
    std::atomic<std::uint64_t> head{0};
    std::unique_ptr<Slot[]> slots;
  };

  bool read_slot(const Lane& lane, std::size_t idx, std::uint64_t* ticket,
                 FlightRecord* out) const;

  int num_hosts_;
  std::size_t capacity_;  // power of two
  std::size_t mask_;
  std::vector<Lane> lanes_;
  std::atomic<std::uint64_t> out_of_range_{0};
};

// ---------------------------------------------------------------------------
// Black-box dumps (CJT1-compatible).
//
// The recorder window is re-expressed as Tracer instant events — one per
// record, name "flight.<kind>", entity = decimal seq, and the remaining
// identity (origin, query, revolution) plus arg_us packed into the 64-bit
// event arg — then serialized with Tracer::binary(). The result round-trips
// through Tracer::parse_binary and loads in any CJT1 tooling. arg_us
// saturates at 2^24-1 us (~16.7 s) in the dump encoding.

// Pack/unpack of the CJT1 event arg (exposed for tests).
std::int64_t pack_blackbox_arg(const FlightRecord& r);
void unpack_blackbox_arg(std::int64_t arg, FlightRecord* r);

// Serialize the recorder's surviving window. `reason` is interned as a
// leading instant event named "blackbox.<reason>" on the global host.
std::vector<std::uint8_t> blackbox_dump(const FlightRecorder& recorder,
                                        std::string_view reason);
// Same, but from an already-materialized record window.
std::vector<std::uint8_t> blackbox_dump(const std::vector<FlightRecord>& window,
                                        std::string_view reason);

// Write a dump to `path`; returns false on I/O failure.
bool write_blackbox(const FlightRecorder& recorder, const std::string& path,
                    std::string_view reason);

// Parse a dump back into records. Non-flight events are ignored; returns
// false if the bytes are not valid CJT1. If `reason` is non-null it
// receives the dump's reason string ("" when absent).
bool parse_blackbox(const std::vector<std::uint8_t>& bytes,
                    std::vector<FlightRecord>* out,
                    std::string* reason = nullptr);

}  // namespace cj::obs
