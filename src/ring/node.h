// RoundaboutNode: one host's slice of the Data Roundabout transport layer.
//
// Implements the paper's Sec. III-D design: a statically allocated ring of
// receive buffers (registered once, reused for the whole run) plus three
// asynchronous entities —
//
//   receiver     keeps recv buffers posted; completed buffers flow to the
//                join entity through the inbound queue,
//   join entity  (owned by the cyclo layer) pulls chunks via next_chunk(),
//                joins them, then forwards or retires the buffers in
//                arrival order; it may pull the next chunk while one still
//                joins, but never makes a chunk's forward or retire wait
//                for a later arrival (that would void rule 3 below),
//   transmitter  drains the outbound queue toward the successor, gated by
//                credits (one credit == one free buffer at the successor,
//                which is what makes receiver-not-ready unreachable). It
//                streams: as soon as a send is posted it takes the next
//                credit and request, so up to one send per credit is in
//                flight; a companion loop collects the completions in post
//                order and recycles each sent buffer.
//
// Deadlock freedom. A store-and-forward ring with hop-by-hop credits can
// deadlock when every buffer holds a young chunk and no chunk can reach the
// host where it retires. Three rules make that state unreachable:
//
//   1. forwards have strict priority over local injections (drain before
//      inject), and the transmitter acquires a credit *before* it commits
//      to a message,
//   2. retiring a chunk never needs a credit (recycle is local), and
//   3. injection is window-limited end to end: a host keeps at most
//      `injection_window` un-retired local chunks in the ring. When a chunk
//      completes its revolution at pred(origin), a zero-length *retire ack*
//      message travels the one remaining hop back to the origin and reopens
//      its window. Total in-flight chunks thus stay strictly below the
//      ring's total buffer capacity, so a free buffer always exists ahead
//      of the oldest chunk.
//
// With the ack, every host sends and receives exactly G messages per run
// (G = total chunks): G - L_i data arrivals plus L_i acks in, G - L_succ
// data sends plus L_succ acks out.
//
// The node is transport-agnostic: give it RDMA wires and communication is
// zero-copy and nearly CPU-free; give it TCP wires and every byte bills
// host cores (the paper's Sec. V-G comparison).
// Resilient mode (NodeConfig::resilience.enabled, switched on only when a
// fault plan is active) wraps every message in a FrameHeader (origin, seq,
// checksum — see frame.h) and replaces the exact-count loops with dynamic
// termination driven by the orchestration layer:
//
//   * a corrupted or truncated frame is discarded (buffer recycled); the
//     origin still holds the payload and re-injects it after ack_timeout,
//   * per-origin sequence sets deduplicate re-injected chunks, so a chunk
//     is delivered to the join entity at most once per host (duplicates
//     are flagged and forwarded without joining); a duplicate that finds
//     an earlier copy still holding a buffer here is dropped at once, so
//     re-injected copies cannot fill every ring buffer and jam the ring
//     (the injection window bounds originals, not copies),
//   * when a neighbor dies the wires fail fast; the node parks its
//     receiver/transmitter until the control plane splices a replacement
//     wire around the dead host (splice_in / splice_out),
//   * die() simulates this node's own fail-stop crash: wires break, all
//     entities unwind, and the join entity sees a stop chunk.
//
// With resilience disabled every path below is byte-identical to the
// original protocol: no frames, no checksums, no extra state.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "ring/frame.h"
#include "ring/wire.h"
#include "sim/core_pool.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace cj::ring {

/// Adaptive ack-timeout policy: instead of trusting a fixed ack_timeout,
/// derive the re-injection deadline from observed ack round-trip times
/// (a full revolution plus one ack hop). This removes the documented
/// false-re-injection failure mode — a static timeout tuned below the real
/// revolution time re-injects healthy chunks every scan — while still
/// reacting quickly when the ring genuinely lost a chunk.
struct AdaptiveAckConfig {
  bool enabled = false;
  /// Lower bound on the effective timeout regardless of samples (wall-clock
  /// backends need this: scheduler jitter exceeds any simulated latency).
  SimDuration floor = 0;
  /// Effective timeout = max(floor, multiplier * p99 observed ack RTT).
  double multiplier = 4.0;
  /// Below this many samples the static ack_timeout (clamped to the floor)
  /// stays in charge.
  int min_samples = 4;
};

/// Fault-tolerance knobs; enabled only when a fault plan is active.
struct ResilienceConfig {
  bool enabled = false;
  /// This host's ring position and the ring size (frame origin field and
  /// per-origin dedup tables).
  int host_id = 0;
  int num_hosts = 1;
  /// A local chunk not acked within this window is re-injected.
  SimDuration ack_timeout = 5 * kMillisecond;
  /// Scanner wake-up period (0 = effective timeout / 4).
  SimDuration scan_interval = 0;
  /// Re-injections per chunk before the node declares it permanently lost
  /// and aborts (faults must not pass silently).
  int max_reinjections = 16;
  /// Adaptive ack-timeout policy (off = static ack_timeout).
  AdaptiveAckConfig adaptive;
  /// Ring-neighbor fragment replication: during the load phase every host
  /// streams kReplica frames (stationary fragment + rotating chunk log) to
  /// its successor, enabling exact-result crash recovery (docs/FAULTS.md,
  /// Layer 4). Off = PR-1 degraded-result behavior.
  bool replicate = false;
  /// Query group stamped on this run's data frames (the serving layer
  /// allocates one group per scheduler wave). An inbound data frame whose
  /// group differs is stale — left over from another wave — and is
  /// discarded (counted) instead of joined, acked or forwarded. Acks and
  /// replica frames identify themselves by (origin, seq) and stay
  /// group-agnostic.
  std::uint16_t query_group = 0;
  /// Invoked each time one of this node's local chunks is acknowledged
  /// (the orchestration layer's termination detector listens here).
  std::function<void()> on_ack;
  /// Invoked for every fresh replica record received from the predecessor
  /// (the orchestration layer stores a copy; the span aliases the ring
  /// buffer and is only valid for the duration of the call).
  std::function<void(int, std::span<const std::byte>)> on_replica;
};

struct NodeConfig {
  /// Ring buffer elements per host (>= 2 when the ring has neighbors).
  /// The paper's buffers absorb speed differences between hosts (Sec. V-D).
  int num_buffers = 4;
  /// Size of one ring buffer element. RDMA wants large transfer units
  /// (Sec. III-C: >= ~1 MB for full throughput).
  std::size_t buffer_bytes = 1ULL << 20;
  /// Max un-retired locally-injected chunks (0 = auto: num_buffers - 1).
  /// Must stay below num_buffers — see "deadlock freedom" above.
  int injection_window = 0;
  /// Explicit credit messages. Required for RDMA (a send with no posted
  /// receive is fatal); redundant over TCP, whose window already applies
  /// backpressure — the paper's TCP baseline uses plain send/recv.
  bool use_credits = true;
  /// Fault-tolerance mode; see ResilienceConfig.
  ResilienceConfig resilience;
  /// Host id stamped on this node's trace events (Chrome pid).
  int trace_host = 0;
};

/// Exact message counts for one run, computed by the orchestration layer.
/// Exact counts let every entity run a bounded loop and shut down cleanly.
/// With retire acks both equal the global chunk count G.
struct NodeCounts {
  /// Messages that will arrive from the predecessor (data + acks).
  std::uint64_t arrivals = 0;
  /// Messages this host will send (locals + forwards + acks).
  std::uint64_t sends = 0;
};

/// A filled ring buffer handed to the join entity. The payload span aliases
/// the ring buffer — it stays valid until forward()/retire() is called.
struct InboundChunk {
  int buffer_idx = -1;
  std::span<const std::byte> payload;
  /// Engine time the receiver handed the chunk off the wire. The gap to
  /// the matching forward()/retire() is the chunk's on-host residency —
  /// the flight recorder's straggler-attribution signal.
  SimTime recv_ts = 0;
  /// Frame hop counter at arrival (reserved[0]; 0 when frames are off).
  int hops = 0;
  // ----- resilient-mode metadata (defaults in fault-free runs) ---------
  /// Host that injected the chunk (-1 when frames are off).
  int origin = -1;
  /// Per-origin sequence number.
  std::uint32_t seq = 0;
  /// True when this host already joined this (origin, seq): forward or
  /// retire it, but do not join it again.
  bool duplicate = false;
  /// Recovery replay copy (kFrameFlagReplay): only the adopter joins it,
  /// and only against the adopted partition; it stays off the retire board.
  bool replay = false;
  /// Control signal: the ring is shutting down (or this node died); no
  /// buffer is attached and the join loop must exit.
  bool stop = false;
};

class RoundaboutNode {
 public:
  /// Wires may be null for a ring of size one (no neighbors).
  RoundaboutNode(sim::Engine& engine, sim::CorePool& cores, Wire* in_wire,
                 Wire* out_wire, NodeConfig config);

  /// Registers all memory (ring buffers, credit slots, plus the caller's
  /// local chunk storage slabs), posts the initial receive buffers and
  /// starts the receiver / transmitter / credit entities. Validates the
  /// NodeConfig first and returns kInvalidArgument (starting nothing)
  /// rather than deadlocking on an unusable configuration. In resilient
  /// mode `counts` is ignored — termination is dynamic.
  sim::Task<Status> start(NodeCounts counts,
                          std::vector<std::span<std::byte>> local_slabs);

  // ----- join-entity API ---------------------------------------------

  /// Next inbound data chunk from the predecessor (acks are consumed
  /// internally). Waiting here while no join work is in flight (see
  /// note_join_work) is the paper's "sync" time (Fig. 11): join cores
  /// starved for data.
  sim::Task<InboundChunk> next_chunk();

  /// The join entity reports join work starting (+1) or finishing (-1) on
  /// this host's cores. With look-ahead it waits in next_chunk() while the
  /// previous chunk still joins; that wait is not starvation and is not
  /// counted as sync.
  void note_join_work(int delta);

  /// Forwards the chunk to the successor, then recycles its buffer
  /// (repost + credit to the predecessor). Never blocks the join entity.
  void forward(InboundChunk chunk);

  /// Ends the chunk's revolution: recycles its buffer immediately and
  /// queues the retire ack to the successor (the chunk's origin).
  /// `send_ack=false` (resilient mode only) retires without acknowledging —
  /// used for chunks whose origin is dead.
  void retire(InboundChunk chunk, bool send_ack = true);

  /// Injects a locally-born chunk (sent directly from local slab memory;
  /// it must lie within a slab passed to start()). Blocks while the
  /// injection window is exhausted — forwards always jump ahead of locals.
  /// `replay=true` (recovery only) stamps kFrameFlagReplay: the chunk gets
  /// a fresh sequence number and full ack/retransmission protection, but
  /// only the adopter joins it (against the adopted partition).
  sim::Task<void> send_local(std::span<const std::byte> data,
                             bool replay = false);

  // ----- replication & adoption (resilience.replicate) -----------------

  /// Registers extra memory with the wire after start() — sends must come
  /// from registered regions, and the adopter's replica log only becomes
  /// send-worthy (via send_adopted) once a crash lands. No-op on wires
  /// without registration (rt shared memory).
  sim::Task<void> prepare_memory(std::span<std::byte> region);

  /// Streams one replica record to the ring successor (kReplica frame,
  /// checksummed, acked, re-sent on timeout like a data chunk). The payload
  /// must stay valid until replicas_drained() returns. Shares the injection
  /// window with send_local, preserving the deadlock-freedom bound.
  sim::Task<void> send_replica(std::span<const std::byte> data);

  /// Completes once every send_replica() record has been acknowledged by
  /// the successor (i.e. is durably stored off-host). Call once, after the
  /// last send_replica().
  sim::Task<void> replicas_drained();

  /// Marks `origin` as adopted by this node: retire acks naming that origin
  /// are now consumed here (the spliced ring routes them to us, the dead
  /// host's effective home), settling entries registered via send_adopted().
  void adopt(int origin);

  /// Registers (and, when send_now, immediately injects) one of the adopted
  /// origin's unretired chunks from the replica log, under the adopted
  /// origin's original sequence number. With send_now=false the chunk is
  /// assumed to still be circulating: the scanner re-injects it only if no
  /// ack lands within the timeout — exactly the dead origin's own recovery
  /// semantics. Acquires an injection-window slot either way.
  sim::Task<void> send_adopted(std::uint32_t seq,
                               std::span<const std::byte> payload,
                               bool send_now);

  /// Per-origin sequence numbers this host has received (resilient mode).
  /// The adopter snapshots these at adoption time to plan the replay.
  const std::set<std::uint32_t>& seen(int origin) const {
    return seen_[static_cast<std::size_t>(origin)];
  }

  /// Completes when every counted arrival, send, credit and recycle has
  /// happened and every send in flight has completed, then shuts the wires
  /// down. Call after the join work is done.
  /// In resilient mode, call request_stop() first.
  sim::Task<void> drain();

  // ----- resilient-mode control plane ---------------------------------

  /// Asks all entities to wind down (resilient termination is decided by
  /// the orchestration layer, not by message counts). The join entity
  /// receives a stop chunk; follow with drain().
  void request_stop();

  /// Simulates this node's fail-stop crash: wires break immediately, all
  /// entities unwind, in-flight chunks are abandoned (surviving origins
  /// re-inject them). The join loop receives a stop chunk.
  void die();

  /// Ring repair, inbound side (this node's predecessor died): adopt the
  /// replacement wire to the new predecessor and re-post every currently
  /// free ring buffer on it. Returns the number of buffers posted — the
  /// new predecessor's initial credit count.
  sim::Task<int> splice_in(Wire* new_in_wire);

  /// Ring repair, outbound side (this node's successor died): adopt the
  /// replacement wire, post credit receive slots on it and re-base the
  /// credit count to the new successor's free buffers.
  sim::Task<void> splice_out(Wire* new_out_wire, int initial_credits);

  bool stopped() const { return stop_; }
  /// Local chunks injected but not yet acknowledged (adopted-origin chunks
  /// this node answers for count too).
  std::size_t outstanding_unacked() const {
    return outstanding_.size() + adopted_outstanding_.size();
  }
  /// The re-injection deadline currently in force: the static ack_timeout,
  /// or — with the adaptive policy armed and enough samples — the observed
  /// p99 ack RTT scaled by the policy multiplier (never below the floor).
  SimDuration current_ack_timeout() const;
  /// Installs the orchestration layer's ack listener (must be set before
  /// start(); the termination detector listens here).
  void set_on_ack(std::function<void()> on_ack) {
    config_.resilience.on_ack = std::move(on_ack);
  }
  /// Installs the replica-record sink (must be set before start()).
  void set_on_replica(
      std::function<void(int, std::span<const std::byte>)> on_replica) {
    config_.resilience.on_replica = std::move(on_replica);
  }
  /// Overrides the wire query group (must be called before start(); tests
  /// use this to model a node still pinned to another serving wave).
  void set_query_group(std::uint16_t group) {
    config_.resilience.query_group = group;
  }

  // ----- statistics ---------------------------------------------------

  /// Total virtual time the join entity spent waiting in next_chunk() with
  /// no join work in flight.
  SimDuration sync_time() const { return sync_time_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t chunks_received() const { return chunks_received_; }
  std::uint64_t chunks_discarded_corrupt() const { return discarded_corrupt_; }
  /// Data frames discarded because their query group named another wave.
  std::uint64_t stale_query_discards() const { return stale_query_discards_; }
  std::uint64_t duplicates_skipped() const { return duplicates_skipped_; }
  std::uint64_t chunks_reinjected() const { return reinjected_; }
  /// Re-injected chunks that were later acknowledged (recovered in-flight).
  std::uint64_t chunks_recovered() const { return recovered_; }
  std::uint64_t send_failures() const { return send_failures_; }
  /// Replica payload bytes shipped to the successor (first sends only).
  std::uint64_t replica_bytes() const { return replica_bytes_; }
  /// Replica records re-sent after an ack timeout.
  std::uint64_t replicas_resent() const { return replicas_resent_; }
  /// Adopted-origin chunks re-injected from the replica log.
  std::uint64_t chunks_adopted() const { return adopted_injected_; }
  /// Clean (first-try) ack round trips observed, in injection order.
  const std::vector<SimDuration>& ack_rtts() const { return ack_rtts_; }
  /// Completed revolutions observed at retire time, from the frame hop
  /// counter (resilient mode; fault-free wires carry no counter).
  std::uint64_t revolutions_observed() const { return revolutions_observed_; }
  /// Highest frame hop counter seen on any frame through this node.
  int max_hops_observed() const { return max_hops_observed_; }
  const NodeConfig& config() const { return config_; }

 private:
  struct SendRequest {
    std::span<const std::byte> data;
    int recycle_idx = -1;  // ring buffer to recycle once sent (-1: none)
    // Resilient-mode fields.
    bool framed = false;  // prepend `header` (post_send with a header)
    FrameHeader header{};
    bool stop = false;  // sentinel: transmitter exits
  };

  struct OutboundAwaiter {
    RoundaboutNode* node;
    bool await_ready() {
      return !node->pending_forwards_.empty() || !node->pending_locals_.empty();
    }
    void await_suspend(std::coroutine_handle<> h) {
      node->outbound_waiters_.push_back(h);
    }
    SendRequest await_resume() { return node->take_outbound(); }
  };

  std::span<std::byte> buffer(int idx) {
    return std::span<std::byte>(ring_slab_).subspan(
        static_cast<std::size_t>(idx) * config_.buffer_bytes, config_.buffer_bytes);
  }

  SendRequest take_outbound();
  void push_outbound(SendRequest request, bool priority);

  bool resilient() const { return config_.resilience.enabled; }

  /// One ring-protocol instant ("recv", "ack", "forward", ...) on this
  /// host's "ring" trace track.
  void trace_instant(std::string_view name, std::int64_t arg);

  /// One chunk-hop record into the always-on flight recorder (single
  /// pointer test when no recorder is installed). origin < 0 maps to
  /// obs::kNoOrigin (fault-free wire: no frame identity).
  void flight_emit(obs::HopKind kind, int origin, std::uint32_t seq,
                   std::uint8_t hops, std::uint32_t arg_us);

  /// Opens or closes a sync interval when starvation (waiting in
  /// next_chunk() with no join work in flight) begins or ends.
  void update_starved();

  sim::Task<void> receiver_process();
  sim::Task<void> transmitter_process();
  /// Posts one request on the current out-wire and queues it for
  /// send_completer(); an error means nothing was posted.
  sim::Task<Status> post(const SendRequest& request);
  /// Collects send completions in post order (both modes): recycles sent
  /// buffers, counts bytes and failures, and sets done_transmitter_ once
  /// the transmitter has exited and every send in flight completed.
  sim::Task<void> send_completer();
  /// Opens / closes a send's span on the lowest free "tx" track (-1 when
  /// untraced).
  int open_tx_span(std::size_t bytes);
  void close_tx_span(int lane);
  sim::Task<void> credit_receiver_process();
  sim::Task<void> recycle(int buffer_idx);

  // Resilient-mode variants (dynamic termination, frame decode, repair).
  sim::Task<void> receiver_resilient();
  sim::Task<void> transmitter_resilient();
  sim::Task<void> credit_receiver_resilient();
  sim::Task<void> scanner_process();
  void handle_ack(const FrameHeader& header);
  void spawn_recycle(int buffer_idx);

  sim::Engine& engine_;
  sim::CorePool& cores_;
  Wire* in_wire_;
  Wire* out_wire_;
  NodeConfig config_;
  NodeCounts counts_{};
  bool started_ = false;

  std::vector<std::byte> ring_slab_;
  std::vector<std::byte> credit_rx_slab_;
  std::vector<std::byte> credit_tx_slot_;

  std::unique_ptr<sim::Channel<InboundChunk>> inbound_;
  std::unique_ptr<sim::Semaphore> credits_;
  std::unique_ptr<sim::Semaphore> injection_window_;

  /// A posted send waiting for its completion.
  struct InFlightSend {
    Wire* wire = nullptr;  ///< the wire it was posted on (splices swap)
    int recycle_idx = -1;
    std::size_t bytes = 0;
    int lane = -1;  ///< its "tx" trace track
  };
  std::unique_ptr<sim::Channel<InFlightSend>> sends_in_flight_;
  /// A send on the current out-wire failed (resilient mode): the
  /// transmitter parks until splice_out() before it posts again.
  bool out_wire_failed_ = false;
  obs::SpanLanes tx_lanes_{"tx"};

  std::deque<SendRequest> pending_forwards_;  // forwards + retire acks
  std::deque<SendRequest> pending_locals_;
  std::deque<std::coroutine_handle<>> outbound_waiters_;

  std::uint64_t credit_recvs_posted_ = 0;
  std::uint64_t recycles_done_ = 0;

  sim::Event done_receiver_;
  sim::Event done_transmitter_;
  sim::Event done_credits_;
  sim::Event done_recycles_;

  // ----- resilient-mode state (untouched when resilience is off) -------

  /// A locally injected chunk awaiting its retire ack.
  struct Outstanding {
    std::span<const std::byte> payload;
    SimTime first_sent = 0;  ///< ack-RTT sampling (adaptive timeout)
    SimTime last_sent = 0;
    int reinjects = 0;
    std::uint8_t flags = 0;  ///< frame flags, preserved across re-sends
  };
  std::map<std::uint32_t, Outstanding> outstanding_;  // keyed by seq
  /// Replica records awaiting their kReplicaAck (keyed by replica seq).
  std::map<std::uint32_t, Outstanding> replica_outstanding_;
  /// Adopted-origin chunks this node re-injected and answers acks for
  /// (keyed by the adopted origin's original seq).
  std::map<std::uint32_t, Outstanding> adopted_outstanding_;
  /// Per-origin sequence numbers already seen (dedup of re-injections).
  std::vector<std::set<std::uint32_t>> seen_;
  /// Per ring buffer, the (origin, seq) of the data chunk it holds, from
  /// arrival until the buffer is recycled (origin -1: none).
  std::vector<std::pair<int, std::uint32_t>> held_chunk_;
  /// Replica seqs already stored (dedup; duplicates are re-acked).
  std::set<std::uint32_t> replica_seen_;
  /// Ring buffers currently posted on the inbound wire (repair reposts).
  std::set<int> posted_idx_;
  std::uint32_t next_seq_ = 0;
  std::uint32_t replica_seq_ = 0;
  std::uint64_t replicas_sent_ = 0;
  /// Released once per unique replica ack; replicas_drained() collects.
  std::unique_ptr<sim::Semaphore> replica_acked_;
  int adopted_origin_ = -1;
  bool stop_ = false;
  std::uint64_t recycles_inflight_ = 0;
  sim::Event splice_in_done_;
  sim::Event splice_out_done_;
  /// Parking handshake: splice waits until the entity has drained the old
  /// wire's final arrivals before counting free buffers / re-basing credits.
  sim::Event receiver_parked_;
  sim::Event credit_parked_;
  sim::Event done_scanner_;

  SimDuration sync_time_ = 0;
  bool awaiting_chunk_ = false;  ///< join entity parked in next_chunk()
  int join_work_ = 0;            ///< join work in flight (note_join_work)
  bool starved_ = false;
  SimTime starved_since_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t chunks_received_ = 0;
  std::uint64_t discarded_corrupt_ = 0;
  std::uint64_t stale_query_discards_ = 0;
  std::uint64_t duplicates_skipped_ = 0;
  std::uint64_t reinjected_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t send_failures_ = 0;
  std::uint64_t replica_bytes_ = 0;
  std::uint64_t replicas_resent_ = 0;
  std::uint64_t adopted_injected_ = 0;
  /// Clean (no-re-injection) ack round trips, for the adaptive timeout.
  std::vector<SimDuration> ack_rtts_;
  std::uint64_t revolutions_observed_ = 0;
  int max_hops_observed_ = 0;
};

}  // namespace cj::ring
