#include "ring/node.h"

#include <algorithm>

#include "obs/trace.h"

namespace cj::ring {

namespace {
constexpr std::size_t kCreditBytes = 8;  // tiny control message
}

RoundaboutNode::RoundaboutNode(sim::Engine& engine, sim::CorePool& cores,
                               Wire* in_wire, Wire* out_wire, NodeConfig config)
    : engine_(engine),
      cores_(cores),
      in_wire_(in_wire),
      out_wire_(out_wire),
      config_(config),
      done_receiver_(engine),
      done_transmitter_(engine),
      done_credits_(engine),
      done_recycles_(engine),
      splice_in_done_(engine, "splice-in"),
      splice_out_done_(engine, "splice-out"),
      receiver_parked_(engine, "receiver-parked"),
      credit_parked_(engine, "credit-parked"),
      done_scanner_(engine) {
  // Construction only allocates; anything questionable about the config is
  // reported by start() as a Status instead of aborting here.
  CJ_CHECK((in_wire == nullptr) == (out_wire == nullptr));
  if (config_.injection_window == 0) {
    config_.injection_window = std::max(1, config_.num_buffers - 1);
  }
  const int buffers = std::max(1, config_.num_buffers);
  ring_slab_.resize(static_cast<std::size_t>(buffers) * config_.buffer_bytes);
  credit_rx_slab_.resize(static_cast<std::size_t>(buffers) * kCreditBytes);
  credit_tx_slot_.resize(kCreditBytes);
  inbound_ = std::make_unique<sim::Channel<InboundChunk>>(
      engine, static_cast<std::size_t>(buffers), "ring-inbound");
  credits_ = std::make_unique<sim::Semaphore>(engine, buffers, "ring-credits");
  // Credits bound the sends in flight to one wire; after a splice the old
  // wire's failing sends may still be queued beside the new wire's.
  sends_in_flight_ = std::make_unique<sim::Channel<InFlightSend>>(
      engine, static_cast<std::size_t>(2 * buffers), "ring-sends-in-flight");
  injection_window_ = std::make_unique<sim::Semaphore>(
      engine, std::max(1, config_.injection_window), "injection-window");
  replica_acked_ = std::make_unique<sim::Semaphore>(engine, 0, "replica-acked");
}

sim::Task<Status> RoundaboutNode::start(NodeCounts counts,
                                        std::vector<std::span<std::byte>> local_slabs) {
  CJ_CHECK_MSG(!started_, "node started twice");
  counts_ = counts;

  // Config validation: reject configurations that cannot run (they would
  // deadlock or corrupt memory deep inside the protocol) before any entity
  // is spawned or any memory registered.
  if (config_.buffer_bytes < 64) {
    co_return invalid_argument("buffer_bytes must be at least 64");
  }
  if (in_wire_ != nullptr) {
    if (config_.num_buffers < 2) {
      co_return invalid_argument(
          "a connected roundabout node needs at least two ring buffers");
    }
    if (config_.injection_window >= config_.num_buffers) {
      co_return invalid_argument(
          "injection_window must stay below num_buffers (deadlock freedom "
          "needs a free buffer ahead of the oldest chunk)");
    }
  } else if (config_.num_buffers < 1) {
    co_return invalid_argument("num_buffers must be positive");
  }
  started_ = true;

  if (in_wire_ == nullptr) {
    // Ring of one: no transport at all.
    CJ_CHECK_MSG(counts.arrivals == 0 && counts.sends == 0,
                 "single-host ring cannot transfer data");
    done_receiver_.set();
    done_transmitter_.set();
    done_credits_.set();
    done_recycles_.set();
    done_scanner_.set();
    co_return Status::ok();
  }

  // Register everything once, up front (paper Sec. III-C: registration is
  // too expensive to do on the data path).
  co_await in_wire_->prepare(ring_slab_);
  co_await in_wire_->prepare(credit_rx_slab_);
  co_await in_wire_->prepare(credit_tx_slot_);
  for (auto slab : local_slabs) {
    if (!slab.empty()) co_await in_wire_->prepare(slab);
  }

  // Pre-post every ring buffer for incoming data; our predecessor starts
  // with a full set of credits to match.
  for (int i = 0; i < config_.num_buffers; ++i) {
    if (resilient()) posted_idx_.insert(i);
    co_await in_wire_->post_recv(static_cast<std::uint64_t>(i), buffer(i));
  }
  if (config_.use_credits) {
    // Pre-post credit receive slots (credits arrive on the out-wire). With
    // exact counts, never more than the run will use; resilient mode has no
    // counts and keeps a full set posted.
    const std::uint64_t initial_credit_posts =
        resilient() ? static_cast<std::uint64_t>(config_.num_buffers)
                    : std::min<std::uint64_t>(
                          static_cast<std::uint64_t>(config_.num_buffers),
                          counts_.sends);
    for (std::uint64_t i = 0; i < initial_credit_posts; ++i) {
      co_await out_wire_->post_recv(
          i, std::span<std::byte>(credit_rx_slab_).subspan(i * kCreditBytes,
                                                           kCreditBytes));
      ++credit_recvs_posted_;
    }
    engine_.spawn(resilient() ? credit_receiver_resilient()
                              : credit_receiver_process(),
                  "ring-credits");
  } else {
    done_credits_.set();
  }

  if (resilient()) {
    seen_.assign(static_cast<std::size_t>(config_.resilience.num_hosts), {});
    held_chunk_.assign(static_cast<std::size_t>(config_.num_buffers), {-1, 0});
    engine_.spawn(receiver_resilient(), "ring-receiver");
    engine_.spawn(transmitter_resilient(), "ring-transmitter");
    engine_.spawn(scanner_process(), "ring-scanner");
  } else {
    engine_.spawn(receiver_process(), "ring-receiver");
    engine_.spawn(transmitter_process(), "ring-transmitter");
    done_scanner_.set();
    if (counts_.arrivals == 0) done_recycles_.set();
  }
  engine_.spawn(send_completer(), "ring-send-completer");
  co_return Status::ok();
}

sim::Task<InboundChunk> RoundaboutNode::next_chunk() {
  awaiting_chunk_ = true;
  update_starved();
  auto chunk = co_await inbound_->pop();
  CJ_CHECK_MSG(chunk.has_value(), "inbound queue closed while joining");
  awaiting_chunk_ = false;
  update_starved();
  co_return *chunk;
}

void RoundaboutNode::note_join_work(int delta) {
  join_work_ += delta;
  CJ_CHECK(join_work_ >= 0);
  update_starved();
}

void RoundaboutNode::update_starved() {
  const bool starved = awaiting_chunk_ && join_work_ == 0;
  if (starved == starved_) return;
  starved_ = starved;
  const SimTime now = engine_.now();
  obs::Tracer* const t = engine_.tracer();
  if (starved) {
    starved_since_ = now;
    if (t != nullptr) t->begin(now, config_.trace_host, "join", "sync");
  } else {
    sync_time_ += now - starved_since_;
    if (t != nullptr) t->end(now, config_.trace_host, "join");
  }
}

void RoundaboutNode::forward(InboundChunk chunk) {
  CJ_CHECK(chunk.buffer_idx >= 0);
  trace_instant("forward", chunk.buffer_idx);
  if (resilient()) {
    // The buffer already holds header + payload contiguously. Bump the hop
    // counter in place (re-sealing the checksum) so the frame carries how
    // far around the ring it has travelled, then forward the whole frame.
    const auto message = std::span<std::byte>(
        buffer(chunk.buffer_idx).data(), kFrameBytes + chunk.payload.size());
    const std::uint8_t hops = stamp_hop(message);
    max_hops_observed_ = std::max(max_hops_observed_, static_cast<int>(hops));
    flight_emit(obs::HopKind::kForward, chunk.origin, chunk.seq, hops,
                obs::saturating_us(engine_.now() - chunk.recv_ts));
    push_outbound(SendRequest{std::span<const std::byte>(
                                  message.data(), message.size()),
                              chunk.buffer_idx},
                  /*priority=*/true);
    return;
  }
  flight_emit(obs::HopKind::kForward, chunk.origin, chunk.seq, 0,
              obs::saturating_us(engine_.now() - chunk.recv_ts));
  push_outbound(SendRequest{chunk.payload, chunk.buffer_idx}, /*priority=*/true);
}

void RoundaboutNode::retire(InboundChunk chunk, bool send_ack) {
  CJ_CHECK(chunk.buffer_idx >= 0);
  trace_instant("retire", chunk.buffer_idx);
  flight_emit(obs::HopKind::kRetire, chunk.origin, chunk.seq,
              static_cast<std::uint8_t>(std::min(chunk.hops, 255)),
              obs::saturating_us(engine_.now() - chunk.recv_ts));
  if (resilient()) {
    // A chunk injected at `origin` arrives here (pred(origin)) with hop
    // counter num_hosts - 2 after one full revolution: +1 for the final
    // (implicit) hop it just completed, +1 for the injection hop.
    if (config_.resilience.num_hosts > 1) {
      revolutions_observed_ += static_cast<std::uint64_t>(chunk.hops + 2) /
                               static_cast<std::uint64_t>(
                                   config_.resilience.num_hosts);
    }
    spawn_recycle(chunk.buffer_idx);
    if (send_ack && !stop_) {
      // Header-only ack naming the exact (origin, seq): survives re-orders
      // and duplicates, and a corrupted copy fails its checksum instead of
      // acknowledging the wrong chunk.
      SendRequest ack;
      ack.framed = true;
      ack.header = make_frame(FrameKind::kRetireAck, chunk.origin, chunk.seq,
                              std::span<const std::byte>());
      push_outbound(ack, /*priority=*/true);
    }
    return;
  }
  engine_.spawn(recycle(chunk.buffer_idx), "ring-recycle");
  // Zero-length retire ack to the successor (the chunk's origin): reopens
  // its injection window. Rides the data wire with forward priority.
  push_outbound(
      SendRequest{std::span<const std::byte>(credit_tx_slot_.data(), 0), -1},
      /*priority=*/true);
}

sim::Task<void> RoundaboutNode::send_local(std::span<const std::byte> data,
                                           bool replay) {
  CJ_CHECK_MSG(!data.empty(), "empty chunks cannot be injected");
  if (resilient() && stop_) co_return;  // dead/stopped node injects nothing
  co_await injection_window_->acquire();
  if (resilient()) {
    if (stop_) co_return;  // dying or stopping node: nothing more to inject
    trace_instant("inject", static_cast<std::int64_t>(data.size()));
    const std::uint32_t seq = next_seq_++;
    flight_emit(obs::HopKind::kInject, config_.resilience.host_id, seq, 0,
                static_cast<std::uint32_t>(
                    std::min<std::size_t>(data.size(), 0xFFFFFFFFu)));
    const std::uint8_t flags = replay ? kFrameFlagReplay : 0;
    SendRequest request;
    request.data = data;
    request.framed = true;
    request.header = make_frame(FrameKind::kData, config_.resilience.host_id,
                                seq, data, flags,
                                config_.resilience.query_group);
    // Hold the payload until its retire ack lands — the retransmission
    // buffer is simply the local slab the chunk already lives in.
    outstanding_[seq] =
        Outstanding{data, engine_.now(), engine_.now(), 0, flags};
    push_outbound(request, /*priority=*/false);
    co_return;
  }
  CJ_CHECK_MSG(!replay, "replay injection is a resilient-mode operation");
  trace_instant("inject", static_cast<std::int64_t>(data.size()));
  flight_emit(obs::HopKind::kInject, /*origin=*/-1, 0, 0,
              static_cast<std::uint32_t>(
                  std::min<std::size_t>(data.size(), 0xFFFFFFFFu)));
  push_outbound(SendRequest{data, -1}, /*priority=*/false);
}

sim::Task<void> RoundaboutNode::prepare_memory(std::span<std::byte> region) {
  CJ_CHECK_MSG(started_, "prepare_memory before start()");
  if (in_wire_ != nullptr && !region.empty()) {
    co_await in_wire_->prepare(region);
  }
}

sim::Task<void> RoundaboutNode::send_replica(std::span<const std::byte> data) {
  CJ_CHECK_MSG(resilient() && config_.resilience.replicate,
               "send_replica needs resilience.replicate");
  CJ_CHECK_MSG(!data.empty(), "empty replica records cannot be sent");
  if (stop_) co_return;
  co_await injection_window_->acquire();
  if (stop_) co_return;
  const std::uint32_t seq = replica_seq_++;
  ++replicas_sent_;
  replica_bytes_ += data.size();
  trace_instant("replica", static_cast<std::int64_t>(data.size()));
  SendRequest request;
  request.data = data;
  request.framed = true;
  request.header =
      make_frame(FrameKind::kReplica, config_.resilience.host_id, seq, data);
  replica_outstanding_[seq] =
      Outstanding{data, engine_.now(), engine_.now(), 0, 0};
  push_outbound(request, /*priority=*/false);
}

sim::Task<void> RoundaboutNode::replicas_drained() {
  for (std::uint64_t i = 0; i < replicas_sent_; ++i) {
    co_await replica_acked_->acquire();
  }
}

void RoundaboutNode::adopt(int origin) {
  CJ_CHECK_MSG(resilient() && config_.resilience.replicate,
               "adopt needs resilience.replicate");
  adopted_origin_ = origin;
}

sim::Task<void> RoundaboutNode::send_adopted(std::uint32_t seq,
                                             std::span<const std::byte> payload,
                                             bool send_now) {
  CJ_CHECK_MSG(adopted_origin_ >= 0, "send_adopted before adopt()");
  if (stop_) co_return;
  co_await injection_window_->acquire();
  if (stop_) co_return;
  ++adopted_injected_;
  adopted_outstanding_[seq] =
      Outstanding{payload, engine_.now(), engine_.now(), 0, 0};
  if (!send_now) co_return;  // likely still circulating; scanner takes over
  trace_instant("adopt-inject", seq);
  flight_emit(obs::HopKind::kAdopt, adopted_origin_, seq, 0, 0);
  SendRequest request;
  request.data = payload;
  request.framed = true;
  request.header = make_frame(FrameKind::kData, adopted_origin_, seq, payload,
                              /*flags=*/0, config_.resilience.query_group);
  push_outbound(request, /*priority=*/false);
}

void RoundaboutNode::trace_instant(std::string_view name, std::int64_t arg) {
  if (obs::Tracer* t = engine_.tracer()) {
    t->instant(engine_.now(), config_.trace_host, "ring", name, arg);
  }
}

void RoundaboutNode::flight_emit(obs::HopKind kind, int origin,
                                 std::uint32_t seq, std::uint8_t hops,
                                 std::uint32_t arg_us) {
  if (obs::FlightRecorder* f = engine_.flight()) {
    obs::FlightRecord r;
    r.ts = engine_.now();
    r.seq = seq;
    r.origin =
        origin < 0 ? obs::kNoOrigin : static_cast<std::uint16_t>(origin);
    r.query = config_.resilience.query_group;
    r.host = static_cast<std::int16_t>(config_.trace_host);
    r.kind = kind;
    r.revolution = hops;
    r.arg_us = arg_us;
    f->emit(config_.trace_host, r);
  }
}

void RoundaboutNode::push_outbound(SendRequest request, bool priority) {
  if (priority) {
    pending_forwards_.push_back(request);
  } else {
    pending_locals_.push_back(request);
  }
  if (!outbound_waiters_.empty()) {
    auto h = outbound_waiters_.front();
    outbound_waiters_.pop_front();
    engine_.schedule_now(h);
  }
}

RoundaboutNode::SendRequest RoundaboutNode::take_outbound() {
  // Forwards and acks drain before locals inject — the ring never clogs.
  if (!pending_forwards_.empty()) {
    SendRequest r = pending_forwards_.front();
    pending_forwards_.pop_front();
    return r;
  }
  CJ_CHECK(!pending_locals_.empty());
  SendRequest r = pending_locals_.front();
  pending_locals_.pop_front();
  return r;
}

void RoundaboutNode::spawn_recycle(int buffer_idx) {
  if (resilient()) {
    held_chunk_[static_cast<std::size_t>(buffer_idx)] = {-1, 0};
    ++recycles_inflight_;
  }
  engine_.spawn(recycle(buffer_idx), "ring-recycle");
}

sim::Task<void> RoundaboutNode::receiver_process() {
  for (std::uint64_t i = 0; i < counts_.arrivals; ++i) {
    const Arrival arrival = co_await in_wire_->next_arrival();
    const int idx = static_cast<int>(arrival.tag);
    if (arrival.length == 0) {
      // Retire ack: one of our local chunks completed its revolution.
      trace_instant("ack", idx);
      flight_emit(obs::HopKind::kAck, /*origin=*/-1, 0, 0, 0);
      engine_.spawn(recycle(idx), "ring-recycle");
      injection_window_->release();
      continue;
    }
    ++chunks_received_;
    trace_instant("recv", static_cast<std::int64_t>(arrival.length));
    flight_emit(obs::HopKind::kRecv, /*origin=*/-1, 0, 0,
                static_cast<std::uint32_t>(arrival.length));
    InboundChunk chunk{idx, std::span<const std::byte>(buffer(idx).data(),
                                                       arrival.length)};
    chunk.recv_ts = engine_.now();
    co_await inbound_->push(chunk);
  }
  done_receiver_.set();
}

sim::Task<void> RoundaboutNode::transmitter_process() {
  for (std::uint64_t i = 0; i < counts_.sends; ++i) {
    // Credit first: committing to a message before a buffer is guaranteed
    // at the successor is how store-and-forward rings deadlock. (Without
    // explicit credits the transport's own backpressure plays this role.)
    if (config_.use_credits) co_await credits_->acquire();
    const SendRequest request = co_await OutboundAwaiter{this};
    const Status status = co_await post(request);
    CJ_CHECK_MSG(status.is_ok(), "fault-free send failed");
  }
  sends_in_flight_->close();
}

sim::Task<Status> RoundaboutNode::post(const SendRequest& request) {
  const std::size_t bytes =
      request.data.size() + (request.framed ? kFrameBytes : 0);
  const int lane = open_tx_span(bytes);
  Wire* const wire = out_wire_;
  const Status status =
      co_await wire->post_send(request.framed ? &request.header : nullptr,
                               request.data);
  if (status.is_ok()) {
    co_await sends_in_flight_->push(
        InFlightSend{wire, request.recycle_idx, bytes, lane});
  } else {
    close_tx_span(lane);
  }
  co_return status;
}

sim::Task<void> RoundaboutNode::send_completer() {
  // Completions arrive in post order, so one loop serves every send in
  // flight; a splice only ever appends the new wire's sends behind the old
  // wire's.
  while (auto sent = co_await sends_in_flight_->pop()) {
    const Status status = co_await sent->wire->send_done();
    close_tx_span(sent->lane);
    if (status.is_ok()) {
      bytes_sent_ += sent->bytes;
    } else {
      CJ_CHECK_MSG(resilient(), "fault-free send failed");
      // The successor is gone and the message with it; the chunk's origin
      // re-injects after its ack timeout. The transmitter parks until the
      // splice before it posts again.
      ++send_failures_;
      out_wire_failed_ = true;
    }
    if (sent->recycle_idx >= 0) spawn_recycle(sent->recycle_idx);
  }
  done_transmitter_.set();
}

int RoundaboutNode::open_tx_span(std::size_t bytes) {
  obs::Tracer* const t = engine_.tracer();
  if (t == nullptr) return -1;
  // Sends overlap, so each takes its own track until its completion and
  // its span carries its own message's bytes and end time.
  return tx_lanes_.begin(*t, engine_.now(), config_.trace_host, "send",
                         static_cast<std::int64_t>(bytes));
}

void RoundaboutNode::close_tx_span(int lane) {
  if (lane < 0) return;
  tx_lanes_.end(*engine_.tracer(), engine_.now(), config_.trace_host, lane);
}

sim::Task<void> RoundaboutNode::credit_receiver_process() {
  for (std::uint64_t received = 0; received < counts_.sends; ++received) {
    const Arrival arrival = co_await out_wire_->next_arrival();
    credits_->release();
    // Keep a credit receive slot posted while more credits are due.
    if (credit_recvs_posted_ < counts_.sends) {
      const std::uint64_t slot = arrival.tag;
      co_await out_wire_->post_recv(
          slot, std::span<std::byte>(credit_rx_slab_)
                    .subspan(slot * kCreditBytes, kCreditBytes));
      ++credit_recvs_posted_;
    }
  }
  done_credits_.set();
}

sim::Task<void> RoundaboutNode::recycle(int buffer_idx) {
  if (resilient()) {
    // Capture the wire: if a splice swaps in_wire_ while this coroutine is
    // suspended, the replacement wire already re-posted this buffer (it was
    // in posted_idx_) and counted it in the new predecessor's credits, so
    // both the post and the credit must go to the old, dead wire (where
    // they are harmless) rather than double-count on the new one.
    Wire* wire = in_wire_;
    if (!stop_) {
      posted_idx_.insert(buffer_idx);
      co_await wire->post_recv(static_cast<std::uint64_t>(buffer_idx),
                               buffer(buffer_idx));
    }
    if (!stop_ && config_.use_credits) {
      const Status status = co_await wire->send(credit_tx_slot_);
      if (!status.is_ok()) ++send_failures_;  // predecessor died; splice re-bases
    }
    if (--recycles_inflight_ == 0 && stop_) done_recycles_.set();
    co_return;
  }
  // The buffer's content has been consumed (joined and, if needed,
  // forwarded): repost it for the next incoming chunk and hand a credit
  // back to the predecessor.
  co_await in_wire_->post_recv(static_cast<std::uint64_t>(buffer_idx),
                               buffer(buffer_idx));
  if (config_.use_credits) co_await in_wire_->send(credit_tx_slot_);
  if (++recycles_done_ == counts_.arrivals) done_recycles_.set();
}

// --------------------------------------------------- resilient entities

sim::Task<void> RoundaboutNode::receiver_resilient() {
  while (!stop_) {
    const Arrival arrival = co_await in_wire_->next_arrival();
    if (!arrival.ok) {
      // The wire died under us. Either this node is stopping, or the
      // predecessor crashed and the control plane will splice a
      // replacement wire in — park until it does.
      if (stop_) break;
      receiver_parked_.set();
      co_await splice_in_done_.wait();
      continue;
    }
    const int idx = static_cast<int>(arrival.tag);
    posted_idx_.erase(idx);
    FrameHeader header;
    const auto message =
        std::span<const std::byte>(buffer(idx).data(), arrival.length);
    if (!decode_frame(message, &header)) {
      // Corrupted in flight: drop it. The origin still holds the payload
      // and re-injects after its ack timeout.
      ++discarded_corrupt_;
      trace_instant("discard", idx);
      flight_emit(obs::HopKind::kDiscard, /*origin=*/-1, 0, 0,
                  static_cast<std::uint32_t>(arrival.length));
      spawn_recycle(idx);
      continue;
    }
    if (header.kind == static_cast<std::uint8_t>(FrameKind::kRetireAck)) {
      trace_instant("ack", header.seq);
      handle_ack(header);
      spawn_recycle(idx);
      continue;
    }
    if (header.kind == static_cast<std::uint8_t>(FrameKind::kReplicaAck)) {
      if (static_cast<int>(header.origin) == config_.resilience.host_id) {
        // One of our replica records is durably stored at the successor.
        trace_instant("replica-ack", header.seq);
        if (replica_outstanding_.erase(header.seq) > 0) {
          injection_window_->release();
          replica_acked_->release();
        }
        spawn_recycle(idx);
      } else {
        // Replica acks travel the long way home (the replica's one-hop
        // sender is our topological predecessor-of-predecessor relative to
        // the ack): forward anything not addressed to us.
        push_outbound(SendRequest{std::span<const std::byte>(
                                      buffer(idx).data(), kFrameBytes),
                                  idx},
                      /*priority=*/true);
      }
      continue;
    }
    if (static_cast<int>(header.origin) >= config_.resilience.num_hosts) {
      ++discarded_corrupt_;  // valid checksum but impossible origin
      trace_instant("discard", idx);
      flight_emit(obs::HopKind::kDiscard, /*origin=*/-1, header.seq,
                  header.reserved[0], static_cast<std::uint32_t>(arrival.length));
      spawn_recycle(idx);
      continue;
    }
    if (header.kind == static_cast<std::uint8_t>(FrameKind::kReplica)) {
      // Replication is strictly one hop: store (dedup'd), ack, recycle.
      // Never enters the inbound queue — the join loop stays oblivious.
      trace_instant("replica-recv", header.seq);
      const bool fresh = replica_seen_.insert(header.seq).second;
      if (fresh && config_.resilience.on_replica) {
        config_.resilience.on_replica(static_cast<int>(header.origin),
                                      message.subspan(kFrameBytes));
      }
      spawn_recycle(idx);
      // Always (re-)ack — a lost ack makes the sender re-send, and only a
      // fresh ack can settle it.
      SendRequest ack;
      ack.framed = true;
      ack.header = make_frame(FrameKind::kReplicaAck, header.origin,
                              header.seq, std::span<const std::byte>());
      push_outbound(ack, /*priority=*/true);
      continue;
    }
    if (header.query != config_.resilience.query_group) {
      // Data frame from another serving wave: stale. Never join, ack or
      // forward it — its own wave's origin re-injection recovers the chunk
      // if it was still live there.
      ++stale_query_discards_;
      trace_instant("stale-query", header.query);
      flight_emit(obs::HopKind::kStale, static_cast<int>(header.origin),
                  header.seq, header.reserved[0], header.query);
      spawn_recycle(idx);
      continue;
    }
    if (static_cast<int>(header.origin) == config_.resilience.host_id) {
      // Our own chunk came full circle without anyone retiring it (a lost
      // ack crossed with a re-injection). Treat arrival as the ack.
      trace_instant("ack", header.seq);
      handle_ack(header);
      spawn_recycle(idx);
      continue;
    }
    InboundChunk chunk;
    chunk.buffer_idx = idx;
    chunk.payload = message.subspan(kFrameBytes);
    chunk.recv_ts = engine_.now();
    chunk.hops = static_cast<int>(header.reserved[0]);
    chunk.origin = static_cast<int>(header.origin);
    chunk.seq = header.seq;
    chunk.replay = (header.flags & kFrameFlagReplay) != 0;
    chunk.duplicate = !seen_[chunk.origin].insert(chunk.seq).second;
    max_hops_observed_ = std::max(max_hops_observed_, chunk.hops);
    if (chunk.duplicate) {
      ++duplicates_skipped_;
      trace_instant("duplicate", chunk.seq);
      flight_emit(obs::HopKind::kDuplicate, chunk.origin, chunk.seq,
                  header.reserved[0], 0);
      const std::pair<int, std::uint32_t> key{chunk.origin, chunk.seq};
      if (std::find(held_chunk_.begin(), held_chunk_.end(), key) !=
          held_chunk_.end()) {
        // An earlier copy still holds a buffer here and travels on from
        // here: this one adds nothing. Keeping it would let re-injected
        // copies fill every ring buffer (the injection window bounds
        // originals, not copies) and deadlock the ring.
        spawn_recycle(idx);
        continue;
      }
    }
    held_chunk_[static_cast<std::size_t>(idx)] = {chunk.origin, chunk.seq};
    ++chunks_received_;
    trace_instant("recv", static_cast<std::int64_t>(arrival.length));
    flight_emit(obs::HopKind::kRecv, chunk.origin, chunk.seq,
                header.reserved[0], static_cast<std::uint32_t>(arrival.length));
    co_await inbound_->push(chunk);
  }
  done_receiver_.set();
}

void RoundaboutNode::handle_ack(const FrameHeader& header) {
  const int origin = static_cast<int>(header.origin);
  if (origin == adopted_origin_) {
    // The spliced ring routes the dead origin's acks here — this node is
    // its effective home now. Settles replica-log re-injections, including
    // circulating pre-crash copies completing their revolution.
    auto it = adopted_outstanding_.find(header.seq);
    if (it == adopted_outstanding_.end()) return;  // stale or duplicate ack
    ++recovered_;
    flight_emit(obs::HopKind::kAck, origin, header.seq, 0,
                obs::saturating_us(engine_.now() - it->second.first_sent));
    adopted_outstanding_.erase(it);
    injection_window_->release();
    if (config_.resilience.on_ack) config_.resilience.on_ack();
    return;
  }
  if (origin != config_.resilience.host_id) {
    return;  // an ack for someone else's chunk would be a routing bug;
             // after a splice a stray copy can pass by — ignore it
  }
  auto it = outstanding_.find(header.seq);
  if (it == outstanding_.end()) return;  // duplicate ack: already retired
  flight_emit(obs::HopKind::kAck, origin, header.seq, 0,
              obs::saturating_us(engine_.now() - it->second.first_sent));
  if (it->second.reinjects > 0) {
    ++recovered_;
  } else {
    // Clean round trip: one revolution plus the ack hop. Feeds the
    // adaptive timeout; re-injected chunks are excluded (their RTT spans
    // the timeout itself and would inflate the estimate).
    ack_rtts_.push_back(engine_.now() - it->second.first_sent);
  }
  outstanding_.erase(it);
  injection_window_->release();
  if (config_.resilience.on_ack) config_.resilience.on_ack();
}

SimDuration RoundaboutNode::current_ack_timeout() const {
  const ResilienceConfig& r = config_.resilience;
  if (!r.adaptive.enabled) return r.ack_timeout;
  const SimDuration floored = std::max(r.adaptive.floor, r.ack_timeout);
  if (ack_rtts_.size() < static_cast<std::size_t>(
                             std::max(1, r.adaptive.min_samples))) {
    return floored;
  }
  std::vector<SimDuration> sorted = ack_rtts_;
  const std::size_t p99 = (sorted.size() * 99) / 100;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(p99),
                   sorted.end());
  const auto scaled = static_cast<SimDuration>(
      r.adaptive.multiplier *
      static_cast<double>(sorted[p99]));
  return std::max(r.adaptive.floor, std::max<SimDuration>(1, scaled));
}

sim::Task<void> RoundaboutNode::transmitter_resilient() {
  while (!stop_) {
    // Take the request before the credit: the stop sentinel must unblock
    // the transmitter even when no credit will ever arrive again (crashed
    // successor). Forward-over-local priority is decided at dequeue time,
    // so the swap does not change message order.
    const SendRequest request = co_await OutboundAwaiter{this};
    if (request.stop || stop_) break;
    if (out_wire_failed_) {
      // A send on the current wire failed: park until the control plane
      // splices a replacement wire.
      co_await splice_out_done_.wait();
      out_wire_failed_ = false;
      if (stop_) break;
    }
    if (config_.use_credits) {
      co_await credits_->acquire();
      if (stop_) break;  // die()/request_stop() re-based the count to wake us
    }
    const Status status = co_await post(request);
    if (status.is_ok()) continue;
    // The wire is already broken: the message is lost like a failed send.
    ++send_failures_;
    out_wire_failed_ = true;
    if (request.recycle_idx >= 0) spawn_recycle(request.recycle_idx);
  }
  sends_in_flight_->close();
}

sim::Task<void> RoundaboutNode::credit_receiver_resilient() {
  while (!stop_) {
    const Arrival arrival = co_await out_wire_->next_arrival();
    if (!arrival.ok) {
      if (stop_) break;
      credit_parked_.set();
      co_await splice_out_done_.wait();
      continue;
    }
    credits_->release();
    const std::uint64_t slot = arrival.tag;
    co_await out_wire_->post_recv(
        slot, std::span<std::byte>(credit_rx_slab_)
                  .subspan(slot * kCreditBytes, kCreditBytes));
  }
  done_credits_.set();
}

sim::Task<void> RoundaboutNode::scanner_process() {
  while (!stop_) {
    // Both the timeout and the wake-up period are recomputed every pass:
    // with the adaptive policy on, the deadline tightens (or relaxes) as
    // ack-RTT samples accumulate.
    const SimDuration timeout = current_ack_timeout();
    const SimDuration interval = config_.resilience.scan_interval > 0
                                     ? config_.resilience.scan_interval
                                     : std::max<SimDuration>(1, timeout / 4);
    co_await engine_.sleep(interval);
    if (stop_) break;
    const SimTime now = engine_.now();
    auto overdue = [&](const Outstanding& chunk) {
      if (now - chunk.last_sent < timeout) return false;
      CJ_CHECK_MSG(chunk.reinjects < config_.resilience.max_reinjections,
                   "chunk permanently lost: re-injection limit exceeded");
      return true;
    };
    for (auto& [seq, chunk] : outstanding_) {
      if (!overdue(chunk)) continue;
      ++chunk.reinjects;
      ++reinjected_;
      trace_instant("reinject", seq);
      flight_emit(obs::HopKind::kReinject, config_.resilience.host_id, seq, 0,
                  static_cast<std::uint32_t>(chunk.reinjects));
      chunk.last_sent = now;
      SendRequest request;
      request.data = chunk.payload;
      request.framed = true;
      request.header = make_frame(FrameKind::kData, config_.resilience.host_id,
                                  seq, chunk.payload, chunk.flags,
                                  config_.resilience.query_group);
      // Re-injection reuses the window slot the original acquisition still
      // holds — it is the same chunk, not a new one.
      push_outbound(request, /*priority=*/false);
    }
    // Adopted-origin chunks: re-injected under the dead origin's identity
    // so dedup and the retire board treat them as the originals. This is
    // also the only injection path for send_adopted(send_now=false)
    // entries — chunks that were likely still circulating at crash time
    // and are re-sent only once the timeout proves them lost.
    for (auto& [seq, chunk] : adopted_outstanding_) {
      if (!overdue(chunk)) continue;
      ++chunk.reinjects;
      ++reinjected_;
      trace_instant("adopt-reinject", seq);
      flight_emit(obs::HopKind::kReinject, adopted_origin_, seq, 0,
                  static_cast<std::uint32_t>(chunk.reinjects));
      chunk.last_sent = now;
      SendRequest request;
      request.data = chunk.payload;
      request.framed = true;
      request.header =
          make_frame(FrameKind::kData, adopted_origin_, seq, chunk.payload,
                     /*flags=*/0, config_.resilience.query_group);
      push_outbound(request, /*priority=*/false);
    }
    // Replica records whose one-hop ack got lost (or whose first send was
    // eaten by a mid-replication fault): same deadline, same window slot.
    for (auto& [seq, chunk] : replica_outstanding_) {
      if (!overdue(chunk)) continue;
      ++chunk.reinjects;
      ++replicas_resent_;
      trace_instant("replica-resend", seq);
      chunk.last_sent = now;
      SendRequest request;
      request.data = chunk.payload;
      request.framed = true;
      request.header = make_frame(FrameKind::kReplica,
                                  config_.resilience.host_id, seq, chunk.payload);
      push_outbound(request, /*priority=*/false);
    }
  }
  done_scanner_.set();
}

// ------------------------------------------------------- control plane

void RoundaboutNode::request_stop() {
  CJ_CHECK_MSG(resilient(), "request_stop is a resilient-mode operation");
  if (stop_) return;
  stop_ = true;
  if (in_wire_ != nullptr) {
    push_outbound(SendRequest{.stop = true}, /*priority=*/true);
    credits_->set_count(1);           // wake a credit-blocked transmitter
    injection_window_->set_count(1);  // wake a window-blocked send_local
    // A replicas_drained() waiter must not hang on acks that will never
    // arrive now.
    replica_acked_->set_count(static_cast<int>(replicas_sent_));
    in_wire_->close_recv();
    out_wire_->close_recv();
  }
  // Unblock a receiver parked in inbound_->push (stray duplicates can still
  // circulate at stop time), then guarantee the join loop sees the stop
  // sentinel before anything buffered behind it.
  while (inbound_->try_pop().has_value()) {
  }
  InboundChunk sentinel;
  sentinel.stop = true;
  inbound_->push_front_now(sentinel);
}

void RoundaboutNode::die() {
  CJ_CHECK_MSG(resilient(), "die is a resilient-mode operation");
  if (stop_) return;
  stop_ = true;
  if (in_wire_ != nullptr) {
    in_wire_->fail();
    out_wire_->fail();
    push_outbound(SendRequest{.stop = true}, /*priority=*/true);
    credits_->set_count(1);
    injection_window_->set_count(1);
    replica_acked_->set_count(static_cast<int>(replicas_sent_));
    // A crash while parked for a splice must still unwind.
    splice_in_done_.set();
    splice_out_done_.set();
  }
  while (inbound_->try_pop().has_value()) {
  }
  InboundChunk sentinel;
  sentinel.stop = true;
  inbound_->push_front_now(sentinel);
}

sim::Task<int> RoundaboutNode::splice_in(Wire* new_in_wire) {
  CJ_CHECK_MSG(resilient() && !stop_, "splice_in on a stopped node");
  CJ_CHECK(new_in_wire != nullptr && in_wire_ != nullptr);
  // Wake the receiver off the dead wire and wait until it has drained the
  // final completions — buffers whose arrival is still queued must not be
  // counted as free below.
  in_wire_->close_recv();
  in_wire_->close_send();  // let the dead wire's NIC sender process exit
  co_await receiver_parked_.wait();
  in_wire_ = new_in_wire;
  co_await in_wire_->prepare(ring_slab_);
  co_await in_wire_->prepare(credit_rx_slab_);
  co_await in_wire_->prepare(credit_tx_slot_);
  int posted = 0;
  for (int idx : posted_idx_) {
    co_await in_wire_->post_recv(static_cast<std::uint64_t>(idx), buffer(idx));
    ++posted;
  }
  splice_in_done_.set();
  co_return posted;
}

sim::Task<void> RoundaboutNode::splice_out(Wire* new_out_wire,
                                           int initial_credits) {
  CJ_CHECK_MSG(resilient() && !stop_, "splice_out on a stopped node");
  CJ_CHECK(new_out_wire != nullptr && out_wire_ != nullptr);
  out_wire_->close_recv();
  out_wire_->close_send();  // let the dead wire's NIC sender process exit
  if (config_.use_credits) co_await credit_parked_.wait();
  out_wire_ = new_out_wire;
  co_await out_wire_->prepare(ring_slab_);
  co_await out_wire_->prepare(credit_rx_slab_);
  co_await out_wire_->prepare(credit_tx_slot_);
  if (config_.use_credits) {
    for (int i = 0; i < config_.num_buffers; ++i) {
      co_await out_wire_->post_recv(
          static_cast<std::uint64_t>(i),
          std::span<std::byte>(credit_rx_slab_)
              .subspan(static_cast<std::size_t>(i) * kCreditBytes, kCreditBytes));
    }
    // Credits counted against the dead successor are void; the new
    // successor reported its free buffers via splice_in.
    credits_->set_count(initial_credits);
  }
  splice_out_done_.set();
}

sim::Task<void> RoundaboutNode::drain() {
  if (resilient()) {
    CJ_CHECK_MSG(stop_, "resilient drain requires request_stop() or die() first");
    co_await done_transmitter_.wait();
    co_await done_receiver_.wait();
    co_await done_credits_.wait();
    co_await done_scanner_.wait();
    if (recycles_inflight_ == 0) done_recycles_.set();
    co_await done_recycles_.wait();
    if (out_wire_ != nullptr) {
      out_wire_->close_send();
      in_wire_->close_send();
      out_wire_->close_recv();
      in_wire_->close_recv();
    }
    if (!inbound_->closed()) inbound_->close();
    co_return;
  }
  co_await done_transmitter_.wait();
  co_await done_receiver_.wait();
  co_await done_recycles_.wait();
  co_await done_credits_.wait();
  if (out_wire_ != nullptr) {
    out_wire_->close_send();   // no more data to the successor
    in_wire_->close_send();    // no more credits to the predecessor
    out_wire_->close_recv();
    in_wire_->close_recv();
  }
  if (!inbound_->closed()) inbound_->close();
}

}  // namespace cj::ring
