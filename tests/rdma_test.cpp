// Unit tests for the verbs substrate: registration, queue pairs,
// send/recv matching, one-sided ops, completion queues, failure modes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/link.h"
#include "rdma/verbs.h"
#include "sim/core_pool.h"
#include "sim/engine.h"
#include "sim/fault.h"

namespace cj::rdma {
namespace {

using sim::Engine;
using sim::Task;

struct Rig {
  Engine engine;
  sim::CorePool cores_a{engine, 4};
  sim::CorePool cores_b{engine, 4};
  net::DuplexLink link{engine, net::LinkSpec{}, "rig"};
  Device dev_a{engine, cores_a, {}, "a"};
  Device dev_b{engine, cores_b, {}, "b"};
  CompletionQueue a_scq{engine, 128}, a_rcq{engine, 128};
  CompletionQueue b_scq{engine, 128}, b_rcq{engine, 128};
  QueuePair* qp_a = nullptr;
  QueuePair* qp_b = nullptr;

  Rig() {
    qp_a = &dev_a.create_qp(&a_scq, &a_rcq);
    qp_b = &dev_b.create_qp(&b_scq, &b_rcq);
    connect(*qp_a, *qp_b, link.forward, link.backward);
  }
};

TEST(MemoryRegion, RegistrationBillsCpuAndTracksBytes) {
  Engine e;
  sim::CorePool cores(e, 4);
  Device dev(e, cores, {}, "d");
  std::vector<std::byte> buf(64 * 1024);
  MemoryRegion* mr = nullptr;
  e.spawn(
      [](Device& dev, std::span<std::byte> buf, MemoryRegion** out) -> Task<void> {
        *out = co_await dev.pd().register_memory(buf);
      }(dev, buf, &mr),
      "reg");
  e.run();
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->size(), buf.size());
  EXPECT_EQ(dev.pd().registered_bytes(), buf.size());
  EXPECT_GT(cores.busy_for("mr-reg"), 0);
  // 16 pages at 400 ns + 10 us base.
  EXPECT_EQ(cores.busy_for("mr-reg"), 10 * kMicrosecond + 16 * 400);
}

TEST(MemoryRegion, FindRegionMatchesContainment) {
  Engine e;
  sim::CorePool cores(e, 4);
  Device dev(e, cores, {}, "d");
  std::vector<std::byte> buf(4096);
  e.spawn(
      [](Device& dev, std::span<std::byte> buf) -> Task<void> {
        co_await dev.pd().register_memory(buf);
      }(dev, buf),
      "reg");
  e.run();
  EXPECT_NE(dev.pd().find_region(buf.data(), 4096), nullptr);
  EXPECT_NE(dev.pd().find_region(buf.data() + 100, 1000), nullptr);
  EXPECT_EQ(dev.pd().find_region(buf.data() + 100, 4096), nullptr);  // overruns
  std::byte other;
  EXPECT_EQ(dev.pd().find_region(&other, 1), nullptr);
}

TEST(MemoryRegion, DeregisterRemoves) {
  Engine e;
  sim::CorePool cores(e, 4);
  Device dev(e, cores, {}, "d");
  std::vector<std::byte> buf(4096);
  MemoryRegion* mr = nullptr;
  e.spawn(
      [](Device& dev, std::span<std::byte> buf, MemoryRegion** out) -> Task<void> {
        *out = co_await dev.pd().register_memory(buf);
      }(dev, buf, &mr),
      "reg");
  e.run();
  dev.pd().deregister(mr);
  EXPECT_EQ(dev.pd().registered_bytes(), 0u);
  EXPECT_EQ(dev.pd().find_region(buf.data(), 1), nullptr);
}

TEST(QueuePair, SendRecvDeliversPayloadAndCompletions) {
  Rig rig;
  std::vector<std::byte> src(8192);
  std::vector<std::byte> dst(8192);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i * 7);

  Completion send_c{}, recv_c{};
  rig.engine.spawn(
      [](Rig& rig, std::span<std::byte> src, std::span<std::byte> dst,
         Completion* send_c, Completion* recv_c) -> Task<void> {
        MemoryRegion* src_mr = co_await rig.dev_a.pd().register_memory(src);
        MemoryRegion* dst_mr = co_await rig.dev_b.pd().register_memory(dst);

        WorkRequest recv;
        recv.wr_id = 77;
        recv.mr = dst_mr;
        recv.length = dst.size();
        EXPECT_TRUE(rig.qp_b->post_recv(recv).is_ok());

        WorkRequest send;
        send.wr_id = 42;
        send.mr = src_mr;
        send.length = src.size();
        EXPECT_TRUE(rig.qp_a->post_send(send).is_ok());

        *send_c = co_await rig.a_scq.next();
        *recv_c = co_await rig.b_rcq.next();
        rig.qp_a->close();
        rig.qp_b->close();
      }(rig, src, dst, &send_c, &recv_c),
      "driver");
  rig.engine.run();
  rig.engine.check_all_complete();

  EXPECT_EQ(send_c.wr_id, 42u);
  EXPECT_EQ(send_c.opcode, Opcode::kSend);
  EXPECT_EQ(recv_c.wr_id, 77u);
  EXPECT_EQ(recv_c.byte_len, src.size());
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
}

TEST(QueuePair, MessagesMatchRecvsInFifoOrder) {
  Rig rig;
  std::vector<std::byte> src(128);
  std::vector<std::byte> dst(4 * 128);
  rig.engine.spawn(
      [](Rig& rig, std::span<std::byte> src, std::span<std::byte> dst) -> Task<void> {
        MemoryRegion* src_mr = co_await rig.dev_a.pd().register_memory(src);
        MemoryRegion* dst_mr = co_await rig.dev_b.pd().register_memory(dst);
        for (int i = 0; i < 4; ++i) {
          WorkRequest recv;
          recv.wr_id = static_cast<std::uint64_t>(i);
          recv.mr = dst_mr;
          recv.offset = static_cast<std::size_t>(i) * 128;
          recv.length = 128;
          EXPECT_TRUE(rig.qp_b->post_recv(recv).is_ok());
        }
        for (int i = 0; i < 4; ++i) {
          std::memset(src.data(), i + 1, src.size());
          WorkRequest send;
          send.wr_id = static_cast<std::uint64_t>(100 + i);
          send.mr = src_mr;
          send.length = src.size();
          EXPECT_TRUE(rig.qp_a->post_send(send).is_ok());
          co_await rig.a_scq.next();  // wait so the source buffer is reusable
        }
        for (int i = 0; i < 4; ++i) {
          const Completion c = co_await rig.b_rcq.next();
          EXPECT_EQ(c.wr_id, static_cast<std::uint64_t>(i));
        }
        rig.qp_a->close();
        rig.qp_b->close();
      }(rig, src, dst),
      "driver");
  rig.engine.run();
  rig.engine.check_all_complete();
  // Message i landed in recv buffer i.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(static_cast<int>(dst[static_cast<std::size_t>(i) * 128]), i + 1);
  }
}

TEST(QueuePair, RdmaWriteIsOneSided) {
  Rig rig;
  std::vector<std::byte> src(1024, std::byte{0xAB});
  std::vector<std::byte> dst(4096);
  rig.engine.spawn(
      [](Rig& rig, std::span<std::byte> src, std::span<std::byte> dst) -> Task<void> {
        MemoryRegion* src_mr = co_await rig.dev_a.pd().register_memory(src);
        MemoryRegion* dst_mr = co_await rig.dev_b.pd().register_memory(dst);
        WorkRequest wr;
        wr.wr_id = 1;
        wr.opcode = Opcode::kRdmaWrite;
        wr.mr = src_mr;
        wr.length = src.size();
        wr.remote_mr = dst_mr;
        wr.remote_offset = 512;
        EXPECT_TRUE(rig.qp_a->post_send(wr).is_ok());
        const Completion c = co_await rig.a_scq.next();
        EXPECT_EQ(c.opcode, Opcode::kRdmaWrite);
        rig.qp_a->close();
        rig.qp_b->close();
      }(rig, src, dst),
      "driver");
  rig.engine.run();
  rig.engine.check_all_complete();
  EXPECT_EQ(dst[512], std::byte{0xAB});
  EXPECT_EQ(dst[511], std::byte{0});
  // No receive was consumed and no receiver completion generated.
  EXPECT_EQ(rig.b_rcq.depth(), 0u);
}

TEST(QueuePair, RdmaReadPullsRemoteData) {
  Rig rig;
  std::vector<std::byte> local(1024);
  std::vector<std::byte> remote(1024, std::byte{0x5C});
  rig.engine.spawn(
      [](Rig& rig, std::span<std::byte> local,
         std::span<std::byte> remote) -> Task<void> {
        MemoryRegion* local_mr = co_await rig.dev_a.pd().register_memory(local);
        MemoryRegion* remote_mr = co_await rig.dev_b.pd().register_memory(remote);
        WorkRequest wr;
        wr.wr_id = 9;
        wr.opcode = Opcode::kRdmaRead;
        wr.mr = local_mr;
        wr.length = local.size();
        wr.remote_mr = remote_mr;
        EXPECT_TRUE(rig.qp_a->post_send(wr).is_ok());
        const Completion c = co_await rig.a_scq.next();
        EXPECT_EQ(c.opcode, Opcode::kRdmaRead);
        rig.qp_a->close();
        rig.qp_b->close();
      }(rig, local, remote),
      "driver");
  rig.engine.run();
  rig.engine.check_all_complete();
  EXPECT_EQ(local[0], std::byte{0x5C});
  EXPECT_EQ(local[1023], std::byte{0x5C});
}

TEST(QueuePair, PostSendOnUnconnectedQpFails) {
  Engine e;
  sim::CorePool cores(e, 4);
  Device dev(e, cores, {}, "d");
  CompletionQueue scq(e, 16), rcq(e, 16);
  QueuePair& qp = dev.create_qp(&scq, &rcq);
  std::vector<std::byte> buf(128);
  MemoryRegion* mr = nullptr;
  e.spawn(
      [](Device& dev, std::span<std::byte> buf, MemoryRegion** out) -> Task<void> {
        *out = co_await dev.pd().register_memory(buf);
      }(dev, buf, &mr),
      "reg");
  e.run();
  WorkRequest wr;
  wr.mr = mr;
  wr.length = 128;
  const Status st = qp.post_send(wr);
  EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition);
}

TEST(QueuePair, SendQueueExhaustionIsReported) {
  Rig rig;
  std::vector<std::byte> buf(16);
  MemoryRegion* mr = nullptr;
  rig.engine.spawn(
      [](Rig& rig, std::span<std::byte> buf, MemoryRegion** out) -> Task<void> {
        *out = co_await rig.dev_a.pd().register_memory(buf);
      }(rig, buf, &mr),
      "reg");
  rig.engine.run();

  // Fill the send queue without running the engine (the NIC never drains).
  WorkRequest wr;
  wr.mr = mr;
  wr.length = 16;
  Status st = Status::ok();
  std::uint32_t posted = 0;
  while ((st = rig.qp_a->post_send(wr)).is_ok()) ++posted;
  EXPECT_EQ(posted, rig.dev_a.attr().max_send_wr);
  EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted);
}

TEST(QueuePair, SendsOnTheWireHoldTheirQueueSlots) {
  // The NIC moves posted sends out of the queue onto the wire, but each
  // keeps its send-queue slot until its completion: with the engine run
  // between posts, the QP still accepts exactly max_send_wr outstanding
  // sends, and frees slots only as completions arrive.
  Engine engine;
  sim::CorePool cores_a(engine, 4);
  sim::CorePool cores_b(engine, 4);
  net::DuplexLink link(engine, net::LinkSpec{}, "rig");
  DeviceAttr attr;
  attr.max_send_wr = 8;
  Device dev_a(engine, cores_a, attr, "a");
  Device dev_b(engine, cores_b, attr, "b");
  CompletionQueue a_scq(engine, 64), a_rcq(engine, 64);
  CompletionQueue b_scq(engine, 64), b_rcq(engine, 64);
  QueuePair& qp_a = dev_a.create_qp(&a_scq, &a_rcq);
  QueuePair& qp_b = dev_b.create_qp(&b_scq, &b_rcq);
  connect(qp_a, qp_b, link.forward, link.backward);

  constexpr std::size_t kBytes = 64;
  std::vector<std::byte> src(kBytes);
  std::vector<std::byte> dst(kBytes * 64);
  MemoryRegion* src_mr = nullptr;
  MemoryRegion* dst_mr = nullptr;
  engine.spawn(
      [](Device& a, Device& b, std::span<std::byte> src, std::span<std::byte> dst,
         MemoryRegion** src_mr, MemoryRegion** dst_mr) -> Task<void> {
        *src_mr = co_await a.pd().register_memory(src);
        *dst_mr = co_await b.pd().register_memory(dst);
      }(dev_a, dev_b, src, dst, &src_mr, &dst_mr),
      "reg");
  engine.run();
  for (std::size_t i = 0; i < 64; ++i) {
    WorkRequest recv;
    recv.mr = dst_mr;
    recv.offset = i * kBytes;
    recv.length = kBytes;
    ASSERT_TRUE(qp_b.post_recv(recv).is_ok());
  }

  WorkRequest send;
  send.mr = src_mr;
  send.length = kBytes;
  const auto post_until_full = [&] {
    std::uint32_t posted = 0;
    Status st = Status::ok();
    while ((st = qp_a.post_send(send)).is_ok()) {
      ++posted;
      // Let the NIC take each send onto the wire before the next post.
      engine.run_until(engine.now() + 200);
    }
    EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted);
    return posted;
  };
  EXPECT_EQ(post_until_full(), attr.max_send_wr);
  // Not one send has completed yet: every slot is still taken.
  EXPECT_EQ(a_scq.depth(), 0u);
  EXPECT_EQ(qp_a.post_send(send).code(), ErrorCode::kResourceExhausted);

  // Once the completions arrive, the slots are free again.
  engine.run();
  EXPECT_EQ(a_scq.depth(), attr.max_send_wr);
  EXPECT_EQ(post_until_full(), attr.max_send_wr);
  qp_a.close();
  qp_b.close();
  engine.run();
}

TEST(QueuePair, RecvQueueExhaustionIsReported) {
  Rig rig;
  std::vector<std::byte> buf(16);
  MemoryRegion* mr = nullptr;
  rig.engine.spawn(
      [](Rig& rig, std::span<std::byte> buf, MemoryRegion** out) -> Task<void> {
        *out = co_await rig.dev_b.pd().register_memory(buf);
      }(rig, buf, &mr),
      "reg");
  rig.engine.run();

  WorkRequest wr;
  wr.mr = mr;
  wr.length = 16;
  Status st = Status::ok();
  std::uint32_t posted = 0;
  while ((st = rig.qp_b->post_recv(wr)).is_ok()) ++posted;
  EXPECT_EQ(posted, rig.dev_b.attr().max_recv_wr);
  EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted);
}

// A rig whose sender-side CQ is too small for the posted work, so send
// completions overrun it while the poller is away.
struct TinyCqRig {
  Engine engine;
  sim::CorePool cores_a{engine, 4};
  sim::CorePool cores_b{engine, 4};
  net::DuplexLink link{engine, net::LinkSpec{}, "rig"};
  Device dev_a{engine, cores_a, {}, "a"};
  Device dev_b{engine, cores_b, {}, "b"};
  CompletionQueue a_scq;
  CompletionQueue a_rcq{engine, 16};
  CompletionQueue b_scq{engine, 16}, b_rcq{engine, 16};
  QueuePair* qp_a = nullptr;
  QueuePair* qp_b = nullptr;

  explicit TinyCqRig(bool abort_on_overrun)
      : a_scq(engine, 2, abort_on_overrun) {
    qp_a = &dev_a.create_qp(&a_scq, &a_rcq);
    qp_b = &dev_b.create_qp(&b_scq, &b_rcq);
    connect(*qp_a, *qp_b, link.forward, link.backward);
  }

  // Moves six messages while nobody polls the send CQ (capacity 2).
  Task<void> flood() {
    std::vector<std::byte> src(64);
    std::vector<std::byte> dst(6 * 64);
    MemoryRegion* src_mr = co_await dev_a.pd().register_memory(src);
    MemoryRegion* dst_mr = co_await dev_b.pd().register_memory(dst);
    for (int i = 0; i < 6; ++i) {
      WorkRequest recv;
      recv.wr_id = static_cast<std::uint64_t>(i);
      recv.mr = dst_mr;
      recv.offset = static_cast<std::size_t>(i) * 64;
      recv.length = 64;
      EXPECT_TRUE(qp_b->post_recv(recv).is_ok());
    }
    for (int i = 0; i < 6; ++i) {
      WorkRequest send;
      send.wr_id = static_cast<std::uint64_t>(100 + i);
      send.mr = src_mr;
      send.length = src.size();
      EXPECT_TRUE(qp_a->post_send(send).is_ok());
    }
    for (int i = 0; i < 6; ++i) co_await b_rcq.next();
  }
};

TEST(CompletionQueueOverrun, SurfacesErrorCompletionToPoller) {
  TinyCqRig rig(/*abort_on_overrun=*/false);
  rig.engine.spawn(rig.flood(), "flood");
  rig.engine.run();

  ASSERT_TRUE(rig.a_scq.overrun());
  EXPECT_EQ(rig.a_scq.depth(), 2u);  // completions posted before the overrun

  std::vector<Completion> polled;
  rig.engine.spawn(
      [](TinyCqRig& rig, std::vector<Completion>& out) -> Task<void> {
        for (int i = 0; i < 4; ++i) out.push_back(co_await rig.a_scq.next());
        rig.qp_a->close();
        rig.qp_b->close();
      }(rig, polled),
      "poller");
  rig.engine.run();
  rig.engine.check_all_complete();

  // The two buffered completions drain first, then the overrun error is
  // reported on every subsequent poll instead of blocking forever.
  ASSERT_EQ(polled.size(), 4u);
  EXPECT_EQ(polled[0].status, WcStatus::kSuccess);
  EXPECT_EQ(polled[1].status, WcStatus::kSuccess);
  EXPECT_EQ(polled[2].status, WcStatus::kCqOverrun);
  EXPECT_EQ(polled[3].status, WcStatus::kCqOverrun);
  EXPECT_FALSE(polled[2].ok());
}

TEST(CompletionQueueOverrunDeath, AbortModeRestoresFailStop) {
  EXPECT_DEATH(
      {
        TinyCqRig rig(/*abort_on_overrun=*/true);
        rig.engine.spawn(rig.flood(), "flood");
        rig.engine.run();
      },
      "completion queue overrun");
}

// ----- streaming sends -------------------------------------------------------

// Posts `n` sends of `msg_bytes` back to back (message i filled with i + 1)
// into `n` posted receives, then collects every completion. Records when
// the last message was placed at the receiver.
struct StreamResult {
  std::vector<Completion> sends;
  std::vector<Completion> recvs;
  std::vector<std::byte> dst;
  SimTime posted_at = 0;
  SimTime last_placed = 0;
};

Task<void> stream_sends(Rig& rig, int n, std::size_t msg_bytes,
                        StreamResult* out) {
  std::vector<std::byte> src(static_cast<std::size_t>(n) * msg_bytes);
  out->dst.assign(src.size(), std::byte{0});
  for (int i = 0; i < n; ++i) {
    std::memset(src.data() + static_cast<std::size_t>(i) * msg_bytes, i + 1,
                msg_bytes);
  }
  MemoryRegion* src_mr = co_await rig.dev_a.pd().register_memory(src);
  MemoryRegion* dst_mr = co_await rig.dev_b.pd().register_memory(out->dst);
  for (int i = 0; i < n; ++i) {
    WorkRequest recv;
    recv.wr_id = static_cast<std::uint64_t>(i);
    recv.mr = dst_mr;
    recv.offset = static_cast<std::size_t>(i) * msg_bytes;
    recv.length = msg_bytes;
    EXPECT_TRUE(rig.qp_b->post_recv(recv).is_ok());
  }
  out->posted_at = rig.engine.now();
  for (int i = 0; i < n; ++i) {
    WorkRequest send;
    send.wr_id = static_cast<std::uint64_t>(100 + i);
    send.mr = src_mr;
    send.offset = static_cast<std::size_t>(i) * msg_bytes;
    send.length = msg_bytes;
    EXPECT_TRUE(rig.qp_a->post_send(send).is_ok());
  }
  for (int i = 0; i < n; ++i) out->recvs.push_back(co_await rig.b_rcq.next());
  out->last_placed = rig.engine.now();
  for (int i = 0; i < n; ++i) out->sends.push_back(co_await rig.a_scq.next());
  rig.qp_a->close();
  rig.qp_b->close();
}

void expect_in_post_order(const StreamResult& result, int n) {
  ASSERT_EQ(result.sends.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(result.recvs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_TRUE(result.sends[idx].ok()) << "send " << i;
    EXPECT_EQ(result.sends[idx].wr_id, static_cast<std::uint64_t>(100 + i));
    EXPECT_EQ(result.recvs[idx].wr_id, static_cast<std::uint64_t>(i));
  }
}

TEST(Streaming, BackToBackSendsPayOnePropagationDelay) {
  // Each work request occupies the wire for its serialization plus the
  // per-WR NIC time; the next one starts the moment it leaves, so the
  // 5 us propagation is paid once for the whole stream, not per message.
  Rig rig;
  constexpr int kSends = 8;
  constexpr std::size_t kBytes = 16 * 1024;
  StreamResult result;
  rig.engine.spawn(stream_sends(rig, kSends, kBytes, &result), "driver");
  rig.engine.run();
  rig.engine.check_all_complete();
  expect_in_post_order(result, kSends);

  const SimDuration wire = rig.link.forward.serialization_time(kBytes) +
                           rig.dev_a.attr().per_wr_nic_overhead;
  const SimDuration propagation = rig.link.forward.spec().propagation_delay;
  EXPECT_EQ(result.last_placed - result.posted_at,
            kSends * wire + propagation);
  EXPECT_LT(result.last_placed - result.posted_at,
            kSends * (wire + propagation));
  EXPECT_EQ(rig.link.forward.busy_time(), kSends * wire);
  for (int i = 0; i < kSends; ++i) {
    EXPECT_EQ(static_cast<int>(result.dst[static_cast<std::size_t>(i) * kBytes]),
              i + 1);
  }
}

TEST(Streaming, DropsAndCorruptionsNeverReorderDeliveries) {
  // A dropped send is retransmitted before any later send is placed, so
  // receive buffer i always holds message i and completions stay in post
  // order on both sides.
  Rig rig;
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.link.drop_prob = 0.3;
  plan.link.corrupt_prob = 0.2;
  sim::FaultInjector injector(rig.engine, plan);
  rig.qp_a->attach_fault_injector(&injector, /*link_id=*/0);

  constexpr int kSends = 24;
  constexpr std::size_t kBytes = 4096;
  StreamResult result;
  rig.engine.spawn(stream_sends(rig, kSends, kBytes, &result), "driver");
  rig.engine.run();
  rig.engine.check_all_complete();
  expect_in_post_order(result, kSends);

  const sim::FaultCounters& faults = injector.counters();
  EXPECT_GT(faults.messages_dropped, 0u);
  EXPECT_GT(faults.messages_corrupted, 0u);
  EXPECT_EQ(rig.qp_a->retransmissions(), faults.messages_dropped);
  // Corruption flips bytes of the one message it hits; every other buffer
  // holds exactly its own message.
  std::uint64_t damaged = 0;
  for (int i = 0; i < kSends; ++i) {
    const std::byte* got = result.dst.data() + static_cast<std::size_t>(i) * kBytes;
    const std::vector<std::byte> want(kBytes, static_cast<std::byte>(i + 1));
    if (std::memcmp(got, want.data(), kBytes) != 0) ++damaged;
  }
  EXPECT_EQ(damaged, faults.messages_corrupted);
}

TEST(Throughput, LargeMessagesApproachWireSpeed) {
  // 16 MB in one message over a 1.25 GB/s link: elapsed time (measured
  // from after registration) should be within a few percent of
  // bytes/bandwidth.
  Rig rig;
  const std::size_t bytes = 16 * 1024 * 1024;
  std::vector<std::byte> src(bytes), dst(bytes);
  SimTime start = 0, end = 0;
  rig.engine.spawn(
      [](Rig& rig, std::span<std::byte> src, std::span<std::byte> dst,
         SimTime* start, SimTime* end) -> Task<void> {
        MemoryRegion* src_mr = co_await rig.dev_a.pd().register_memory(src);
        MemoryRegion* dst_mr = co_await rig.dev_b.pd().register_memory(dst);
        *start = rig.engine.now();
        WorkRequest recv;
        recv.mr = dst_mr;
        recv.length = dst.size();
        EXPECT_TRUE(rig.qp_b->post_recv(recv).is_ok());
        WorkRequest send;
        send.mr = src_mr;
        send.length = src.size();
        EXPECT_TRUE(rig.qp_a->post_send(send).is_ok());
        co_await rig.b_rcq.next();
        *end = rig.engine.now();
        rig.qp_a->close();
        rig.qp_b->close();
      }(rig, src, dst, &start, &end),
      "driver");
  rig.engine.run();
  const double elapsed = to_seconds(end - start);
  const double ideal = static_cast<double>(bytes) / 1.25e9;
  EXPECT_NEAR(elapsed, ideal, ideal * 0.05);
}

}  // namespace
}  // namespace cj::rdma
