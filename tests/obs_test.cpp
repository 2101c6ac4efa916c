// Tests for the observability layer: tracer/metrics units, the binary
// round-trip, span extraction and the derived analyses, plus the two
// system-level guarantees the layer makes:
//
//  - golden traces: the same seed + config produces a byte-identical trace
//    (the 3-host ring trace is checked in under tests/golden/; regenerate
//    with CJ_UPDATE_GOLDEN=1 after an intentional schema change), and
//  - the overlap invariant: per-host core-span time in a trace equals the
//    CorePool busy ledger to the nanosecond, and join work overlaps the
//    transmitter's send windows on every multi-host ring.
//
// The golden harness drives the ring transport with opaque payloads so
// every cost is analytic (link serialization, NIC overheads, consume());
// measured execute() durations vary across machines by design and never
// appear in a golden trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "cyclo/cluster.h"
#include "cyclo/cyclo_join.h"
#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rel/generator.h"
#include "ring/node.h"
#include "sim/engine.h"
#include "sim/sync.h"

namespace cj::obs {

/// Set by `--update-golden` in this binary's main (equivalent to running
/// with CJ_UPDATE_GOLDEN=1): regenerate tests/golden/ instead of comparing.
bool g_update_golden = false;

namespace {

using sim::Task;

// ----- tracer unit behavior ------------------------------------------------

TEST(Tracer, RecordsEventsAndInternsNames) {
  Tracer t;
  t.begin(10, 0, "core0", "join", 42);
  t.end(20, 0, "core0");
  t.instant(15, 1, "ring", "recv", 128);
  t.counter(15, 1, "cores_busy", 3);

  ASSERT_EQ(t.events().size(), 4u);
  EXPECT_EQ(t.events()[0].kind, EventKind::kBegin);
  EXPECT_EQ(t.events()[0].ts, 10);
  EXPECT_EQ(t.events()[0].arg, 42);
  EXPECT_EQ(t.name(t.events()[0].entity), "core0");
  EXPECT_EQ(t.name(t.events()[0].name), "join");
  EXPECT_EQ(t.events()[1].kind, EventKind::kEnd);
  EXPECT_EQ(t.events()[2].host, 1);
  EXPECT_EQ(t.events()[3].kind, EventKind::kCounter);
  EXPECT_EQ(t.events()[3].arg, 3);

  // "core0" is interned once even though begin and end both name it.
  EXPECT_EQ(t.events()[0].entity, t.events()[1].entity);
  EXPECT_EQ(t.find_name("core0"), t.events()[0].entity);
  EXPECT_EQ(t.find_name("no-such-name"), Tracer::kNoName);
}

TEST(Tracer, ChromeJsonIsWellFormedAndNamesTracks) {
  Tracer t;
  t.begin(1'500, 0, "core0", "join", 7);
  t.end(2'500, 0, "core0");
  t.instant(3'000, kGlobalHost, "fault", "fault.drop", 4);
  t.counter(3'000, 0, "cores_busy", 1);

  const std::string json = t.chrome_json();
  // Envelope + metadata naming the host-0 process and the fault track.
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"host0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"faults\""), std::string::npos);
  // Timestamps are microseconds with fixed 3-digit ns fractions.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.500"), std::string::npos);
  // One B, one E, one i, one C phase.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Tracer, BinaryRoundTripIsExact) {
  Tracer t;
  t.begin(0, 0, "tx", "send", 4096);
  t.instant(999, kGlobalHost, "fault", "fault.crash", 2);
  t.end(1'000'000'007, 0, "tx");
  t.counter(5, 3, "cores_busy", -1);

  const std::vector<std::uint8_t> bytes = t.binary();
  Tracer back;
  ASSERT_TRUE(Tracer::parse_binary(bytes, back));
  ASSERT_EQ(back.events().size(), t.events().size());
  for (std::size_t i = 0; i < t.events().size(); ++i) {
    EXPECT_EQ(back.events()[i], t.events()[i]) << "event " << i;
  }
  ASSERT_EQ(back.num_names(), t.num_names());
  for (std::uint32_t i = 0; i < t.num_names(); ++i) {
    EXPECT_EQ(back.name(i), t.name(i));
  }
}

TEST(Tracer, ParseBinaryRejectsCorruptInput) {
  Tracer t;
  t.instant(1, 0, "ring", "recv", 0);
  std::vector<std::uint8_t> bytes = t.binary();

  Tracer out1;
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(Tracer::parse_binary(truncated, out1));

  Tracer out2;
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(Tracer::parse_binary(bad_magic, out2));

  Tracer out3;
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(Tracer::parse_binary(trailing, out3));

  Tracer out4;
  EXPECT_FALSE(Tracer::parse_binary({}, out4));
}

// ----- metrics -------------------------------------------------------------

TEST(Metrics, CountersGaugesAndHistogramSummaries) {
  MetricsRegistry reg;
  reg.add_counter("bytes_on_wire", 100);
  reg.add_counter("bytes_on_wire", 28);
  reg.set_gauge("cpu_load_join", 0.75);
  for (std::int64_t s : {30, 10, 20, 40, 50, 60, 70, 80, 90, 100}) {
    reg.record("revolution_ns", s);
  }

  EXPECT_EQ(reg.counter("bytes_on_wire"), 128);
  EXPECT_EQ(reg.counter("never_touched"), 0);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("bytes_on_wire"), 128);
  EXPECT_DOUBLE_EQ(snap.gauges.at("cpu_load_join"), 0.75);
  const HistogramSummary& h = snap.histograms.at("revolution_ns");
  EXPECT_EQ(h.count, 10u);
  EXPECT_EQ(h.min, 10);
  EXPECT_EQ(h.max, 100);
  EXPECT_DOUBLE_EQ(h.mean, 55.0);
  // Nearest rank on the sorted samples (rank = floor(q * n)).
  EXPECT_EQ(h.p50, 60);
  EXPECT_EQ(h.p90, 100);
  EXPECT_EQ(h.p99, 100);
}

TEST(Metrics, HistogramQuantilesNearestRankEdgeCases) {
  // Nearest rank is rank = floor(q * n) on the sorted samples — pin the
  // edge cases so a future "improvement" to interpolated quantiles is a
  // deliberate schema change, not an accident (summaries are diffed in
  // checked-in BENCH_*.json files).
  {
    MetricsRegistry reg;  // single sample: every quantile is that sample
    reg.record("h", -7);
    const MetricsSnapshot snap = reg.snapshot();
    const HistogramSummary& h = snap.histograms.at("h");
    EXPECT_EQ(h.count, 1u);
    EXPECT_EQ(h.min, -7);
    EXPECT_EQ(h.max, -7);
    EXPECT_DOUBLE_EQ(h.mean, -7.0);
    EXPECT_EQ(h.p50, -7);
    EXPECT_EQ(h.p90, -7);
    EXPECT_EQ(h.p99, -7);
  }
  {
    MetricsRegistry reg;  // two samples: floor(0.5 * 2) = 1 -> upper sample
    reg.record("h", 10);
    reg.record("h", 20);
    const MetricsSnapshot snap = reg.snapshot();
    const HistogramSummary& h = snap.histograms.at("h");
    EXPECT_EQ(h.p50, 20);
    EXPECT_EQ(h.p90, 20);
    EXPECT_EQ(h.p99, 20);
    EXPECT_DOUBLE_EQ(h.mean, 15.0);
  }
  {
    MetricsRegistry reg;  // 100 distinct samples: ranks land exactly
    for (std::int64_t v = 100; v >= 1; --v) reg.record("h", v);
    const MetricsSnapshot snap = reg.snapshot();
    const HistogramSummary& h = snap.histograms.at("h");
    EXPECT_EQ(h.p50, 51);   // sorted[50]
    EXPECT_EQ(h.p90, 91);   // sorted[90]
    EXPECT_EQ(h.p99, 100);  // sorted[99]
  }
  {
    MetricsRegistry reg;  // all-equal samples collapse every statistic
    for (int i = 0; i < 17; ++i) reg.record("h", 42);
    const MetricsSnapshot snap = reg.snapshot();
    const HistogramSummary& h = snap.histograms.at("h");
    EXPECT_EQ(h.min, 42);
    EXPECT_EQ(h.max, 42);
    EXPECT_EQ(h.p50, 42);
    EXPECT_EQ(h.p99, 42);
    EXPECT_DOUBLE_EQ(h.mean, 42.0);
  }
  {
    MetricsRegistry reg;  // never-recorded histograms do not exist at all
    reg.add_counter("c", 1);
    EXPECT_EQ(reg.snapshot().histograms.count("h"), 0u);
  }
}

TEST(Tracer, BinaryRoundTripFuzz) {
  // Randomized CJT1 round trips: any event sequence the tracer can record
  // must survive binary() -> parse_binary() exactly, and every *strict
  // prefix* of the encoding must be rejected (the format has no trailing
  // slack: truncation anywhere is detectable).
  Rng rng(0xC17'0BEEF);
  const char* entities[] = {"core0", "core1", "tx", "ring", "qp0"};
  const char* names[] = {"join", "send", "recv", "probe", "fault.crash"};

  for (int iter = 0; iter < 8; ++iter) {
    Tracer t;
    const int events = static_cast<int>(rng.next_in(1, 40));
    std::int64_t ts = 0;
    for (int e = 0; e < events; ++e) {
      ts += static_cast<std::int64_t>(rng.next_below(1'000'000));
      const int host = static_cast<int>(rng.next_below(4));
      const char* entity = entities[rng.next_below(std::size(entities))];
      const char* name = names[rng.next_below(std::size(names))];
      const auto arg = static_cast<std::int64_t>(rng.next()) >> 1;
      switch (rng.next_below(4)) {
        case 0: t.begin(ts, host, entity, name, arg); break;
        case 1: t.end(ts, host, entity); break;
        case 2: t.instant(ts, host, entity, name, arg); break;
        default: t.counter(ts, host, name, arg); break;
      }
    }

    const std::vector<std::uint8_t> bytes = t.binary();
    Tracer back;
    ASSERT_TRUE(Tracer::parse_binary(bytes, back)) << "iter " << iter;
    ASSERT_EQ(back.events().size(), t.events().size());
    for (std::size_t i = 0; i < t.events().size(); ++i) {
      EXPECT_EQ(back.events()[i], t.events()[i]) << "iter " << iter;
    }
    ASSERT_EQ(back.num_names(), t.num_names());
    for (std::uint32_t i = 0; i < t.num_names(); ++i) {
      EXPECT_EQ(back.name(i), t.name(i));
    }

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      Tracer reject;
      ASSERT_FALSE(Tracer::parse_binary(
          std::vector<std::uint8_t>(bytes.begin(),
                                    bytes.begin() + static_cast<std::ptrdiff_t>(cut)),
          reject))
          << "iter " << iter << ": strict prefix of " << cut << "/"
          << bytes.size() << " bytes parsed";
    }
  }
}

TEST(Metrics, SnapshotJsonIsStable) {
  MetricsRegistry reg;
  reg.add_counter("b", 2);
  reg.add_counter("a", 1);
  reg.set_gauge("g", 0.5);
  const std::string json = reg.snapshot().to_json();
  // Keys are map-ordered, so the layout is deterministic.
  EXPECT_EQ(json,
            "{\"counters\":{\"a\":1,\"b\":2},\"gauges\":{\"g\":0.5},"
            "\"histograms\":{}}");
}

// ----- span extraction and analyses ----------------------------------------

TEST(Analysis, ExtractSpansPairsAndNestsPerTrack) {
  Tracer t;
  t.begin(0, 0, "qp0", "rdma.send", 100);   // outer
  t.begin(10, 0, "qp0", "rdma.retry", 1);   // nested
  t.end(20, 0, "qp0");                      // closes retry
  t.begin(30, 1, "qp0", "rdma.send", 0);    // other host, own track
  t.end(40, 0, "qp0");                      // closes send
  t.end(45, 2, "core0");                    // stray end: ignored
  t.instant(50, 0, "ring", "recv", 0);      // last timestamp: closes open spans

  const std::vector<Span> spans = extract_spans(t);
  ASSERT_EQ(spans.size(), 3u);

  std::map<std::tuple<int, std::int64_t>, const Span*> by_start;
  for (const Span& s : spans) by_start[{s.host, s.start}] = &s;

  const Span* outer = by_start.at({0, 0});
  EXPECT_EQ(t.name(outer->name), "rdma.send");
  EXPECT_EQ(outer->end, 40);
  EXPECT_EQ(outer->depth, 0u);

  const Span* retry = by_start.at({0, 10});
  EXPECT_EQ(t.name(retry->name), "rdma.retry");
  EXPECT_EQ(retry->end, 20);
  EXPECT_EQ(retry->depth, 1u);

  // Unclosed span on host 1 is closed at the trace's last timestamp.
  const Span* open = by_start.at({1, 30});
  EXPECT_EQ(open->end, 50);
}

TEST(Analysis, OverlapMeasuresJoinTimeInsideTransferWindows) {
  Tracer t;
  // Host 0: one 100 ns send window [0, 100); two cores join [50, 150).
  t.begin(0, 0, "tx", "send", 4096);
  t.begin(50, 0, "core0", "join", 0);
  t.begin(50, 0, "core1", "join", 0);
  t.end(100, 0, "tx");
  t.end(150, 0, "core0");
  t.end(150, 0, "core1");
  // Host 1: joins but never transmits (ring tail): ratio 0.
  t.begin(0, 1, "core0", "join", 0);
  t.end(80, 1, "core0");

  const std::vector<HostOverlap> ov = overlap_by_host(t);
  ASSERT_EQ(ov.size(), 2u);
  EXPECT_EQ(ov[0].host, 0);
  EXPECT_EQ(ov[0].transfer_time, 100);
  EXPECT_EQ(ov[0].join_busy_total, 200);     // two cores x 100 ns
  EXPECT_EQ(ov[0].join_busy_in_transfer, 100);  // two cores x [50, 100)
  EXPECT_DOUBLE_EQ(ov[0].ratio, 1.0);
  EXPECT_EQ(ov[1].host, 1);
  EXPECT_EQ(ov[1].transfer_time, 0);
  EXPECT_DOUBLE_EQ(ov[1].ratio, 0.0);
}

TEST(Analysis, CriticalPathAttributesMakespanAndBalances) {
  Tracer t;
  // Host 0 finishes last (end 200). Innermost-span attribution: "setup"
  // [0,50), idle [50,80), "join" [80,200) with a nested "probe" [100,120).
  t.begin(0, 0, "core0", "setup", 0);
  t.end(50, 0, "core0");
  t.begin(80, 0, "core0", "join", 0);
  t.begin(100, 0, "core0", "probe", 0);
  t.end(120, 0, "core0");
  t.end(200, 0, "core0");
  // A faster host, ignored by the critical path.
  t.begin(0, 1, "core0", "join", 0);
  t.end(90, 1, "core0");

  const CriticalPath cp = critical_path(t);
  EXPECT_EQ(cp.host, 0);
  EXPECT_EQ(cp.end, 200);
  EXPECT_EQ(cp.idle, 30);

  std::map<std::string, std::int64_t> by_tag(cp.by_tag.begin(), cp.by_tag.end());
  EXPECT_EQ(by_tag.at("setup"), 50);
  EXPECT_EQ(by_tag.at("join"), 100);  // [80,100) + [120,200)
  EXPECT_EQ(by_tag.at("probe"), 20);

  std::int64_t total = cp.idle;
  for (const auto& [_, d] : cp.by_tag) total += d;
  EXPECT_EQ(total, cp.end);  // the decomposition is exact
}

// ----- golden traces: analytic-cost ring harness ---------------------------

// Drives the ring transport with opaque payloads (as ring_test does) so the
// whole run is analytic and the trace is byte-identical across machines.
struct TracedRing {
  sim::Engine engine;
  Tracer tracer;
  cyclo::Cluster cluster;
  int n;
  std::uint64_t chunks_per_host;
  std::size_t payload_size;
  std::vector<std::vector<std::byte>> slabs;

  static cyclo::ClusterConfig config(int hosts, int buffers,
                                     std::size_t buffer_bytes) {
    cyclo::ClusterConfig cfg;
    cfg.num_hosts = hosts;
    cfg.cores_per_host = 2;
    cfg.node.num_buffers = buffers;
    cfg.node.buffer_bytes = buffer_bytes;
    return cfg;
  }

  TracedRing(int hosts, std::uint64_t chunks_per_host, std::size_t payload)
      : cluster((engine.set_tracer(&tracer), engine),
                config(hosts, 4, payload)),
        n(hosts),
        chunks_per_host(chunks_per_host),
        payload_size(payload) {
    for (int i = 0; i < n; ++i) {
      std::vector<std::byte> slab(chunks_per_host * payload_size);
      for (std::uint64_t c = 0; c < chunks_per_host; ++c) {
        slab[c * payload_size] = static_cast<std::byte>(i);
        slab[c * payload_size + 1] = static_cast<std::byte>(c);
      }
      slabs.push_back(std::move(slab));
    }
  }

  Task<void> host_process(int i) {
    ring::RoundaboutNode& node = cluster.node(i);
    const std::uint64_t global = chunks_per_host * static_cast<std::uint64_t>(n);
    {
      std::vector<std::span<std::byte>> s;
      s.push_back(slabs[static_cast<std::size_t>(i)]);
      co_await node.start(ring::NodeCounts{global, global}, std::move(s));
    }
    engine.spawn(injector(i), "inj");
    for (std::uint64_t k = 0; k < global - chunks_per_host; ++k) {
      ring::InboundChunk chunk = co_await node.next_chunk();
      const int origin = static_cast<int>(chunk.payload[0]);
      if (cluster.fabric().successor(i) == origin) {
        node.retire(chunk);
      } else {
        node.forward(chunk);
      }
    }
    co_await node.drain();
  }

  Task<void> injector(int i) {
    ring::RoundaboutNode& node = cluster.node(i);
    for (std::uint64_t c = 0; c < chunks_per_host; ++c) {
      co_await node.send_local(
          std::span<const std::byte>(slabs[static_cast<std::size_t>(i)])
              .subspan(c * payload_size, payload_size));
    }
  }

  void run() {
    for (int i = 0; i < n; ++i) {
      engine.spawn(host_process(i), "host" + std::to_string(i));
    }
    engine.run();
    engine.check_all_complete();
  }
};

TEST(GoldenTrace, SameSeedAndConfigGivesByteIdenticalTraces) {
  TracedRing a(3, 2, 128);
  a.run();
  TracedRing b(3, 2, 128);
  b.run();

  ASSERT_FALSE(a.tracer.events().empty());
  EXPECT_EQ(a.tracer.binary(), b.tracer.binary());
  EXPECT_EQ(a.tracer.chrome_json(), b.tracer.chrome_json());
}

TEST(GoldenTrace, ThreeHostRingMatchesCheckedInGolden) {
  TracedRing ring(3, 2, 128);
  ring.run();
  const std::string json = ring.tracer.chrome_json();

  const std::string path =
      std::string(CJ_TEST_GOLDEN_DIR) + "/obs_3host_trace.json";
  if (g_update_golden || std::getenv("CJ_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << json;
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with CJ_UPDATE_GOLDEN=1 to create it)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str())
      << "trace schema drifted from tests/golden/obs_3host_trace.json; if "
         "the change is intentional, regenerate with CJ_UPDATE_GOLDEN=1";
}

TEST(GoldenTrace, RingEventsCoverTheProtocol) {
  TracedRing ring(3, 2, 128);
  ring.run();
  const Tracer& t = ring.tracer;

  auto instants = [&](std::string_view name) {
    const std::uint32_t id = t.find_name(name);
    std::size_t count = 0;
    for (const TraceEvent& e : t.events()) {
      if (e.kind == EventKind::kInstant && e.name == id) ++count;
    }
    return id == Tracer::kNoName ? 0 : count;
  };
  // 6 chunks injected, each forwarded once (middle hop) and retired once.
  EXPECT_EQ(instants("inject"), 6u);
  EXPECT_EQ(instants("forward"), 6u);
  EXPECT_EQ(instants("retire"), 6u);
  // Every host receives 4 data chunks (2 from each of 2 other hosts).
  EXPECT_EQ(instants("recv"), 12u);
  // Every retire triggers a zero-length ack that full-circles to the origin.
  EXPECT_GT(instants("ack"), 0u);
}

// ----- overlap invariant on real joins -------------------------------------

class OverlapMatrix
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(OverlapMatrix, TraceCoreTimeEqualsLedgerAndJoinOverlapsTransfer) {
  const auto [hosts, buffer_bytes] = GetParam();
  rel::Relation r =
      rel::generate({.rows = 20'000, .key_domain = 5'000, .seed = 31}, "R", 1);
  rel::Relation s =
      rel::generate({.rows = 20'000, .key_domain = 5'000, .seed = 32}, "S", 2);

  cyclo::ClusterConfig cfg;
  cfg.num_hosts = hosts;
  cfg.cores_per_host = 2;
  cfg.node.num_buffers = 4;
  cfg.node.buffer_bytes = buffer_bytes;
  cfg.trace.enabled = true;

  cyclo::CycloJoin cyclo(cfg, {.algorithm = cyclo::Algorithm::kHashJoin});
  const cyclo::RunReport report = cyclo.run(r, s);
  ASSERT_NE(report.trace, nullptr);

  // Per host: the summed core-span time in the trace must equal the
  // CorePool busy ledger exactly — the spans bracket precisely the virtual
  // occupancy that bill() records.
  const std::vector<Span> spans = extract_spans(*report.trace);
  for (int h = 0; h < hosts; ++h) {
    std::int64_t from_trace = 0;
    for (const Span& span : spans) {
      if (span.host != h) continue;
      const std::string_view entity = report.trace->name(span.entity);
      if (entity.starts_with("core")) from_trace += span.end - span.start;
      // Interleaved charges (RDMA doorbells) overlap one another; each has
      // a track to itself, so its span lasts exactly the cost it billed.
      if (entity.starts_with("cores")) {
        EXPECT_EQ(span.depth, 0u) << entity << " nests spans on host " << h;
        EXPECT_EQ(span.end - span.start, span.arg) << entity << " on host " << h;
      }
    }
    std::int64_t from_ledger = 0;
    for (const auto& [tag, busy] :
         report.hosts[static_cast<std::size_t>(h)].busy_by_tag) {
      from_ledger += busy;
    }
    EXPECT_EQ(from_trace, from_ledger) << "host " << h;
  }

  // Multi-host rings overlap join work with their transfers.
  const std::vector<HostOverlap> ov = overlap_by_host(*report.trace);
  ASSERT_EQ(ov.size(), static_cast<std::size_t>(hosts));
  for (const HostOverlap& o : ov) {
    if (hosts == 1) {
      EXPECT_EQ(o.transfer_time, 0) << "host " << o.host;
    } else {
      EXPECT_GT(o.transfer_time, 0) << "host " << o.host;
      EXPECT_GT(o.ratio, 0.0) << "host " << o.host;
    }
  }

  // The derived gauges in the metrics snapshot agree with the analysis.
  for (const HostOverlap& o : ov) {
    const double gauge = report.metrics.gauges.at(
        "host" + std::to_string(o.host) + ".overlap_ratio");
    EXPECT_DOUBLE_EQ(gauge, o.ratio);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RingsByChunkSize, OverlapMatrix,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(std::size_t{16} * 1024,
                                         std::size_t{64} * 1024)));

// Sends stream, so a host's send spans overlap. Each takes its own track
// ("tx", "tx1", ...): no track ever nests two spans, every span carries its
// own message's bytes, and overlap_by_host still measures the union of the
// send windows.
TEST(TracedJoin, OverlappingSendsKeepTheirOwnSpans) {
  rel::Relation r =
      rel::generate({.rows = 40'000, .key_domain = 9'000, .seed = 61}, "R", 1);
  rel::Relation s =
      rel::generate({.rows = 40'000, .key_domain = 9'000, .seed = 62}, "S", 2);
  cyclo::ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.cores_per_host = 2;
  cfg.node.num_buffers = 8;
  cfg.node.buffer_bytes = 16 * 1024;
  cfg.trace.enabled = true;
  cyclo::CycloJoin cyclo(cfg, {.algorithm = cyclo::Algorithm::kHashJoin});
  const cyclo::RunReport report = cyclo.run(r, s);
  ASSERT_NE(report.trace, nullptr);

  std::map<int, std::int64_t> bytes;
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> windows;
  std::map<int, std::set<std::string_view>> tracks;
  for (const Span& span : extract_spans(*report.trace)) {
    const std::string_view entity = report.trace->name(span.entity);
    if (!entity.starts_with("tx")) continue;
    EXPECT_EQ(span.depth, 0u) << entity << " nests spans on host " << span.host;
    EXPECT_EQ(report.trace->name(span.name), "send");
    bytes[span.host] += span.arg;
    windows[span.host].emplace_back(span.start, span.end);
    tracks[span.host].insert(entity);
  }
  bool overlapped = false;
  for (int h = 0; h < cfg.num_hosts; ++h) {
    const auto idx = static_cast<std::size_t>(h);
    EXPECT_EQ(bytes[h],
              static_cast<std::int64_t>(report.hosts[idx].bytes_sent))
        << "host " << h;
    overlapped = overlapped || tracks[h].size() > 1;
  }
  EXPECT_TRUE(overlapped) << "no host ever had two sends in flight";

  // The union of each host's send windows is its transfer time.
  for (const HostOverlap& o : overlap_by_host(*report.trace)) {
    auto& w = windows[o.host];
    std::sort(w.begin(), w.end());
    std::int64_t covered = 0;
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& [start, end] : w) {
      if (end <= reach) continue;
      covered += end - std::max(start, reach);
      reach = end;
    }
    EXPECT_EQ(o.transfer_time, covered) << "host " << o.host;
  }
}

TEST(TracedJoin, DisabledByDefaultAndCheap) {
  rel::Relation r = rel::generate({.rows = 5'000, .seed = 41}, "R", 1);
  rel::Relation s = rel::generate({.rows = 5'000, .seed = 42}, "S", 2);
  cyclo::ClusterConfig cfg;
  cfg.num_hosts = 2;
  cyclo::CycloJoin cyclo(cfg, {.algorithm = cyclo::Algorithm::kHashJoin});
  const cyclo::RunReport report = cyclo.run(r, s);
  EXPECT_EQ(report.trace, nullptr);
  // Metrics are always on (integer adds, no trace storage).
  EXPECT_FALSE(report.metrics.empty());
  EXPECT_GT(report.metrics.counters.at("bytes_on_wire"), 0);
  EXPECT_EQ(report.metrics.gauges.count("host0.overlap_ratio"), 0u);
}

TEST(TracedJoin, RevolutionHistogramCountsFullCircles) {
  rel::Relation r = rel::generate({.rows = 20'000, .seed = 51}, "R", 1);
  rel::Relation s = rel::generate({.rows = 20'000, .seed = 52}, "S", 2);
  cyclo::ClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.node.buffer_bytes = 16 * 1024;
  cyclo::CycloJoin cyclo(cfg, {.algorithm = cyclo::Algorithm::kHashJoin});
  const cyclo::RunReport report = cyclo.run(r, s);

  const HistogramSummary& rev = report.metrics.histograms.at("revolution_ns");
  // Every injected chunk makes exactly one full revolution.
  EXPECT_EQ(rev.count,
            static_cast<std::uint64_t>(
                report.metrics.counters.at("chunks_injected")));
  EXPECT_GT(rev.min, 0);
  EXPECT_LE(rev.p50, rev.p99);
}

// ----- log sink ------------------------------------------------------------

TEST(LogSink, CapturesBlockedWaiterDiagnostics) {
  std::vector<std::string> captured;
  set_log_sink([&](LogLevel, const std::string& msg) {
    captured.push_back(msg);
  });

  sim::Engine engine;
  sim::Event never(engine, "never-set");
  engine.spawn(
      [](sim::Event& ev) -> Task<void> { co_await ev.wait(); }(never),
      "stuck");
  engine.run();  // queue drains with the process parked on the event
  engine.dump_blocked();
  set_log_sink(nullptr);

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NE(captured[0].find("blocked waiters (1)"), std::string::npos);
  EXPECT_NE(captured[0].find("event"), std::string::npos);
  EXPECT_NE(captured[0].find("never-set"), std::string::npos);
}

TEST(LogSink, NullSinkRestoresStderrPath) {
  // After restoring, logging must not crash (output goes to stderr again).
  set_log_sink(nullptr);
  CJ_LOG(kWarn) << "obs_test: stderr path restored";
}

}  // namespace
}  // namespace cj::obs

// Custom main (NO_GTEST_MAIN in tests/CMakeLists.txt) so the golden files
// can be regenerated with `obs_test --update-golden` after an intentional
// trace-schema change (docs/OBSERVABILITY.md).
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--update-golden") {
      cj::obs::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
