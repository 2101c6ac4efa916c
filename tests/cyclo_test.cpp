// End-to-end tests of the cyclo-join orchestrator: distributed runs must
// produce exactly the matches and checksum of a single-host reference, for
// every algorithm, transport and ring size.
#include "cyclo/cyclo_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "join/local_join.h"
#include "join/nested_loops.h"
#include "rel/generator.h"

namespace cj::cyclo {
namespace {

struct Reference {
  std::uint64_t matches;
  std::uint64_t checksum;
};

Reference reference_equi(const rel::Relation& r, const rel::Relation& s) {
  join::JoinResult res = join::local_hash_join(r.tuples(), s.tuples());
  return {res.matches(), res.checksum()};
}

ClusterConfig small_cluster(int hosts, Transport transport = Transport::kRdma) {
  ClusterConfig cfg;
  cfg.num_hosts = hosts;
  cfg.cores_per_host = 4;
  cfg.node.buffer_bytes = 64 * 1024;  // small buffers → many chunks → more rotation
  cfg.node.num_buffers = 4;
  cfg.transport = transport;
  return cfg;
}

class CycloRingSizes : public ::testing::TestWithParam<int> {};

TEST_P(CycloRingSizes, HashJoinMatchesLocalReference) {
  const int hosts = GetParam();
  auto r = rel::generate({.rows = 40'000, .key_domain = 9'000, .seed = 7}, "R", 1);
  auto s = rel::generate({.rows = 40'000, .key_domain = 9'000, .seed = 8}, "S", 2);
  const Reference ref = reference_equi(r, s);

  CycloJoin cyclo(small_cluster(hosts), JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport report = cyclo.run(r, s);

  EXPECT_EQ(report.matches, ref.matches);
  EXPECT_EQ(report.checksum, ref.checksum);
  EXPECT_EQ(static_cast<int>(report.hosts.size()), hosts);
}

TEST_P(CycloRingSizes, SortMergeJoinMatchesLocalReference) {
  const int hosts = GetParam();
  auto r = rel::generate({.rows = 30'000, .key_domain = 7'000, .seed = 17}, "R", 1);
  auto s = rel::generate({.rows = 30'000, .key_domain = 7'000, .seed = 18}, "S", 2);
  const Reference ref = reference_equi(r, s);

  CycloJoin cyclo(small_cluster(hosts),
                  JoinSpec{.algorithm = Algorithm::kSortMergeJoin});
  const RunReport report = cyclo.run(r, s);

  EXPECT_EQ(report.matches, ref.matches);
  EXPECT_EQ(report.checksum, ref.checksum);
}

INSTANTIATE_TEST_SUITE_P(RingSizes, CycloRingSizes, ::testing::Values(1, 2, 3, 4, 6));

// The rt backend runs the same protocol as real threads and shared-memory
// wires; results must still equal the local reference exactly. (The full
// sim-vs-rt parity sweep, including skew and crashes, lives in rt_test.)
class CycloRtRingSizes : public ::testing::TestWithParam<int> {};

TEST_P(CycloRtRingSizes, HashJoinOnRtBackendMatchesLocalReference) {
  const int hosts = GetParam();
  auto r = rel::generate({.rows = 20'000, .key_domain = 5'000, .seed = 7}, "R", 1);
  auto s = rel::generate({.rows = 20'000, .key_domain = 5'000, .seed = 8}, "S", 2);
  const Reference ref = reference_equi(r, s);

  ClusterConfig cfg = small_cluster(hosts);
  cfg.backend = Backend::kRt;
  CycloJoin cyclo(cfg, JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport report = cyclo.run(r, s);

  EXPECT_EQ(report.matches, ref.matches);
  EXPECT_EQ(report.checksum, ref.checksum);
  EXPECT_EQ(static_cast<int>(report.hosts.size()), hosts);
}

INSTANTIATE_TEST_SUITE_P(RingSizes, CycloRtRingSizes, ::testing::Values(1, 2, 4));

TEST(CycloJoinTcp, HashJoinOverTcpTransport) {
  auto r = rel::generate({.rows = 20'000, .key_domain = 5'000, .seed = 3}, "R", 1);
  auto s = rel::generate({.rows = 20'000, .key_domain = 5'000, .seed = 4}, "S", 2);
  const Reference ref = reference_equi(r, s);

  CycloJoin cyclo(small_cluster(4, Transport::kTcp),
                  JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport report = cyclo.run(r, s);

  EXPECT_EQ(report.matches, ref.matches);
  EXPECT_EQ(report.checksum, ref.checksum);
}

TEST(CycloJoinBand, BandJoinMatchesNestedLoopsOracle) {
  auto r = rel::generate({.rows = 4'000, .key_domain = 2'000, .seed = 5}, "R", 1);
  auto s = rel::generate({.rows = 4'000, .key_domain = 2'000, .seed = 6}, "S", 2);
  join::JoinResult oracle;
  join::nested_loops_band_join(r.tuples(), s.tuples(), 5, oracle);

  CycloJoin cyclo(small_cluster(3),
                  JoinSpec{.algorithm = Algorithm::kSortMergeJoin, .band = 5});
  const RunReport report = cyclo.run(r, s);

  EXPECT_EQ(report.matches, oracle.matches());
  EXPECT_EQ(report.checksum, oracle.checksum());
}

TEST(CycloJoinNestedLoops, ArbitraryPredicate) {
  auto r = rel::generate({.rows = 1'500, .key_domain = 600, .seed = 9}, "R", 1);
  auto s = rel::generate({.rows = 1'500, .key_domain = 600, .seed = 10}, "S", 2);
  const auto pred = [](const rel::Tuple& a, const rel::Tuple& b) {
    return a.key % 97 == b.key % 97;  // neither equi nor band
  };
  join::JoinResult oracle;
  join::nested_loops_join(r.tuples(), s.tuples(), pred, oracle);

  JoinSpec spec;
  spec.algorithm = Algorithm::kNestedLoops;
  spec.predicate = pred;
  CycloJoin cyclo(small_cluster(3), spec);
  const RunReport report = cyclo.run(r, s);

  EXPECT_EQ(report.matches, oracle.matches());
  EXPECT_EQ(report.checksum, oracle.checksum());
}

TEST(CycloJoinMaterialize, OutputIsDistributedPartition) {
  auto r = rel::generate({.rows = 3'000, .key_domain = 1'000, .seed = 11}, "R", 1);
  auto s = rel::generate({.rows = 3'000, .key_domain = 1'000, .seed = 12}, "S", 2);
  join::JoinResult oracle(true);
  join::nested_loops_equi_join(r.tuples(), s.tuples(), oracle);

  JoinSpec spec;
  spec.algorithm = Algorithm::kHashJoin;
  spec.materialize = true;
  CycloJoin cyclo(small_cluster(3), spec);
  const RunReport report = cyclo.run(r, s);

  // The union of the per-host outputs is exactly the join result; the
  // stable accessor sizes the distributed partition without touching the
  // tuples.
  std::uint64_t total = 0;
  const std::vector<OutputFragment> frags = report.output_fragments();
  ASSERT_EQ(frags.size(), report.host_results.size());
  for (std::size_t i = 0; i < frags.size(); ++i) {
    EXPECT_EQ(frags[i].rows, report.host_results[i].output().size());
    EXPECT_EQ(frags[i].bytes, frags[i].rows * sizeof(join::OutTuple));
    total += frags[i].rows;
  }
  EXPECT_EQ(total, oracle.matches());
  EXPECT_EQ(report.checksum, oracle.checksum());
}

TEST(CycloJoinStats, SaneTimingAndTransportStats) {
  auto r = rel::generate({.rows = 50'000, .key_domain = 20'000, .seed = 13}, "R", 1);
  auto s = rel::generate({.rows = 50'000, .key_domain = 20'000, .seed = 14}, "S", 2);

  CycloJoin cyclo(small_cluster(4), JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport report = cyclo.run(r, s);

  EXPECT_GT(report.setup_wall, 0);
  EXPECT_GT(report.join_wall, 0);
  EXPECT_GE(report.total_wall, report.join_wall);
  EXPECT_GT(report.bytes_on_wire, 0u);
  for (const auto& host : report.hosts) {
    EXPECT_GT(host.setup, 0);
    EXPECT_GT(host.join_phase, 0);
    EXPECT_GE(host.cpu_load_join, 0.0);
    EXPECT_LE(host.cpu_load_join, 1.0 + 1e-9);
    EXPECT_GT(host.chunks_processed, 0u);
  }
}

// ----- the join entity's look-ahead ----------------------------------------

// A chunk's join tasks start while the previous chunk still joins, but
// chunks leave every host in arrival order and none waits for a later
// arrival. The tightest ring (two buffers per host, an injection window of
// one) deadlocks if a forward ever waits for the next arrival; exact
// answers prove every chunk was joined exactly once, and on a fault-free
// ring one revolution sample per chunk proves each retired exactly once.
class LookAheadOrdering
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(LookAheadOrdering, TightSixHostRingStaysExactAndLive) {
  const auto [algorithm, crash] = GetParam();
  auto r = rel::generate({.rows = 60'000, .key_domain = 20'000, .seed = 51}, "R", 1);
  auto s = rel::generate({.rows = 60'000, .key_domain = 20'000, .seed = 52}, "S", 2);
  const std::uint32_t band = algorithm == Algorithm::kSortMergeJoin ? 2 : 0;
  const join::JoinResult oracle =
      join::local_sort_merge_join(r.tuples(), s.tuples(), band);

  ClusterConfig cfg = small_cluster(6);
  cfg.node.buffer_bytes = 16 * 1024;
  cfg.node.num_buffers = 2;  // the smallest valid ring
  if (crash) {
    cfg.fault.crashes.push_back({.host = 3, .at = 0});
    cfg.node.resilience.ack_timeout = 20 * kMillisecond;
    cfg.node.resilience.replicate = true;
  }
  const RunReport report =
      CycloJoin(cfg, JoinSpec{.algorithm = algorithm, .band = band}).run(r, s);

  EXPECT_EQ(report.matches, oracle.matches());
  EXPECT_EQ(report.checksum, oracle.checksum());
  if (crash) {
    EXPECT_TRUE(report.fault.recovered);
  } else {
    EXPECT_EQ(report.metrics.histograms.at("revolution_ns").count,
              static_cast<std::uint64_t>(
                  report.metrics.counters.at("chunks_injected")));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sim, LookAheadOrdering,
    ::testing::Combine(::testing::Values(Algorithm::kHashJoin,
                                         Algorithm::kSortMergeJoin),
                       ::testing::Bool()));

// ----- sync: join cores starved for data (Fig. 11) ------------------------

// The look-ahead waits for the next chunk while the previous one still
// joins; only a wait with no join work in flight is sync. Sync is then
// disjoint from join busy time, and at most join_threads join tasks run at
// once, so sync + busy_join / join_threads fits in the join phase. Virtual
// time makes this exact; kEpsilon only absorbs the integer division.
class SyncIsStarvation : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SyncIsStarvation, SyncNeverOverlapsJoinWork) {
  constexpr SimDuration kEpsilon = 1 * kMicrosecond;
  auto r = rel::generate({.rows = 80'000, .key_domain = 30'000, .seed = 61}, "R", 1);
  auto s = rel::generate({.rows = 80'000, .key_domain = 30'000, .seed = 62}, "S", 2);
  const JoinSpec spec{.algorithm = GetParam(), .join_threads = 4};

  const RunReport report = CycloJoin(small_cluster(4), spec).run(r, s);

  for (std::size_t i = 0; i < report.hosts.size(); ++i) {
    const HostStats& host = report.hosts[i];
    const SimDuration busy_join = host.busy_by_tag.at("join");
    EXPECT_GT(busy_join, 0) << "host " << i;
    EXPECT_LE(host.sync + busy_join / spec.join_threads,
              host.join_phase + kEpsilon)
        << "host " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sim, SyncIsStarvation,
                         ::testing::Values(Algorithm::kHashJoin,
                                           Algorithm::kSortMergeJoin));

// Fig. 11's finding: a sort-merge join is too fast for the 1.25 GB/s link
// to hide behind it, so the join cores visibly wait for data. The CPU is
// scaled well above the calibrated testbed's (cpu_scale 0.1, not 1.35) so
// the merge still outruns the link when sanitizers inflate measured CPU
// time.
TEST(SyncIsStarvation, WireBoundSortMergeStillSyncs) {
  auto r = rel::generate({.rows = 400'000, .key_domain = 400'000, .seed = 1}, "R", 1);
  auto s = rel::generate({.rows = 400'000, .key_domain = 400'000, .seed = 2}, "S", 2);
  ClusterConfig cfg;
  cfg.num_hosts = 4;
  cfg.cores_per_host = 4;
  cfg.cpu_scale = 0.1;
  cfg.link.bandwidth_bytes_per_sec = 1.25e9;
  cfg.link.propagation_delay = 5 * kMicrosecond;
  cfg.node.num_buffers = 16;
  cfg.node.buffer_bytes = 32 * 1024;

  const RunReport report =
      CycloJoin(cfg, JoinSpec{.algorithm = Algorithm::kSortMergeJoin}).run(r, s);

  SimDuration sync = 0;
  for (const HostStats& host : report.hosts) sync = std::max(sync, host.sync);
  EXPECT_GT(sync, 0);
}

}  // namespace
}  // namespace cj::cyclo
