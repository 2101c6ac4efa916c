// Cross-module integration tests: transport equivalence, phase-timing
// invariants, zero-copy registration accounting, and multi-join pipelines
// built from materialized distributed results.
#include <gtest/gtest.h>

#include "cyclo/cyclo_join.h"
#include "join/local_join.h"
#include "join/nested_loops.h"
#include "rel/generator.h"

namespace cj::cyclo {
namespace {

ClusterConfig cluster_of(int hosts, Transport transport = Transport::kRdma) {
  ClusterConfig cfg;
  cfg.num_hosts = hosts;
  cfg.node.buffer_bytes = 64 * 1024;
  cfg.node.num_buffers = 8;
  cfg.transport = transport;
  return cfg;
}

TEST(TransportEquivalence, RdmaAndTcpComputeIdenticalJoins) {
  auto r = rel::generate({.rows = 60'000, .key_domain = 20'000, .seed = 1}, "R", 1);
  auto s = rel::generate({.rows = 60'000, .key_domain = 20'000, .seed = 2}, "S", 2);

  for (auto algorithm : {Algorithm::kHashJoin, Algorithm::kSortMergeJoin}) {
    CycloJoin rdma(cluster_of(5, Transport::kRdma), JoinSpec{.algorithm = algorithm});
    CycloJoin tcp(cluster_of(5, Transport::kTcp), JoinSpec{.algorithm = algorithm});
    const RunReport a = rdma.run(r, s);
    const RunReport b = tcp.run(r, s);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_GT(a.matches, 0u);
  }
}

TEST(PhaseTimings, SetupShrinksWithRingSize) {
  auto r = rel::generate({.rows = 400'000, .key_domain = 400'000, .seed = 3}, "R", 1);
  auto s = rel::generate({.rows = 400'000, .key_domain = 400'000, .seed = 4}, "S", 2);

  CycloJoin one(cluster_of(1), JoinSpec{.algorithm = Algorithm::kHashJoin});
  CycloJoin six(cluster_of(6), JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport rep1 = one.run(r, s);
  const RunReport rep6 = six.run(r, s);
  EXPECT_EQ(rep1.matches, rep6.matches);
  // Paper Fig. 7: ~6x; generous bounds absorb measurement noise.
  EXPECT_LT(rep6.setup_wall, rep1.setup_wall / 2);
}

TEST(PhaseTimings, TcpIsSlowerThanRdma) {
  auto r = rel::generate({.rows = 500'000, .key_domain = 500'000, .seed = 7}, "R", 1);
  auto s = rel::generate({.rows = 500'000, .key_domain = 500'000, .seed = 8}, "S", 2);

  ClusterConfig tcp_cfg = cluster_of(4, Transport::kTcp);
  tcp_cfg.context_switch_cost = 12 * kMicrosecond;
  CycloJoin rdma(cluster_of(4, Transport::kRdma),
                 JoinSpec{.algorithm = Algorithm::kHashJoin});
  CycloJoin tcp(tcp_cfg, JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport a = rdma.run(r, s);
  const RunReport b = tcp.run(r, s);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_GT(b.join_wall, a.join_wall);
}

TEST(CpuAccounting, RdmaJoinLoadTracksThreadCount) {
  auto r = rel::generate({.rows = 600'000, .key_domain = 600'000, .seed = 9}, "R", 1);
  auto s = rel::generate({.rows = 600'000, .key_domain = 600'000, .seed = 10}, "S", 2);

  // Table I's regime: the hash join is slower than the 1.25 GB/s link, so
  // join threads seldom wait for data and the load follows the thread
  // count. The paper-testbed calibration (cpu_scale 1.35, bench/harness.h)
  // keeps the run there; uncalibrated, four threads of this machine's
  // kernels outrun the link and the load measures the wire instead.
  ClusterConfig cfg = cluster_of(4);
  cfg.cpu_scale = 1.35;
  CycloJoin one_thread(cfg,
                       JoinSpec{.algorithm = Algorithm::kHashJoin, .join_threads = 1});
  CycloJoin four_threads(cfg,
                         JoinSpec{.algorithm = Algorithm::kHashJoin, .join_threads = 4});
  const RunReport rep1 = one_thread.run(r, s);
  const RunReport rep4 = four_threads.run(r, s);
  // One join thread on four cores: ~25% load (paper Table I).
  EXPECT_NEAR(rep1.cpu_load_join, 0.25, 0.08);
  EXPECT_GT(rep4.cpu_load_join, rep1.cpu_load_join * 2.0);
  // Four threads also finish faster in wall time.
  EXPECT_LT(rep4.join_wall, rep1.join_wall);
}

TEST(Transport, WireCarriesEachChunkAcrossAllButOneHop) {
  auto r = rel::generate({.rows = 100'000, .key_domain = 100'000, .seed = 11}, "R", 1);
  auto s = rel::generate({.rows = 100'000, .key_domain = 100'000, .seed = 12}, "S", 2);
  const int hosts = 4;
  CycloJoin cyclo(cluster_of(hosts), JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport rep = cyclo.run(r, s);
  // Every payload byte of the prepared rotating relation crosses hosts-1
  // links. Prepared chunks carry headers/directories, so allow ~5% slack
  // above the raw tuple volume.
  const double raw = static_cast<double>(r.bytes()) * (hosts - 1);
  EXPECT_GT(static_cast<double>(rep.bytes_on_wire), raw);
  EXPECT_LT(static_cast<double>(rep.bytes_on_wire), raw * 1.05);
}

TEST(QueryPipeline, TernaryJoinViaTwoCycloRuns) {
  // (R ⋈ S) ⋈ T — the paper sketches exactly this composition (Sec. IV-A):
  // the first join's distributed result feeds the second run.
  auto r = rel::generate({.rows = 3'000, .key_domain = 800, .seed = 13}, "R", 1);
  auto s = rel::generate({.rows = 3'000, .key_domain = 800, .seed = 14}, "S", 2);
  auto t = rel::generate({.rows = 3'000, .key_domain = 800, .seed = 15}, "T", 3);

  JoinSpec first_spec{.algorithm = Algorithm::kHashJoin};
  first_spec.materialize = true;
  CycloJoin first(cluster_of(3), first_spec);
  const RunReport rs = first.run(r, s);

  // Rebuild a relation from the distributed intermediate: key stays the
  // join key, payload keeps R's payload (projection).
  rel::Relation intermediate("RS");
  for (const auto& host_result : rs.host_results) {
    for (const auto& out : host_result.output()) {
      intermediate.push_back(rel::Tuple{out.key, out.r_payload});
    }
  }
  std::uint64_t fragment_rows = 0;
  for (const auto& frag : rs.output_fragments()) fragment_rows += frag.rows;
  EXPECT_EQ(fragment_rows, intermediate.rows());

  CycloJoin second(cluster_of(3), JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport rst = second.run(intermediate, t);

  // Oracle: nested loops of the same composition.
  join::JoinResult oracle_rs(true);
  join::nested_loops_equi_join(r.tuples(), s.tuples(), oracle_rs);
  rel::Relation oracle_mid("mid");
  for (const auto& out : oracle_rs.output()) {
    oracle_mid.push_back(rel::Tuple{out.key, out.r_payload});
  }
  join::JoinResult oracle_rst;
  join::nested_loops_equi_join(oracle_mid.tuples(), t.tuples(), oracle_rst);

  EXPECT_EQ(rst.matches, oracle_rst.matches());
}

TEST(Scheduling, JoinThreadsNeverExceedConfiguredLimit) {
  // With join_threads=2 on 4-core hosts, join-tagged busy time can be at
  // most 2 cores' worth of the join-phase window.
  auto r = rel::generate({.rows = 300'000, .key_domain = 300'000, .seed = 16}, "R", 1);
  auto s = rel::generate({.rows = 300'000, .key_domain = 300'000, .seed = 17}, "S", 2);
  CycloJoin cyclo(cluster_of(3),
                  JoinSpec{.algorithm = Algorithm::kHashJoin, .join_threads = 2});
  const RunReport rep = cyclo.run(r, s);
  for (const auto& host : rep.hosts) {
    const auto it = host.busy_by_tag.find("join");
    ASSERT_NE(it, host.busy_by_tag.end());
    EXPECT_LE(static_cast<double>(it->second),
              static_cast<double>(host.join_phase) * 2.0 * 1.05);
  }
}

TEST(Robustness, EmptyRelationsProduceEmptyJoin) {
  rel::Relation r("R");
  rel::Relation s("S");
  for (std::uint32_t i = 0; i < 100; ++i) r.push_back({i, i});
  CycloJoin cyclo(cluster_of(3), JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport rep = cyclo.run(r, s);
  EXPECT_EQ(rep.matches, 0u);
}

TEST(Robustness, MoreHostsThanRows) {
  auto r = rel::generate({.rows = 4, .key_domain = 2, .seed = 18}, "R", 1);
  auto s = rel::generate({.rows = 4, .key_domain = 2, .seed = 19}, "S", 2);
  join::JoinResult oracle;
  join::nested_loops_equi_join(r.tuples(), s.tuples(), oracle);
  CycloJoin cyclo(cluster_of(6), JoinSpec{.algorithm = Algorithm::kHashJoin});
  const RunReport rep = cyclo.run(r, s);
  EXPECT_EQ(rep.matches, oracle.matches());
  EXPECT_EQ(rep.checksum, oracle.checksum());
}

}  // namespace
}  // namespace cj::cyclo
