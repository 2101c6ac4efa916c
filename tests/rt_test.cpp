// Backend parity suite: the wall-clock rt backend must produce exactly the
// matches and checksum of the deterministic sim backend for the same input
// — uniform and Zipf-skewed keys, equi- and band-joins, shared rotations,
// and the crash-bypass path. Parity is structural (both backends run the
// same plan, kernels, and roundabout protocol; result merging is
// commutative), so any divergence here is a real concurrency bug, which is
// also why CI runs this binary under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cyclo/cyclo_join.h"
#include "join/local_join.h"
#include "join/nested_loops.h"
#include "join/page_pool.h"
#include "obs/analysis.h"
#include "rel/generator.h"
#include "rt/executor.h"

namespace cj::cyclo {
namespace {

ClusterConfig parity_cluster(Backend backend, int hosts) {
  ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_hosts = hosts;
  cfg.cores_per_host = 2;
  cfg.node.buffer_bytes = 32 * 1024;  // small buffers → many chunks rotate
  cfg.node.num_buffers = 4;
  return cfg;
}

RunReport run_on(Backend backend, int hosts, const JoinSpec& spec,
                 const rel::Relation& r, const rel::Relation& s) {
  CycloJoin cyclo(parity_cluster(backend, hosts), spec);
  return cyclo.run(r, s);
}

/// Key skew sweep: 0 is uniform; the paper's skew experiments use Zipf.
class RtParitySkew : public ::testing::TestWithParam<double> {};

TEST_P(RtParitySkew, HashEquiJoinMatchesSim) {
  const double z = GetParam();
  auto r = rel::generate(
      {.rows = 30'000, .key_domain = 6'000, .zipf_z = z, .seed = 11}, "R", 1);
  auto s = rel::generate(
      {.rows = 30'000, .key_domain = 6'000, .zipf_z = z, .seed = 12}, "S", 2);
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin};

  const RunReport sim = run_on(Backend::kSim, 4, spec, r, s);
  const RunReport rt = run_on(Backend::kRt, 4, spec, r, s);

  EXPECT_GT(sim.matches, 0u);
  EXPECT_EQ(rt.matches, sim.matches);
  EXPECT_EQ(rt.checksum, sim.checksum);
  EXPECT_EQ(rt.hosts.size(), sim.hosts.size());
  EXPECT_GT(rt.total_wall, 0);

  // Aliased inputs: a self-join reads one relation as both the rotating
  // and the stationary side (hosts hold views, not copies). Smaller, so
  // the skewed cases' self-join output stays cheap.
  auto t = rel::generate(
      {.rows = 8'000, .key_domain = 6'000, .zipf_z = z, .seed = 13}, "T", 3);
  const join::JoinResult self_oracle =
      join::local_sort_merge_join(t.tuples(), t.tuples());
  for (const Backend backend : {Backend::kSim, Backend::kRt}) {
    const RunReport self = run_on(backend, 4, spec, t, t);
    EXPECT_EQ(self.matches, self_oracle.matches());
    EXPECT_EQ(self.checksum, self_oracle.checksum());
  }
}

TEST_P(RtParitySkew, SortMergeBandJoinMatchesSim) {
  const double z = GetParam();
  auto r = rel::generate(
      {.rows = 12'000, .key_domain = 20'000, .zipf_z = z, .seed = 21}, "R", 1);
  auto s = rel::generate(
      {.rows = 12'000, .key_domain = 20'000, .zipf_z = z, .seed = 22}, "S", 2);
  const JoinSpec spec{.algorithm = Algorithm::kSortMergeJoin, .band = 5};

  const RunReport sim = run_on(Backend::kSim, 3, spec, r, s);
  const RunReport rt = run_on(Backend::kRt, 3, spec, r, s);

  EXPECT_GT(sim.matches, 0u);
  EXPECT_EQ(rt.matches, sim.matches);
  EXPECT_EQ(rt.checksum, sim.checksum);

  auto t = rel::generate(
      {.rows = 4'000, .key_domain = 20'000, .zipf_z = z, .seed = 23}, "T", 3);
  const join::JoinResult self_oracle =
      join::local_sort_merge_join(t.tuples(), t.tuples(), spec.band);
  for (const Backend backend : {Backend::kSim, Backend::kRt}) {
    const RunReport self = run_on(backend, 3, spec, t, t);
    EXPECT_EQ(self.matches, self_oracle.matches());
    EXPECT_EQ(self.checksum, self_oracle.checksum());
  }
}

INSTANTIATE_TEST_SUITE_P(Skew, RtParitySkew,
                         ::testing::Values(0.0, 0.5, 1.0, 1.25));

// The end-to-end benchmark's band_zipf_sim shape, scaled down: 6 hosts,
// Zipf 0.5 keys, band 1, 4 join threads, several chunks per host. The
// oracle is nested loops, not a sort-merge join, so a bug the merge kernel
// makes everywhere alike still shows.
TEST(RtParity, BandZipfShapeMatchesNestedLoopsOnBothBackends) {
  constexpr std::uint64_t kRows = 1U << 14;
  auto r = rel::generate(
      {.rows = kRows, .key_domain = kRows, .zipf_z = 0.5, .seed = 41}, "R", 1);
  auto s = rel::generate(
      {.rows = kRows, .key_domain = kRows, .zipf_z = 0.5, .seed = 42}, "S", 2);
  JoinSpec spec;
  spec.algorithm = Algorithm::kSortMergeJoin;
  spec.join_threads = 4;
  spec.band = 1;
  join::JoinResult oracle;
  join::nested_loops_band_join(r.tuples(), s.tuples(), spec.band, oracle);
  ASSERT_GT(oracle.matches(), kRows);
  for (const Backend backend : {Backend::kSim, Backend::kRt}) {
    ClusterConfig cfg = parity_cluster(backend, 6);
    cfg.cores_per_host = backend == Backend::kSim ? 4 : 2;
    cfg.node.buffer_bytes = 4 * 1024;  // ~8 chunks per host
    const RunReport report = CycloJoin(cfg, spec).run(r, s);
    const char* name = backend == Backend::kSim ? "sim" : "rt";
    EXPECT_EQ(report.matches, oracle.matches()) << name;
    EXPECT_EQ(report.checksum, oracle.checksum()) << name;
  }
}

TEST(RtParity, SingleHostDegeneratesToLocalJoin) {
  auto r = rel::generate({.rows = 10'000, .key_domain = 2'500, .seed = 5}, "R", 1);
  auto s = rel::generate({.rows = 10'000, .key_domain = 2'500, .seed = 6}, "S", 2);
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin};

  const RunReport sim = run_on(Backend::kSim, 1, spec, r, s);
  const RunReport rt = run_on(Backend::kRt, 1, spec, r, s);

  EXPECT_EQ(rt.matches, sim.matches);
  EXPECT_EQ(rt.checksum, sim.checksum);
  EXPECT_EQ(rt.bytes_on_wire, 0u);
}

TEST(RtParity, SharedRotationMatchesSimPerQuery) {
  auto r = rel::generate({.rows = 24'000, .key_domain = 5'000, .seed = 31}, "R", 1);
  auto s1 = rel::generate({.rows = 9'000, .key_domain = 5'000, .seed = 32}, "S1", 2);
  auto s2 = rel::generate({.rows = 9'000, .key_domain = 5'000, .seed = 33}, "S2", 3);
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin};
  const std::vector<SharedQuery> queries{SharedQuery{.stationary = &s1},
                                         SharedQuery{.stationary = &s2}};

  CycloJoin sim_cyclo(parity_cluster(Backend::kSim, 4), spec);
  const SharedRunReport sim = sim_cyclo.run_shared(r, queries);
  CycloJoin rt_cyclo(parity_cluster(Backend::kRt, 4), spec);
  const SharedRunReport rt = rt_cyclo.run_shared(r, queries);

  ASSERT_EQ(rt.queries.size(), sim.queries.size());
  for (std::size_t q = 0; q < sim.queries.size(); ++q) {
    EXPECT_EQ(rt.queries[q].matches, sim.queries[q].matches) << "query " << q;
    EXPECT_EQ(rt.queries[q].checksum, sim.queries[q].checksum) << "query " << q;
  }
  EXPECT_EQ(rt.matches, sim.matches);
  EXPECT_EQ(rt.checksum, sim.checksum);

  // Aliased inputs: two queries over one stationary relation, and that
  // relation rotating too. Every host reads the same tuples through three
  // views at once.
  const std::vector<SharedQuery> aliased{SharedQuery{.stationary = &s1},
                                         SharedQuery{.stationary = &s1}};
  const join::JoinResult r_oracle =
      join::local_sort_merge_join(r.tuples(), s1.tuples());
  const join::JoinResult self_oracle =
      join::local_sort_merge_join(s1.tuples(), s1.tuples());
  for (const Backend backend : {Backend::kSim, Backend::kRt}) {
    CycloJoin cyclo(parity_cluster(backend, 4), spec);
    for (const rel::Relation* rotating : {&r, &s1}) {
      const join::JoinResult& oracle = rotating == &r ? r_oracle : self_oracle;
      const SharedRunReport report = cyclo.run_shared(*rotating, aliased);
      ASSERT_EQ(report.queries.size(), 2u);
      for (const QueryResult& query : report.queries) {
        EXPECT_EQ(query.matches, oracle.matches());
        EXPECT_EQ(query.checksum, oracle.checksum());
      }
    }
  }
}

TEST(RtParity, TaggedSharedRotationBillsPerQueryOnBothBackends) {
  auto r = rel::generate({.rows = 16'000, .key_domain = 4'000, .seed = 35}, "R", 1);
  auto s1 = rel::generate({.rows = 8'000, .key_domain = 4'000, .seed = 36}, "S1", 2);
  auto s2 = rel::generate({.rows = 8'000, .key_domain = 4'000, .seed = 37}, "S2", 3);
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin};
  const std::vector<SharedQuery> queries{
      SharedQuery{.stationary = &s1, .tag = "q7"},
      SharedQuery{.stationary = &s2, .tag = "q8"}};

  CycloJoin sim_cyclo(parity_cluster(Backend::kSim, 3), spec);
  const SharedRunReport sim = sim_cyclo.run_shared(r, queries);
  CycloJoin rt_cyclo(parity_cluster(Backend::kRt, 3), spec);
  const SharedRunReport rt = rt_cyclo.run_shared(r, queries);

  // Tags change accounting only, never results: per-query parity holds and
  // both backends bill core-busy time to the per-query counters.
  ASSERT_EQ(rt.queries.size(), sim.queries.size());
  for (std::size_t q = 0; q < sim.queries.size(); ++q) {
    EXPECT_EQ(rt.queries[q].matches, sim.queries[q].matches) << "query " << q;
    EXPECT_EQ(rt.queries[q].checksum, sim.queries[q].checksum) << "query " << q;
  }
  for (const SharedRunReport* report : {&sim, &rt}) {
    const auto& counters = report->metrics.counters;
    ASSERT_TRUE(counters.contains("busy.q7"));
    ASSERT_TRUE(counters.contains("busy.q8"));
    EXPECT_GT(counters.at("busy.q7"), 0);
    EXPECT_GT(counters.at("busy.q8"), 0);
    EXPECT_FALSE(counters.contains("busy.join"));
  }
}

// ----- crash bypass ---------------------------------------------------------

// The degraded answer depends only on WHICH host died, never on when the
// crash landed relative to the rotation: survivors retract the dead host's
// R buckets and its S fragment wholesale. Crashing at t=0 on both backends
// therefore must yield identical survivor sets, lost-row accounting, and
// degraded checksums even though the rt rotation interleaves differently.
TEST(RtFault, CrashBypassMatchesSimSurvivorsAndDegradedChecksum) {
  const int hosts = 4;
  const int dead = 2;
  auto r = rel::generate({.rows = 24'000, .key_domain = 5'000, .seed = 41}, "R", 1);
  auto s = rel::generate({.rows = 24'000, .key_domain = 5'000, .seed = 42}, "S", 2);
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin};

  ClusterConfig sim_cfg = parity_cluster(Backend::kSim, hosts);
  sim_cfg.fault.crashes.push_back({.host = dead, .at = 0});
  ClusterConfig rt_cfg = parity_cluster(Backend::kRt, hosts);
  rt_cfg.fault.crashes.push_back({.host = dead, .at = 0});

  const RunReport sim = CycloJoin(sim_cfg, spec).run(r, s);
  const RunReport rt = CycloJoin(rt_cfg, spec).run(r, s);

  ASSERT_TRUE(sim.fault.degraded);
  ASSERT_TRUE(rt.fault.degraded);
  EXPECT_EQ(rt.fault.crashed_hosts, sim.fault.crashed_hosts);
  EXPECT_EQ(rt.fault.lost_r_rows, sim.fault.lost_r_rows);
  EXPECT_EQ(rt.fault.lost_s_rows, sim.fault.lost_s_rows);
  EXPECT_EQ(rt.matches, sim.matches);
  EXPECT_EQ(rt.checksum, sim.checksum);
  // No lossy transport on the rt backend: every fault counter besides the
  // crash accounting is structurally zero.
  EXPECT_EQ(rt.fault.messages_dropped, 0u);
  EXPECT_EQ(rt.fault.corrupt_discards, 0u);
}

// With replication on, a real-thread crash recovers the EXACT join: the
// rt result must equal the crash-free answer bit for bit, not the degraded
// survivor join. This is the strongest parity statement in the suite —
// adoption, replica promotion and replay all run on live engine threads.
TEST(RtFault, ReplicatedCrashRecoversExactJoinOnBothBackends) {
  const int hosts = 4;
  const int dead = 2;
  auto r = rel::generate({.rows = 24'000, .key_domain = 5'000, .seed = 41}, "R", 1);
  auto s = rel::generate({.rows = 24'000, .key_domain = 5'000, .seed = 42}, "S", 2);
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin};

  const RunReport clean = run_on(Backend::kSim, hosts, spec, r, s);

  for (const Backend backend : {Backend::kSim, Backend::kRt}) {
    ClusterConfig cfg = parity_cluster(backend, hosts);
    cfg.fault.crashes.push_back({.host = dead, .at = 0});
    cfg.node.resilience.replicate = true;
    if (backend == Backend::kSim) {
      cfg.node.resilience.ack_timeout = 20 * kMillisecond;
    }
    const RunReport report = CycloJoin(cfg, spec).run(r, s);

    const char* which = backend == Backend::kSim ? "sim" : "rt";
    ASSERT_TRUE(report.fault.recovered) << which;
    EXPECT_FALSE(report.fault.degraded) << which;
    EXPECT_EQ(report.fault.lost_r_rows, 0u) << which;
    EXPECT_EQ(report.fault.lost_s_rows, 0u) << which;
    EXPECT_EQ(report.fault.adopter, (dead + 1) % hosts) << which;
    EXPECT_GT(report.fault.replica_bytes, 0u) << which;
    EXPECT_EQ(report.matches, clean.matches) << which;
    EXPECT_EQ(report.checksum, clean.checksum) << which;
  }
}

// Band joins recover too: the adopted partition is re-sorted from the
// replica and the sort-merge kernel runs against it on the adopter.
TEST(RtFault, ReplicatedCrashRecoversBandJoin) {
  auto r = rel::generate(
      {.rows = 12'000, .key_domain = 20'000, .zipf_z = 1.0, .seed = 21}, "R", 1);
  auto s = rel::generate(
      {.rows = 12'000, .key_domain = 20'000, .zipf_z = 1.0, .seed = 22}, "S", 2);
  const JoinSpec spec{.algorithm = Algorithm::kSortMergeJoin, .band = 5};

  const RunReport clean = run_on(Backend::kSim, 3, spec, r, s);

  ClusterConfig cfg = parity_cluster(Backend::kRt, 3);
  cfg.fault.crashes.push_back({.host = 1, .at = 0});
  cfg.node.resilience.replicate = true;
  const RunReport rt = CycloJoin(cfg, spec).run(r, s);

  ASSERT_TRUE(rt.fault.recovered);
  EXPECT_EQ(rt.matches, clean.matches);
  EXPECT_EQ(rt.checksum, clean.checksum);
}

// Replication off: the rt crash keeps its PR-1 degraded contract, so
// enabling the feature elsewhere cannot have changed the default path.
TEST(RtFault, ReplicationOffKeepsDegradedContract) {
  const int hosts = 4;
  const int dead = 2;
  auto r = rel::generate({.rows = 24'000, .key_domain = 5'000, .seed = 41}, "R", 1);
  auto s = rel::generate({.rows = 24'000, .key_domain = 5'000, .seed = 42}, "S", 2);
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin};

  ClusterConfig sim_cfg = parity_cluster(Backend::kSim, hosts);
  sim_cfg.fault.crashes.push_back({.host = dead, .at = 0});
  ClusterConfig rt_cfg = parity_cluster(Backend::kRt, hosts);
  rt_cfg.fault.crashes.push_back({.host = dead, .at = 0});

  const RunReport sim = CycloJoin(sim_cfg, spec).run(r, s);
  const RunReport rt = CycloJoin(rt_cfg, spec).run(r, s);

  ASSERT_TRUE(rt.fault.degraded);
  EXPECT_FALSE(rt.fault.recovered);
  EXPECT_EQ(rt.matches, sim.matches);
  EXPECT_EQ(rt.checksum, sim.checksum);
}

// The adaptive ack-timeout policy is always on for rt: after enough clean
// acks every host's effective timeout tightens below the 200 ms floor-era
// static clamp, and the RTT histogram is populated.
TEST(RtFault, AdaptiveTimeoutGaugesAndRttsSurface) {
  auto r = rel::generate({.rows = 8'000, .key_domain = 2'000, .seed = 51}, "R", 1);
  auto s = rel::generate({.rows = 8'000, .key_domain = 2'000, .seed = 52}, "S", 2);

  ClusterConfig cfg = parity_cluster(Backend::kRt, 3);
  // Arm resilient mode without a fault landing: the crash is scheduled an
  // hour out, far past any realistic run (rt rejects slowdown faults).
  cfg.fault.crashes.push_back({.host = 1, .at = 3600LL * 1'000'000'000LL});

  const RunReport report =
      CycloJoin(cfg, JoinSpec{.algorithm = Algorithm::kHashJoin}).run(r, s);

  EXPECT_FALSE(report.fault.degraded);
  EXPECT_EQ(report.fault.chunks_reinjected, 0u);
  EXPECT_TRUE(report.metrics.histograms.count("ack_rtt_ns") != 0U);
  for (int i = 0; i < 3; ++i) {
    const std::string key = "host" + std::to_string(i) + ".ack_timeout_ns";
    ASSERT_TRUE(report.metrics.gauges.count(key) != 0U) << key;
    EXPECT_GT(report.metrics.gauges.at(key), 0.0) << key;
  }
}

// A crash scheduled after the run completes must leave the result
// undegraded and identical to the crash-free answer on both backends (the
// watcher stands down when the detector finishes first), and the pending
// crash must not hold the run open: total_wall ends with the last host.
TEST(RtFault, CrashAfterCompletionIsHarmless) {
  auto r = rel::generate({.rows = 8'000, .key_domain = 2'000, .seed = 51}, "R", 1);
  auto s = rel::generate({.rows = 8'000, .key_domain = 2'000, .seed = 52}, "S", 2);
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin};
  const SimTime late = 3600 * kSecond;

  const RunReport clean = run_on(Backend::kSim, 3, spec, r, s);

  for (const Backend backend : {Backend::kSim, Backend::kRt}) {
    ClusterConfig cfg = parity_cluster(backend, 3);
    cfg.fault.crashes.push_back({.host = 1, .at = late});
    const RunReport report = CycloJoin(cfg, spec).run(r, s);

    const char* which = backend == Backend::kSim ? "sim" : "rt";
    EXPECT_FALSE(report.fault.degraded) << which;
    EXPECT_TRUE(report.fault.crashed_hosts.empty()) << which;
    EXPECT_EQ(report.matches, clean.matches) << which;
    EXPECT_EQ(report.checksum, clean.checksum) << which;
    EXPECT_LT(report.total_wall, late) << which;
    EXPECT_GE(report.total_wall, report.setup_wall + report.join_wall) << which;
  }
}

/// Every metric name in a snapshot, tagged with its kind.
std::set<std::string> metric_names(const obs::MetricsSnapshot& metrics) {
  std::set<std::string> names;
  for (const auto& [name, value] : metrics.counters) names.insert("counter " + name);
  for (const auto& [name, value] : metrics.gauges) names.insert("gauge " + name);
  for (const auto& [name, value] : metrics.histograms) {
    names.insert("histogram " + name);
  }
  return names;
}

// Both backends report through one fill_metrics, so a fault-free join and a
// recovered crash emit the same counter, gauge and histogram names on each.
// The only differences are backend-specific by construction.
TEST(RtObs, BackendsEmitTheSameMetricNames) {
  auto r = rel::generate({.rows = 16'000, .key_domain = 4'000, .seed = 71}, "R", 1);
  auto s = rel::generate({.rows = 16'000, .key_domain = 4'000, .seed = 72}, "S", 2);
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin};
  // Sim only: the simulated transport's injected link-fault counters, and
  // the core time the simulated RNIC bills for memory registration and
  // work-request posts. Rt only: the live sampler.
  const std::set<std::string> backend_only = {
      "counter messages_dropped", "counter messages_corrupted",
      "counter retransmissions",  "counter rnr_retries",
      "counter busy.mr-reg",      "counter busy.rdma-post",
      "counter obs.sampler_samples"};

  for (const bool crash : {false, true}) {
    std::set<std::string> names[2];
    for (const Backend backend : {Backend::kSim, Backend::kRt}) {
      ClusterConfig cfg = parity_cluster(backend, 4);
      if (crash) {
        cfg.fault.crashes.push_back({.host = 2, .at = 0});
        cfg.node.resilience.replicate = true;
        cfg.node.resilience.ack_timeout = 20 * kMillisecond;
      }
      const RunReport report = CycloJoin(cfg, spec).run(r, s);
      if (crash) ASSERT_TRUE(report.fault.recovered);
      for (const std::string& name : metric_names(report.metrics)) {
        if (!backend_only.contains(name)) {
          names[static_cast<int>(backend)].insert(name);
        }
      }
    }
    EXPECT_EQ(names[0], names[1]) << (crash ? "crash run" : "fault-free run");
  }
}

// Observability rides along on the rt backend: wall-clock traces and
// metrics come from the same obs layer, with per-host engines feeding one
// shared (internally locked) tracer.
TEST(RtObs, TraceAndMetricsPopulated) {
  auto r = rel::generate({.rows = 8'000, .key_domain = 2'000, .seed = 61}, "R", 1);
  auto s = rel::generate({.rows = 8'000, .key_domain = 2'000, .seed = 62}, "S", 2);
  ClusterConfig cfg = parity_cluster(Backend::kRt, 3);
  cfg.trace.enabled = true;

  const RunReport report =
      CycloJoin(cfg, JoinSpec{.algorithm = Algorithm::kHashJoin}).run(r, s);

  ASSERT_NE(report.trace, nullptr);
  EXPECT_FALSE(report.trace->events().empty());
  EXPECT_GT(report.metrics.counters.at("chunks_rotated"), 0);
  EXPECT_GT(report.metrics.counters.at("bytes_on_wire"), 0);
}

// ----- the join entity's look-ahead ----------------------------------------

// The look-ahead's ordering and liveness on real threads: the tightest
// 3-host ring (two buffers per host), fault-free and with a replicated
// crash. Exact answers prove exactly-once joins; on a fault-free ring one
// revolution sample per chunk proves every chunk retired exactly once. A
// forward that waited for a later arrival would park the ring until the
// engines' idle abort.
class RtLookAhead
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(RtLookAhead, TightThreeHostRingStaysExactAndLive) {
  const auto [algorithm, crash] = GetParam();
  auto r = rel::generate({.rows = 30'000, .key_domain = 10'000, .seed = 81}, "R", 1);
  auto s = rel::generate({.rows = 30'000, .key_domain = 10'000, .seed = 82}, "S", 2);
  const std::uint32_t band = algorithm == Algorithm::kSortMergeJoin ? 2 : 0;
  const join::JoinResult oracle =
      join::local_sort_merge_join(r.tuples(), s.tuples(), band);

  ClusterConfig cfg = parity_cluster(Backend::kRt, 3);
  cfg.node.buffer_bytes = 16 * 1024;
  cfg.node.num_buffers = 2;  // the smallest valid ring
  if (crash) {
    cfg.fault.crashes.push_back({.host = 1, .at = 0});
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
    Rt, RtLookAhead,
    ::testing::Combine(::testing::Values(Algorithm::kHashJoin,
                                         Algorithm::kSortMergeJoin),
                       ::testing::Bool()));

// ----- steady state: repeated runs reuse the page pool ----------------------

// The large setup buffers (clustered copies, hash tables, sorted copies,
// chunk slabs) come from the process-wide page pool and go back to it at
// the end of a run. Once one run warmed the pool, running the same join
// again maps no fresh pool bytes on either backend: every buffer adopts a
// parked block. Fragments of 2^18 rows per host put all of those buffers
// above the pool's 2 MiB floor.
ClusterConfig steady_cluster(Backend backend) {
  ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_hosts = 2;
  cfg.cores_per_host = 1;
  return cfg;
}

struct PoolDelta {
  std::uint64_t fresh = 0;
  std::uint64_t reused = 0;
};

template <typename Fn>
PoolDelta pool_delta(Fn&& fn) {
  const join::PagePool::Stats before = join::PagePool::process().stats();
  fn();
  const join::PagePool::Stats after = join::PagePool::process().stats();
  return {after.fresh_bytes - before.fresh_bytes,
          after.reused_bytes - before.reused_bytes};
}

class PoolSteadyState
    : public ::testing::TestWithParam<std::tuple<Backend, Algorithm>> {};

TEST_P(PoolSteadyState, SecondRunMapsNoFreshPoolBytes) {
  const auto [backend, algorithm] = GetParam();
  auto r = rel::generate({.rows = 1 << 19, .key_domain = 1 << 19, .seed = 101}, "R", 1);
  auto s = rel::generate({.rows = 1 << 19, .key_domain = 1 << 19, .seed = 102}, "S", 2);
  CycloJoin cyclo(steady_cluster(backend), JoinSpec{.algorithm = algorithm});

  RunReport first;
  const PoolDelta warm = pool_delta([&] { first = cyclo.run(r, s); });
  RunReport second;
  const PoolDelta steady = pool_delta([&] { second = cyclo.run(r, s); });

  if (warm.fresh + warm.reused == 0) GTEST_SKIP() << "no mmap-backed pool here";
  EXPECT_EQ(steady.fresh, 0u);
  EXPECT_GT(steady.reused, 0u);
  EXPECT_GT(first.matches, 0u);
  EXPECT_EQ(second.matches, first.matches);
  EXPECT_EQ(second.checksum, first.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PoolSteadyState,
    ::testing::Combine(::testing::Values(Backend::kSim, Backend::kRt),
                       ::testing::Values(Algorithm::kHashJoin,
                                         Algorithm::kSortMergeJoin)));

TEST(PoolSteadyState, SecondSharedWaveMapsNoFreshPoolBytes) {
  auto r = rel::generate({.rows = 1 << 19, .key_domain = 1 << 19, .seed = 103}, "R", 1);
  auto s1 = rel::generate({.rows = 1 << 19, .key_domain = 1 << 19, .seed = 104}, "S1", 2);
  auto s2 = rel::generate({.rows = 1 << 19, .key_domain = 1 << 19, .seed = 105}, "S2", 3);
  const std::vector<SharedQuery> queries{SharedQuery{.stationary = &s1},
                                         SharedQuery{.stationary = &s2}};
  for (const Backend backend : {Backend::kSim, Backend::kRt}) {
    CycloJoin cyclo(steady_cluster(backend),
                    JoinSpec{.algorithm = Algorithm::kHashJoin});
    SharedRunReport first;
    const PoolDelta warm =
        pool_delta([&] { first = cyclo.run_shared(r, queries); });
    SharedRunReport second;
    const PoolDelta steady =
        pool_delta([&] { second = cyclo.run_shared(r, queries); });

    if (warm.fresh + warm.reused == 0) GTEST_SKIP() << "no mmap-backed pool here";
    EXPECT_EQ(steady.fresh, 0u) << (backend == Backend::kSim ? "sim" : "rt");
    EXPECT_GT(steady.reused, 0u);
    ASSERT_EQ(second.queries.size(), 2u);
    for (std::size_t q = 0; q < 2; ++q) {
      EXPECT_GT(first.queries[q].matches, 0u);
      EXPECT_EQ(second.queries[q].matches, first.queries[q].matches);
      EXPECT_EQ(second.queries[q].checksum, first.queries[q].checksum);
    }
  }
}

// ----- the join-thread limit ----------------------------------------------

/// Per host, the most core spans named `name` (the busy tag; entity
/// "core<k>") open at one instant. An end and a begin at the same
/// timestamp do not overlap.
std::map<int, int> peak_core_spans(const obs::Tracer& trace,
                                   std::string_view name) {
  std::map<int, std::vector<std::pair<std::int64_t, int>>> edges;
  for (const obs::Span& span : obs::extract_spans(trace)) {
    if (trace.name(span.name) != name ||
        !trace.name(span.entity).starts_with("core")) {
      continue;
    }
    edges[span.host].emplace_back(span.start, +1);
    edges[span.host].emplace_back(span.end, -1);
  }
  std::map<int, int> peaks;
  for (auto& [host, host_edges] : edges) {
    std::sort(host_edges.begin(), host_edges.end());
    int running = 0;
    int& peak = peaks[host];
    for (const auto& [ts, delta] : host_edges) {
      running += delta;
      peak = std::max(peak, running);
    }
  }
  return peaks;
}

/// The most join tasks that ever ran at once on one host.
int peak_join_tasks(const obs::Tracer& trace) {
  int peak = 0;
  for (const auto& [host, host_peak] : peak_core_spans(trace, "join")) {
    peak = std::max(peak, host_peak);
  }
  return peak;
}

/// Per host, the most setup tasks running at once.
std::map<int, int> peak_setup_tasks(const obs::Tracer& trace) {
  return peak_core_spans(trace, "setup");
}

// join_threads < cores_per_host must leave cores free (fig12 and table1
// give them to the TCP stack), look-ahead or not: at most join_threads
// join tasks occupy a host's cores at once, on both backends.
class JoinThreadLimit : public ::testing::TestWithParam<Backend> {};

TEST_P(JoinThreadLimit, NoMoreThanJoinThreadsJoinTasksRunAtOnce) {
  const Backend backend = GetParam();
  auto r = rel::generate({.rows = 40'000, .key_domain = 10'000, .seed = 91}, "R", 1);
  auto s = rel::generate({.rows = 40'000, .key_domain = 10'000, .seed = 92}, "S", 2);
  ClusterConfig cfg = parity_cluster(backend, 3);
  cfg.cores_per_host = backend == Backend::kSim ? 4 : 2;
  cfg.trace.enabled = true;
  const JoinSpec spec{.algorithm = Algorithm::kHashJoin,
                      .join_threads = backend == Backend::kSim ? 2 : 1};

  const RunReport report = CycloJoin(cfg, spec).run(r, s);

  ASSERT_NE(report.trace, nullptr);
  const int peak = peak_join_tasks(*report.trace);
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, spec.join_threads);
}

INSTANTIATE_TEST_SUITE_P(Backends, JoinThreadLimit,
                         ::testing::Values(Backend::kSim, Backend::kRt),
                         [](const auto& info) {
                           return info.param == Backend::kSim
                                      ? std::string("Sim")
                                      : std::string("Rt");
                         });

// Setup runs on every core: the rotating and the stationary side's staged
// jobs (join/staged.h) put cores_per_host setup tasks on each host's cores
// at once, on both backends. On sim the traced core spans show it. On rt
// they are real worker threads, whose overlap depends on the OS scheduler,
// so the test asks each host's executor instead: its first cores_per_host
// dispatched jobs — the first setup stage's tasks — must reach its
// rt::Executor::Gate together, each on its own worker, none finished. With
// one task per side, two jobs arrive and the gate times out.
class SetupConcurrency : public ::testing::TestWithParam<Backend> {};

TEST_P(SetupConcurrency, EveryHostRunsASetupTaskOnEachCoreAtOnce) {
  const Backend backend = GetParam();
  auto r = rel::generate({.rows = 600'000, .key_domain = 150'000, .seed = 93}, "R", 1);
  auto s = rel::generate({.rows = 600'000, .key_domain = 150'000, .seed = 94}, "S", 2);
  ClusterConfig cfg = parity_cluster(backend, 3);
  cfg.cores_per_host = backend == Backend::kSim ? 4 : 3;
  cfg.trace.enabled = backend == Backend::kSim;
  for (const Algorithm algorithm :
       {Algorithm::kHashJoin, Algorithm::kSortMergeJoin}) {
    if (backend == Backend::kRt) {
      rt::Executor::Gate gate{.jobs = cfg.cores_per_host};
      rt::Executor::set_gate(&gate);
      const RunReport report =
          CycloJoin(cfg, JoinSpec{.algorithm = algorithm}).run(r, s);
      rt::Executor::set_gate(nullptr);
      EXPECT_GT(report.matches, 0U);
      EXPECT_EQ(gate.met.load(), 3) << "algorithm " << static_cast<int>(algorithm);
      EXPECT_EQ(gate.missed.load(), 0) << "algorithm " << static_cast<int>(algorithm);
      continue;
    }
    const RunReport report =
        CycloJoin(cfg, JoinSpec{.algorithm = algorithm}).run(r, s);
    ASSERT_NE(report.trace, nullptr);
    const std::map<int, int> peaks = peak_setup_tasks(*report.trace);
    ASSERT_EQ(peaks.size(), 3U);
    for (const auto& [host, peak] : peaks) {
      EXPECT_EQ(peak, cfg.cores_per_host)
          << "host " << host << " algorithm " << static_cast<int>(algorithm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SetupConcurrency,
                         ::testing::Values(Backend::kSim, Backend::kRt),
                         [](const auto& info) {
                           return info.param == Backend::kSim
                                      ? std::string("Sim")
                                      : std::string("Rt");
                         });

// The executor enforces a cap itself: jobs beyond it wait in the queue
// while uncapped jobs pass them, and no more than the cap ever run at once.
TEST(RtExecutor, CapBoundsConcurrentJobs) {
  constexpr int kJobs = 24;
  rt::Executor executor(4);
  const int cap = executor.add_cap(2);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::atomic<int> done{0};
  for (int k = 0; k < kJobs; ++k) {
    const bool capped = k % 3 != 0;
    executor.submit(
        [&, capped](int) {
          if (capped) {
            const int now = ++running;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          if (capped) --running;
          ++done;
        },
        capped ? cap : sim::CorePool::kUncapped);
  }
  while (done.load() < kJobs) std::this_thread::yield();
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 2);
}

}  // namespace
}  // namespace cj::cyclo
