// Multi-round query planner tests: DP plan enumeration over constructed
// statistics, exact-result parity of executed N-way plans against a
// nested-loops reference (uniform + Zipf, both backends), distributed-
// intermediate locality (no step gathers an intermediate into one
// process), and composition with PR 6 crash recovery mid-plan.
#include "plan/plan_exec.h"
#include "plan/plan_gen.h"
#include "plan/query_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "join/nested_loops.h"
#include "rel/generator.h"
#include "ring/redistribute.h"

namespace cj::plan {
namespace {

using cyclo::Backend;
using cyclo::ClusterConfig;

ClusterConfig small_cluster(int hosts, Backend backend = Backend::kSim) {
  ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_hosts = hosts;
  cfg.cores_per_host = 4;
  cfg.node.buffer_bytes = 64 * 1024;
  cfg.node.num_buffers = 4;
  return cfg;
}

model::PlanCostParams cost_params(const ClusterConfig& cluster) {
  model::PlanCostParams params;
  params.num_hosts = cluster.num_hosts;
  return params;
}

// ---------------------------------------------------------------- oracle

struct Reference {
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
};

/// Single-process left-deep evaluation of the plan over the whole base
/// relations: same per-round predicates, same rotation orientation (the
/// pairing checksum is orientation-sensitive), same left-deep payload
/// projection — but via nested loops over undivided inputs.
Reference reference_plan(const Plan& plan, const QueryGraph& graph,
                         const std::vector<const rel::Relation*>& bases) {
  std::vector<rel::Tuple> inter(
      bases[static_cast<std::size_t>(plan.order[0])]->tuples().begin(),
      bases[static_cast<std::size_t>(plan.order[0])]->tuples().end());
  Reference ref;
  for (std::size_t k = 0; k < plan.rounds.size(); ++k) {
    const PlannedRound& round = plan.rounds[k];
    const auto joined =
        bases[static_cast<std::size_t>(round.relation)]->tuples();
    join::JoinResult res(true);
    if (round.intermediate_rotates) {
      join::nested_loops_band_join(inter, joined, round.band, res);
    } else {
      join::nested_loops_band_join(joined, inter, round.band, res);
    }
    ref.matches = res.matches();
    ref.checksum = res.checksum();
    std::vector<rel::Tuple> next;
    next.reserve(res.output().size());
    for (const join::OutTuple& t : res.output()) {
      next.push_back(rel::Tuple{
          t.key, round.intermediate_rotates ? t.r_payload : t.s_payload});
    }
    inter = std::move(next);
  }
  return ref;
}

// A chain workload lineitems — orders — shipments sharing one key domain.
struct ChainWorkload {
  QueryGraph graph;
  rel::Relation lineitems, orders, shipments;
  std::vector<const rel::Relation*> bases;

  explicit ChainWorkload(double zipf = 0.0) {
    // Skewed runs keep the volume down: heavy hitters square through two
    // rounds, and the nested-loops oracle is quadratic in the blowup.
    const std::uint64_t scale = zipf > 0.0 ? 3 : 1;
    lineitems = rel::generate(
        {.rows = 6'000 / scale, .key_domain = 3'000 / scale, .zipf_z = zipf,
         .seed = 11},
        "lineitems", 1);
    orders = rel::generate(
        {.rows = 3'000 / scale, .key_domain = 3'000 / scale, .zipf_z = zipf,
         .seed = 12},
        "orders", 2);
    shipments = rel::generate(
        {.rows = 2'000 / scale, .key_domain = 3'000 / scale, .zipf_z = zipf,
         .seed = 13},
        "shipments", 3);
    const int l = graph.add_relation("lineitems", rel::collect_stats(lineitems));
    const int o = graph.add_relation("orders", rel::collect_stats(orders));
    const int s = graph.add_relation("shipments", rel::collect_stats(shipments));
    graph.add_join(l, o);
    graph.add_join(o, s);
    bases = {&lineitems, &orders, &shipments};
  }

  std::vector<rel::PartitionedRelation> split(int hosts) const {
    std::vector<rel::PartitionedRelation> inputs;
    for (const rel::Relation* base : bases) {
      inputs.push_back(rel::PartitionedRelation::split(*base, hosts));
    }
    return inputs;
  }
};

/// Locality invariant of the acceptance criteria: every materialized
/// round's output stays a per-host partition — no host ever holds the
/// whole intermediate (given it has more than a handful of rows).
void expect_fragment_locality(const PlanRunReport& report) {
  for (std::size_t k = 0; k < report.rounds.size(); ++k) {
    const RoundReport& round = report.rounds[k];
    if (round.rows_per_host.empty()) continue;  // count-only final round
    const std::uint64_t total = std::accumulate(
        round.rows_per_host.begin(), round.rows_per_host.end(),
        static_cast<std::uint64_t>(0));
    if (total < 100) continue;
    const std::uint64_t max_host =
        *std::max_element(round.rows_per_host.begin(), round.rows_per_host.end());
    const int populated = static_cast<int>(
        std::count_if(round.rows_per_host.begin(), round.rows_per_host.end(),
                      [](std::uint64_t r) { return r > 0; }));
    EXPECT_LT(max_host, total) << "round " << k
                               << ": one host holds the whole intermediate";
    EXPECT_GE(populated, 2) << "round " << k;
  }
}

// ----------------------------------------------------- plan enumeration

TEST(PlanGen, DpPicksTheCheapestOrderOnConstructedStats) {
  // Star: a big fact table and three dimensions of very different
  // selectivity. The cheapest left-deep order shrinks the intermediate
  // first (tiny dim before the huge one).
  QueryGraph graph;
  const int fact = graph.add_relation("fact", model::PlanRelStats{2e6, 2e6});
  const int tiny = graph.add_relation("tiny", model::PlanRelStats{1e2, 1e2});
  const int mid = graph.add_relation("mid", model::PlanRelStats{1e4, 1e4});
  const int big = graph.add_relation("big", model::PlanRelStats{1e6, 1e6});
  graph.add_join(fact, tiny);
  graph.add_join(fact, mid);
  graph.add_join(fact, big);

  PlanGen gen(graph, cost_params(small_cluster(5)));
  const Plan best = gen.best();
  const std::vector<Plan> all = gen.enumerate();

  ASSERT_FALSE(all.empty());
  // The DP's minimum must be the exhaustive minimum.
  EXPECT_DOUBLE_EQ(best.total_ns, all.front().total_ns);
  EXPECT_EQ(best.order, all.front().order);
  // And it must genuinely separate the space: the worst order is costlier.
  EXPECT_GT(all.back().total_ns, best.total_ns);
  // Dimensions join cheapest-first: tiny strictly before big.
  const auto pos = [&](int id) {
    return std::find(best.order.begin(), best.order.end(), id) -
           best.order.begin();
  };
  EXPECT_LT(pos(tiny), pos(big));
}

TEST(PlanGen, DpMatchesExhaustiveMinimumOnRandomGraphs) {
  std::uint64_t state = 42;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % 1000 + 1;
  };
  for (int trial = 0; trial < 20; ++trial) {
    QueryGraph graph;
    const int n = 3 + static_cast<int>(next() % 3);  // 3..5 relations
    for (int i = 0; i < n; ++i) {
      const double rows = static_cast<double>(next()) * 1000.0;
      graph.add_relation("r" + std::to_string(i), model::PlanRelStats{rows, std::max(1.0, rows / (1 + next() % 10))});
    }
    // Random spanning tree keeps the graph connected.
    for (int i = 1; i < n; ++i) {
      graph.add_join(i, static_cast<int>(next() % static_cast<std::uint64_t>(i)));
    }
    PlanGen gen(graph, cost_params(small_cluster(4)));
    const Plan best = gen.best();
    const std::vector<Plan> all = gen.enumerate();
    ASSERT_FALSE(all.empty());
    EXPECT_NEAR(best.total_ns, all.front().total_ns,
                1e-6 * all.front().total_ns)
        << "trial " << trial;
  }
}

TEST(PlanGen, DisconnectedGraphIsRejected) {
  QueryGraph graph;
  graph.add_relation("a", model::PlanRelStats{100, 100});
  graph.add_relation("b", model::PlanRelStats{100, 100});
  graph.add_relation("c", model::PlanRelStats{100, 100});
  graph.add_join(0, 1);  // c is unreachable
  PlanGen gen(graph, cost_params(small_cluster(3)));
  EXPECT_DEATH((void)gen.best(), "disconnected");
}

TEST(PlanGen, BandEdgeCompilesToSortMergeRound) {
  QueryGraph graph;
  const int a = graph.add_relation("a", model::PlanRelStats{1e4, 1e4});
  const int b = graph.add_relation("b", model::PlanRelStats{1e4, 1e4});
  graph.add_join(a, b, /*band=*/3);
  PlanGen gen(graph, cost_params(small_cluster(4)));
  const Plan plan = gen.best();
  ASSERT_EQ(plan.rounds.size(), 1u);
  EXPECT_EQ(plan.rounds[0].kind, model::JoinKind::kSortMerge);
  EXPECT_EQ(plan.rounds[0].band, 3u);
}

TEST(PlanCost, RotationPrefersTheSmallerSideWhenCostsAreSymmetric) {
  model::PlanCostParams params;
  params.num_hosts = 6;
  const model::PlanRelStats small{1e4, 1e4};
  const model::PlanRelStats large{1e6, 1e6};
  bool small_rotates = false;
  (void)model::pick_rotation(small, large, model::JoinKind::kHash,
                             /*out_rows=*/1e4, /*redistribute_output=*/false,
                             params, &small_rotates);
  // Rotating the small side moves fewer bytes and probes fewer tuples.
  EXPECT_TRUE(small_rotates);
}

// ------------------------------------------------------- plan execution

TEST(PlanExec, ThreeWayChainMatchesReferenceAndStaysDistributed) {
  const ChainWorkload load;
  const int hosts = 4;
  PlanGen gen(load.graph, cost_params(small_cluster(hosts)));
  const Plan plan = gen.best();
  const Reference ref = reference_plan(plan, load.graph, load.bases);
  ASSERT_GT(ref.matches, 0u);

  ExecConfig cfg;
  cfg.cluster = small_cluster(hosts);
  PlanExecutor exec(cfg);
  const PlanRunReport report =
      exec.execute(plan, load.graph, load.split(hosts));

  EXPECT_EQ(report.matches, ref.matches);
  EXPECT_EQ(report.checksum, ref.checksum);
  ASSERT_EQ(report.rounds.size(), 2u);
  EXPECT_GT(report.rounds[0].rotation_bytes, 0u);
  EXPECT_GT(report.rounds[0].redistribute_bytes, 0u);
  EXPECT_EQ(report.rounds[1].redistribute_bytes, 0u);  // final round
  EXPECT_EQ(report.wire_bytes,
            report.rounds[0].rotation_bytes +
                report.rounds[0].redistribute_bytes +
                report.rounds[1].rotation_bytes);
  expect_fragment_locality(report);
  // The final output is itself a distributed partition of matching size.
  EXPECT_EQ(report.output.rows(), ref.matches);
  EXPECT_EQ(report.output.hosts(), hosts);
}

TEST(PlanExec, ZipfChainMatchesReference) {
  const ChainWorkload load(/*zipf=*/0.8);
  const int hosts = 4;
  PlanGen gen(load.graph, cost_params(small_cluster(hosts)));
  const Plan plan = gen.best();
  const Reference ref = reference_plan(plan, load.graph, load.bases);
  ASSERT_GT(ref.matches, 0u);

  ExecConfig cfg;
  cfg.cluster = small_cluster(hosts);
  PlanExecutor exec(cfg);
  const PlanRunReport report =
      exec.execute(plan, load.graph, load.split(hosts));

  EXPECT_EQ(report.matches, ref.matches);
  EXPECT_EQ(report.checksum, ref.checksum);
  expect_fragment_locality(report);
}

TEST(PlanExec, FourWayStarMatchesReferenceForEveryEnumeratedOrder) {
  // fact ⋈ d1 ⋈ d2 ⋈ d3 on one shared key domain. Every connected
  // left-deep order must produce the identical final result — the
  // planner's choice only moves cost, never answers.
  rel::Relation fact = rel::generate(
      {.rows = 5'000, .key_domain = 1'500, .seed = 21}, "fact", 1);
  rel::Relation d1 = rel::generate(
      {.rows = 900, .key_domain = 1'500, .seed = 22}, "d1", 2);
  rel::Relation d2 = rel::generate(
      {.rows = 700, .key_domain = 1'500, .seed = 23}, "d2", 3);
  rel::Relation d3 = rel::generate(
      {.rows = 500, .key_domain = 1'500, .seed = 24}, "d3", 4);
  QueryGraph graph;
  const int f = graph.add_relation("fact", rel::collect_stats(fact));
  const int a = graph.add_relation("d1", rel::collect_stats(d1));
  const int b = graph.add_relation("d2", rel::collect_stats(d2));
  const int c = graph.add_relation("d3", rel::collect_stats(d3));
  graph.add_join(f, a);
  graph.add_join(f, b);
  graph.add_join(f, c);
  const std::vector<const rel::Relation*> bases = {&fact, &d1, &d2, &d3};

  const int hosts = 3;
  PlanGen gen(graph, cost_params(small_cluster(hosts)));
  const std::vector<Plan> all = gen.enumerate();
  ASSERT_GE(all.size(), 2u);

  std::uint64_t first_matches = 0;
  for (const Plan* plan : {&all.front(), &all.back()}) {
    const Reference ref = reference_plan(*plan, graph, bases);
    std::vector<rel::PartitionedRelation> inputs;
    for (const rel::Relation* base : bases) {
      inputs.push_back(rel::PartitionedRelation::split(*base, hosts));
    }
    ExecConfig cfg;
    cfg.cluster = small_cluster(hosts);
    PlanExecutor exec(cfg);
    const PlanRunReport report = exec.execute(*plan, graph, std::move(inputs));
    EXPECT_EQ(report.matches, ref.matches);
    EXPECT_EQ(report.checksum, ref.checksum);
    expect_fragment_locality(report);
    if (first_matches == 0) first_matches = report.matches;
    EXPECT_EQ(report.matches, first_matches)
        << "different orders disagree on the result";
  }
}

TEST(PlanExec, BandRoundRunsSortMergeAndMatchesReference) {
  rel::Relation events = rel::generate(
      {.rows = 3'000, .key_domain = 2'000, .seed = 31}, "events", 1);
  rel::Relation probes = rel::generate(
      {.rows = 2'000, .key_domain = 2'000, .seed = 32}, "probes", 2);
  rel::Relation labels = rel::generate(
      {.rows = 1'000, .key_domain = 2'000, .seed = 33}, "labels", 3);
  QueryGraph graph;
  const int e = graph.add_relation("events", rel::collect_stats(events));
  const int p = graph.add_relation("probes", rel::collect_stats(probes));
  const int l = graph.add_relation("labels", rel::collect_stats(labels));
  graph.add_join(e, p, /*band=*/2);
  graph.add_join(p, l);
  const std::vector<const rel::Relation*> bases = {&events, &probes, &labels};

  const int hosts = 3;
  PlanGen gen(graph, cost_params(small_cluster(hosts)));
  const Plan plan = gen.best();
  const Reference ref = reference_plan(plan, graph, bases);
  ASSERT_GT(ref.matches, 0u);

  std::vector<rel::PartitionedRelation> inputs;
  for (const rel::Relation* base : bases) {
    inputs.push_back(rel::PartitionedRelation::split(*base, hosts));
  }
  ExecConfig cfg;
  cfg.cluster = small_cluster(hosts);
  PlanExecutor exec(cfg);
  const PlanRunReport report = exec.execute(plan, graph, std::move(inputs));
  EXPECT_EQ(report.matches, ref.matches);
  EXPECT_EQ(report.checksum, ref.checksum);
}

TEST(PlanExec, RtBackendMatchesSimOnTheChain) {
  const ChainWorkload load;
  const int hosts = 3;
  PlanGen gen(load.graph, cost_params(small_cluster(hosts)));
  const Plan plan = gen.best();
  const Reference ref = reference_plan(plan, load.graph, load.bases);

  ExecConfig cfg;
  cfg.cluster = small_cluster(hosts, Backend::kRt);
  PlanExecutor exec(cfg);
  const PlanRunReport report =
      exec.execute(plan, load.graph, load.split(hosts));

  EXPECT_EQ(report.matches, ref.matches);
  EXPECT_EQ(report.checksum, ref.checksum);
  expect_fragment_locality(report);
}

TEST(PlanExec, MidPlanCrashRecoveryComposesWithMultiRound) {
  // Four relations, three rounds; the crash lands in round 1 — a MIDDLE,
  // materializing round whose distributed output must survive the crash
  // via ring-neighbor replication and feed round 2 exactly like a clean
  // round's would. Both backends: a recovered round's materialized output
  // is stitched from the per-origin partials plus the adopter's partition.
  rel::Relation a = rel::generate(
      {.rows = 5'000, .key_domain = 2'500, .seed = 41}, "a", 1);
  rel::Relation b = rel::generate(
      {.rows = 2'500, .key_domain = 2'500, .seed = 42}, "b", 2);
  rel::Relation c = rel::generate(
      {.rows = 1'500, .key_domain = 2'500, .seed = 43}, "c", 3);
  rel::Relation d = rel::generate(
      {.rows = 1'000, .key_domain = 2'500, .seed = 44}, "d", 4);
  QueryGraph graph;
  const int ra = graph.add_relation("a", rel::collect_stats(a));
  const int rb = graph.add_relation("b", rel::collect_stats(b));
  const int rc = graph.add_relation("c", rel::collect_stats(c));
  const int rd = graph.add_relation("d", rel::collect_stats(d));
  graph.add_join(ra, rb);
  graph.add_join(rb, rc);
  graph.add_join(rc, rd);
  const std::vector<const rel::Relation*> bases = {&a, &b, &c, &d};

  const int hosts = 4;
  PlanGen gen(graph, cost_params(small_cluster(hosts)));
  const Plan plan = gen.best();
  const Reference ref = reference_plan(plan, graph, bases);
  ASSERT_GT(ref.matches, 0u);

  for (const Backend backend : {Backend::kSim, Backend::kRt}) {
    SCOPED_TRACE(backend == Backend::kSim ? "sim" : "rt");
    std::vector<rel::PartitionedRelation> inputs;
    for (const rel::Relation* base : bases) {
      inputs.push_back(rel::PartitionedRelation::split(*base, hosts));
    }
    ExecConfig cfg;
    cfg.cluster = small_cluster(hosts, backend);
    cfg.round_config = [&](int round, ClusterConfig* cluster) {
      if (round != 1) return;
      cluster->fault.crashes.push_back({.host = 2, .at = 0});
      cluster->node.resilience.ack_timeout = 20 * kMillisecond;
      cluster->node.resilience.replicate = true;
    };
    PlanExecutor exec(cfg);
    const PlanRunReport report = exec.execute(plan, graph, std::move(inputs));

    ASSERT_EQ(report.rounds.size(), 3u);
    EXPECT_FALSE(report.rounds[0].recovered);  // rounds 0 and 2: fault-free
    EXPECT_TRUE(report.rounds[1].recovered);
    EXPECT_FALSE(report.rounds[1].degraded);
    EXPECT_FALSE(report.rounds[2].recovered);
    EXPECT_EQ(report.matches, ref.matches);
    EXPECT_EQ(report.checksum, ref.checksum);
    EXPECT_EQ(report.output.rows(), ref.matches);
    expect_fragment_locality(report);
  }
}

TEST(PlanExec, CountOnlyFinalRoundSkipsMaterialization) {
  const ChainWorkload load;
  const int hosts = 3;
  PlanGen gen(load.graph, cost_params(small_cluster(hosts)));
  const Plan plan = gen.best();
  const Reference ref = reference_plan(plan, load.graph, load.bases);

  ExecConfig cfg;
  cfg.cluster = small_cluster(hosts);
  cfg.materialize_final = false;
  PlanExecutor exec(cfg);
  const PlanRunReport report =
      exec.execute(plan, load.graph, load.split(hosts));

  EXPECT_EQ(report.matches, ref.matches);
  EXPECT_EQ(report.checksum, ref.checksum);
  EXPECT_TRUE(report.rounds.back().rows_per_host.empty());
  EXPECT_EQ(report.output.hosts(), 0);
}

}  // namespace
}  // namespace cj::plan
