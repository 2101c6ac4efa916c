#include "layers.h"

#include <algorithm>

#include "common/units.h"
#include "join/hash_join.h"
#include "join/radix.h"
#include "join/sort_merge.h"
#include "model/plan_cost.h"
#include "rel/partitioned.h"
#include "ring/redistribute.h"
#include "serve/scheduler.h"

namespace cj::perfbench {

namespace {

/// Repetitions of each replay; the first hash build is the cold one.
constexpr int kReps = 5;
/// PlanGen::best() on a handful of relations takes microseconds, so each
/// sample times a batch of calls.
constexpr int kPlanBatch = 200;

/// Host 0's share of an even split over `hosts` (rel::split_even's first
/// fragment), without copying the other hosts' fragments.
std::span<const rel::Tuple> host0(const rel::Relation& r, int hosts) {
  return r.tuples().first(r.rows() / static_cast<std::size_t>(hosts));
}

}  // namespace

std::uint64_t replay_join_kernels(Trace& trace, const rel::Relation& r,
                                  const rel::Relation& s, int hosts,
                                  std::uint32_t band, bool sort_merge) {
  const std::span<const rel::Tuple> r0 = host0(r, hosts);
  const std::span<const rel::Tuple> s0 = host0(s, hosts);
  const join::RadixConfig config;
  const int bits = join::choose_radix_bits(s0.size(), config);
  std::uint64_t hash_matches = 0;
  std::uint64_t merge_matches = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan root(&trace.spans, "replay.hash_kernels", trace.op);
    double t0 = wall_s();
    join::HashJoinStationary table = [&] {
      ScopedSpan span(&trace.spans, "join.HashJoinStationary::build", trace.op);
      return join::HashJoinStationary::build(s0, bits, config);
    }();
    const double build = wall_s() - t0;
    t0 = wall_s();
    const join::PartitionedData parts = [&] {
      ScopedSpan span(&trace.spans, "join.radix_cluster", trace.op);
      return join::radix_cluster(r0, bits, config.bits_per_pass, config.kernel);
    }();
    const double radix = wall_s() - t0;
    join::JoinResult result;
    t0 = wall_s();
    {
      ScopedSpan span(&trace.spans, "join.probe_partition", trace.op);
      for (std::uint32_t p = 0; p < parts.num_partitions(); ++p) {
        table.probe_partition(p, parts.partition(p), result);
      }
    }
    const double probe = wall_s() - t0;
    hash_matches = result.matches();
    if (rep == 0) {
      trace.add("join.build_cold_s", build);
    } else {
      trace.add("join.build_s", build);
      trace.add("join.radix_s", radix);
      trace.add("join.probe_s", probe);
    }
  }
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan root(&trace.spans, "replay.sort_merge_kernels", trace.op);
    std::vector<rel::Tuple> r_sorted(r0.begin(), r0.end());
    std::vector<rel::Tuple> s_sorted(s0.begin(), s0.end());
    double t0 = wall_s();
    {
      ScopedSpan span(&trace.spans, "join.sort_fragment", trace.op);
      join::sort_fragment(r_sorted);
      join::sort_fragment(s_sorted);
    }
    const double sort = wall_s() - t0;
    join::JoinResult result;
    t0 = wall_s();
    {
      ScopedSpan span(&trace.spans, "join.band_merge_join", trace.op);
      join::band_merge_join(r_sorted, s_sorted, band, result);
    }
    const double merge = wall_s() - t0;
    merge_matches = result.matches();
    if (rep > 0) {
      trace.add("join.sort_s", sort);
      trace.add("join.merge_s", merge);
    }
  }
  const std::uint64_t matches = sort_merge ? merge_matches : hash_matches;
  trace.add("join.matches", static_cast<double>(matches));
  return matches;
}

plan::Plan replay_rel_and_plan(Trace& trace,
                               std::span<const rel::Relation* const> inputs,
                               const plan::QueryGraph& graph, int hosts) {
  ScopedSpan root(&trace.spans, "replay.rel_plan", trace.op);
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = wall_s();
    {
      ScopedSpan span(&trace.spans, "rel.collect_stats", trace.op);
      for (const rel::Relation* r : inputs) {
        const rel::ColumnStats stats = rel::collect_stats(*r);
        CJ_CHECK(stats.rows == r->rows());
      }
    }
    trace.add("rel.collect_stats_s", wall_s() - t0);
    std::vector<rel::PartitionedRelation> split;
    t0 = wall_s();
    {
      ScopedSpan span(&trace.spans, "rel.PartitionedRelation::split", trace.op);
      for (const rel::Relation* r : inputs) {
        split.push_back(rel::PartitionedRelation::split(*r, hosts));
      }
    }
    trace.add("rel.split_s", wall_s() - t0);
  }
  model::PlanCostParams params;
  params.num_hosts = hosts;
  const plan::PlanGen gen(graph, params);
  plan::Plan best;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(&trace.spans, "plan.PlanGen::best", trace.op);
    const double t0 = wall_s();
    for (int i = 0; i < kPlanBatch; ++i) best = gen.best();
    trace.add("plan.plan_s", (wall_s() - t0) / kPlanBatch);
  }
  return best;
}

void replay_redistribute(Trace& trace, const std::vector<rel::Relation>& fragments) {
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<rel::Relation> copy;
    for (const rel::Relation& f : fragments) copy.push_back(f.clone());
    ScopedSpan span(&trace.spans, "ring.redistribute_by_key", trace.op);
    const double t0 = wall_s();
    const ring::RedistributeStats stats = ring::redistribute_by_key(&copy);
    trace.add("ring.redistribute_s", wall_s() - t0);
    trace.add("ring.redistribute_mb", static_cast<double>(stats.bytes_on_wire) / 1e6);
  }
}

Workload::Checks replay_serve(Trace& trace, const cyclo::ClusterConfig& cluster,
                              const cyclo::JoinSpec& spec, const rel::Relation& r,
                              const rel::Relation& s, std::uint64_t matches,
                              std::uint64_t checksum) {
  ScopedSpan root(&trace.spans, "replay.serve", trace.op);
  serve::ServeConfig cfg;
  cfg.cluster = cluster;
  cfg.spec = spec;
  cfg.max_inflight = 1;
  serve::QueryScheduler sched(cfg);
  for (const bool gold : {true, false}) {
    serve::QuerySpec query;
    query.stationary = &s;
    query.band = spec.band;
    query.tenant = gold ? "gold" : "bronze";
    query.weight = gold ? 3.0 : 1.0;
    sched.submit(std::move(query), 0);
  }
  serve::ServeReport report;
  {
    ScopedSpan span(&trace.spans, "serve.QueryScheduler::drain", trace.op);
    report = sched.drain(r);
  }
  Workload::Checks checks;
  for (const serve::QueryRecord& rec : report.queries) {
    ++checks.attempted;
    if (rec.phase != serve::QueryPhase::kRetired || rec.result.matches != matches ||
        rec.result.checksum != checksum) {
      ++checks.failed;
    }
    trace.add("serve.query_latency_p50_s", to_seconds(rec.latency()));
    trace.add("serve.queue_wait_p50_s", to_seconds(rec.queue_wait()));
    trace.add("serve.service_p50_s", to_seconds(rec.finished_at - rec.started_at));
  }
  trace.add("serve.queries_per_wave",
            static_cast<double>(report.queries.size()) / report.waves);
  trace.add("serve.share_gold", report.share_by_tenant["gold"]);
  return checks;
}

double estimate_error(double estimated, double actual) {
  if (estimated <= 0 || actual <= 0) return estimated == actual ? 1.0 : 1e9;
  return std::max(estimated / actual, actual / estimated);
}

}  // namespace cj::perfbench
