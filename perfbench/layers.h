// Layer replays shared by every workload's traced run. Each one times the
// benchmark's own calls into a module's public functions and adds the
// timings to the trace as named samples.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "plan/plan_gen.h"
#include "plan/query_graph.h"
#include "rel/relation.h"
#include "workloads.h"

namespace cj::perfbench {

/// Replays host 0's fragments of a `hosts`-way even split — rotating
/// fragment of `r`, stationary fragment of `s` — through the join kernels:
/// radix_cluster / HashJoinStationary::build / probe_partition, then
/// sort_fragment / band_merge_join with `band`. The first hash build of the
/// process is reported as join.build_cold_s, the rest feed the warm
/// medians. Returns the host-0 match count of the algorithm the workload
/// runs (sort-merge when `sort_merge`, hash otherwise).
std::uint64_t replay_join_kernels(Trace& trace, const rel::Relation& r,
                                  const rel::Relation& s, int hosts,
                                  std::uint32_t band, bool sort_merge);

/// Times rel::collect_stats and rel::PartitionedRelation::split over
/// `inputs`, and PlanGen::best() over `graph`. Returns the best plan.
plan::Plan replay_rel_and_plan(Trace& trace,
                               std::span<const rel::Relation* const> inputs,
                               const plan::QueryGraph& graph, int hosts);

/// Times ring::redistribute_by_key over a copy of `fragments` and adds its
/// wire bytes as a sample.
void replay_redistribute(Trace& trace, const std::vector<rel::Relation>& fragments);

/// For workloads whose ops bypass the serving layer: serves the join of
/// `r` (rotating) and `s` twice, as a gold and a bronze query, through a
/// QueryScheduler of width 1 on `cluster`, so the second query waits one
/// wave. Adds the serve.* samples and checks each query's result against
/// `matches` and `checksum`.
Workload::Checks replay_serve(Trace& trace, const cyclo::ClusterConfig& cluster,
                              const cyclo::JoinSpec& spec, const rel::Relation& r,
                              const rel::Relation& s, std::uint64_t matches,
                              std::uint64_t checksum);

/// Worst ratio max(est/actual, actual/est) of an output-row estimate.
double estimate_error(double estimated, double actual);

}  // namespace cj::perfbench
