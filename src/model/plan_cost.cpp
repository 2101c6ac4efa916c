#include "model/plan_cost.h"

#include <algorithm>

#include "common/assert.h"

namespace cj::model {

double estimate_join_rows(const PlanRelStats& a, const PlanRelStats& b,
                          std::uint32_t band) {
  const double ndv = std::max({a.distinct_keys, b.distinct_keys, 1.0});
  const double equi = a.rows * b.rows / ndv;
  // A band predicate |k_a − k_b| <= band widens every key's match window
  // to 2·band + 1 neighboring keys.
  return equi * (2.0 * static_cast<double>(band) + 1.0);
}

double estimate_join_distinct(const PlanRelStats& a, const PlanRelStats& b) {
  // Containment of values: the join key survives with the smaller domain.
  return std::max(1.0, std::min(a.distinct_keys, b.distinct_keys));
}

RoundCost cost_round(const PlanRelStats& rotating,
                     const PlanRelStats& stationary, JoinKind kind,
                     double out_rows, bool redistribute_output,
                     const PlanCostParams& params) {
  const CycloCostParams& k = params.kernel;
  const int n = std::max(1, params.num_hosts);
  const double rot_per_host = rotating.rows / n;
  const double stat_per_host = stationary.rows / n;
  const double cores = std::max(1, k.cores_per_host);
  const double threads =
      std::max(1, std::min(k.cores_per_host, k.join_threads));

  RoundCost cost;
  switch (kind) {
    case JoinKind::kHash:
      // Setup: the stationary build and the rotating reorg run as staged
      // tasks spread over all of each host's cores.
      cost.setup_ns = (stat_per_host * k.hash_build_ns_per_tuple +
                       rot_per_host * k.hash_reorg_ns_per_tuple) /
                      cores;
      // Join: every host probes all of the rotating side once (Eq. (*)).
      cost.join_ns = rotating.rows * k.hash_probe_ns_per_tuple / threads;
      break;
    case JoinKind::kSortMerge:
      cost.setup_ns = (stat_per_host + rot_per_host) * k.sort_ns_per_tuple /
                      cores;
      cost.join_ns = rotating.rows * k.merge_ns_per_tuple / threads;
      break;
  }

  // Each data link must deliver the whole rotating side once per
  // revolution; rotation traffic totals |X| bytes on each of the n−1
  // forwarding links.
  const double rot_bytes = rotating.rows * k.tuple_bytes;
  cost.transfer_ns = n > 1
                         ? rot_bytes / k.link_bandwidth_bytes_per_sec * 1e9
                         : 0.0;
  cost.rotation_bytes = n > 1 ? rot_bytes * (n - 1) : 0.0;

  double redistribute_ns = 0.0;
  if (redistribute_output && n > 1) {
    // Uniform hash homes: (n−1)/n of the output rows move, n/2 links each
    // on average — (n−1)/2 link crossings per output row.
    cost.redistribute_bytes =
        out_rows * k.tuple_bytes * static_cast<double>(n - 1) / 2.0;
    // The phase's makespan is the busiest link's share of that traffic.
    redistribute_ns = cost.redistribute_bytes / n /
                      k.link_bandwidth_bytes_per_sec * 1e9;
  }

  cost.total_ns =
      cost.setup_ns + std::max(cost.join_ns, cost.transfer_ns) + redistribute_ns;
  return cost;
}

RoundCost pick_rotation(const PlanRelStats& x, const PlanRelStats& y,
                        JoinKind kind, double out_rows,
                        bool redistribute_output, const PlanCostParams& params,
                        bool* rotate_first) {
  CJ_CHECK(rotate_first != nullptr);
  const RoundCost x_rotates =
      cost_round(x, y, kind, out_rows, redistribute_output, params);
  const RoundCost y_rotates =
      cost_round(y, x, kind, out_rows, redistribute_output, params);
  *rotate_first = x_rotates.total_ns <= y_rotates.total_ns;
  return *rotate_first ? x_rotates : y_rotates;
}

}  // namespace cj::model
