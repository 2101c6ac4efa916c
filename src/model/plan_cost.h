// Plan-level costing: what one cyclo-join round of an N-way plan costs.
//
// cyclo_cost.h models a single symmetric R ⋈ S round (|R| = |S|); a query
// plan needs the asymmetric version — rotating side X, stationary side Y,
// either of which may be an intermediate — plus cardinality estimation so
// the cost of round k+1 can be computed from estimates, not measurements.
// This header provides both, on top of the same CycloCostParams
// calibration the validated single-round model uses:
//
//   cardinality   |X ⋈ Y| ≈ |X|·|Y| / max(ndv(X), ndv(Y)) for an equi join
//                 on the shared key (containment-of-values assumption),
//                 × (2·band + 1) for a band join,
//   round cost    setup  = (build Y_i + reorg X_i) / cores per host (both
//                 sides' staged setup spread over every core),
//                 join   = |X| probes per host over min(cores, threads),
//                 xfer   = |X| bytes per link per revolution,
//                 total  = setup + max(join, xfer)  (the roundabout hides
//                 the wire under the join whenever it can),
//   wire bytes    rotation: |X| tuple bytes across n−1 links; output
//                 rebalance (ring/redistribute.h): uniformly hashed rows
//                 travel (n−1)/2 links on average.
//
// PlanGen (src/plan) runs its DP over these numbers; tests validate the
// ordering decisions against measured runs.
#pragma once

#include <cstdint>

#include "model/cyclo_cost.h"

namespace cj::model {

/// Planner-side statistics of one join input (base or intermediate).
struct PlanRelStats {
  double rows = 0;
  double distinct_keys = 1;
};

/// Cluster shape + kernel calibration for plan costing.
struct PlanCostParams {
  CycloCostParams kernel;
  int num_hosts = 6;
};

/// Estimated |A ⋈ B| on the shared key (band = 0 for an equi join).
double estimate_join_rows(const PlanRelStats& a, const PlanRelStats& b,
                          std::uint32_t band = 0);

/// Estimated distinct keys of A ⋈ B (containment: the smaller domain).
double estimate_join_distinct(const PlanRelStats& a, const PlanRelStats& b);

/// Cost breakdown of one round with a fixed rotating side.
struct RoundCost {
  double setup_ns = 0;
  double join_ns = 0;      ///< pure compute, spread over the join threads
  double transfer_ns = 0;  ///< time each link needs to feed one revolution
  /// Rotation traffic: rotating tuple bytes across every data link.
  double rotation_bytes = 0;
  /// Expected rebalance traffic for this round's output (0 when the
  /// output is not redistributed, i.e. the plan's final round).
  double redistribute_bytes = 0;
  double total_ns = 0;  ///< setup + max(join, transfer) + redistribute
  double wire_bytes() const { return rotation_bytes + redistribute_bytes; }
};

/// Costs one round: `rotating` spins past every host's fragment of
/// `stationary`. `out_rows` is the round's estimated output cardinality
/// (estimate_join_rows); set `redistribute_output` for every round whose
/// output feeds another round.
RoundCost cost_round(const PlanRelStats& rotating,
                     const PlanRelStats& stationary, JoinKind kind,
                     double out_rows, bool redistribute_output,
                     const PlanCostParams& params);

/// Costs both orientations of X ⋈ Y and returns the cheaper one;
/// `*rotate_first` reports whether X (the first argument) rotates.
RoundCost pick_rotation(const PlanRelStats& x, const PlanRelStats& y,
                        JoinKind kind, double out_rows,
                        bool redistribute_output, const PlanCostParams& params,
                        bool* rotate_first);

}  // namespace cj::model
