// Analytical cost model for cyclo-join — the paper's Sec. VII names "a
// complete cost model for cyclo-join" as the project's ongoing work; this
// module provides one, and the test suite validates it against the
// simulator (which in turn runs the real kernels).
//
// The model predicts, for a ring of n hosts with c cores each joining
// |R| = |S| = `rows` tuples:
//
//   setup      one host prepares rows/n tuples of each relation; the two
//              sides' work (build S / reorganize R) runs as staged tasks
//              spread over all c of the host's cores (join/staged.h),
//   join       every host touches all of R once: |R| probe/merge steps at
//              the algorithm's per-tuple cost, spread over min(c, threads)
//              cores (paper Equation (*)),
//   sync       the network must deliver |R| bytes per host per revolution;
//              whenever the join consumes faster than the wire feeds, the
//              difference surfaces as synchronization time (Fig. 11),
//   total      setup + max(join, transfer) for n > 1; setup + join locally.
//
// Per-tuple kernel costs are supplied by a CycloCostParams calibration —
// defaults match this repository's measured kernels scaled to the paper's
// 2.33 GHz Xeon (see bench/harness.h). The crossover helpers answer the
// paper's "sort-merge overtakes hash at ~30 nodes" style questions
// analytically.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace cj::model {

enum class JoinKind { kHash, kSortMerge };

struct CycloCostParams {
  // Per-tuple kernel costs in ns on one reference core.
  double hash_build_ns_per_tuple = 60.0;    // radix-cluster S + table build
  double hash_reorg_ns_per_tuple = 57.0;    // radix-cluster R + chunk encode
  // Fitted to the simulator: on one host the join phase is pure probe
  // work, so sim join_wall * join_threads / rows is the per-tuple probe
  // cost. Median of 55 runs of `abl_cost_model --nodes 1` (45 at --scale
  // 16, 10 at the default 32; RelWithDebInfo build, 4-vCPU x86-64 VM):
  // 62 ns, quartiles 55 and 70 ns.
  double hash_probe_ns_per_tuple = 62.0;
  double sort_ns_per_tuple = 313.0;         // qsort-style sort (setup)
  double merge_ns_per_tuple = 26.0;         // sequential merge (join phase)

  double tuple_bytes = 12.0;
  double link_bandwidth_bytes_per_sec = 1.25e9;
  int cores_per_host = 4;
  int join_threads = 4;
};

struct CycloCostEstimate {
  SimDuration setup = 0;
  SimDuration join = 0;   ///< pure compute part of the join phase
  SimDuration sync = 0;   ///< wire-feed deficit surfacing as waiting
  SimDuration total() const { return setup + join + sync; }
  /// Bytes/s each link must carry during the join phase.
  double required_link_rate = 0.0;
  /// True when the join phase fully hides the network (sync == 0).
  bool network_hidden = false;
};

/// Cost of joining |R| = |S| = `rows` tuples on an n-host ring.
CycloCostEstimate estimate(JoinKind kind, std::uint64_t rows, int num_hosts,
                           const CycloCostParams& params = {});

/// Smallest ring size at which the sort-merge join's total time drops below
/// the hash join's for the given per-host data volume (the paper expects
/// ~30 nodes at 1.6 GB per relation per host). Returns 0 if no crossover
/// occurs up to `max_hosts`.
int sort_merge_crossover_hosts(std::uint64_t rows_per_host, int max_hosts,
                               const CycloCostParams& params = {});

}  // namespace cj::model
