#include "model/cyclo_cost.h"

#include <algorithm>

#include "common/assert.h"

namespace cj::model {

namespace {

SimDuration ns(double v) { return static_cast<SimDuration>(v); }

}  // namespace

CycloCostEstimate estimate(JoinKind kind, std::uint64_t rows, int num_hosts,
                           const CycloCostParams& params) {
  CJ_CHECK(num_hosts >= 1);
  CJ_CHECK(params.cores_per_host >= 1);
  CycloCostEstimate out;

  const double rows_per_host =
      static_cast<double>(rows) / static_cast<double>(num_hosts);

  // ---- setup: both sides' staged work spread over the host's cores ----
  double task_a = 0.0;  // prepare stationary fragment
  double task_b = 0.0;  // reorganize rotating fragment
  switch (kind) {
    case JoinKind::kHash:
      task_a = rows_per_host * params.hash_build_ns_per_tuple;
      task_b = rows_per_host * params.hash_reorg_ns_per_tuple;
      break;
    case JoinKind::kSortMerge:
      task_a = rows_per_host * params.sort_ns_per_tuple;
      task_b = rows_per_host * params.sort_ns_per_tuple;
      break;
  }
  out.setup = ns((task_a + task_b) / params.cores_per_host);

  // ---- join phase: every host touches all of R once (Equation (*)) ----
  const int parallelism = std::min(params.cores_per_host, params.join_threads);
  const double per_tuple = kind == JoinKind::kHash
                               ? params.hash_probe_ns_per_tuple
                               : params.merge_ns_per_tuple;
  const double compute_ns =
      static_cast<double>(rows) * per_tuple / static_cast<double>(parallelism);
  out.join = ns(compute_ns);

  // ---- network: each host must take delivery of all foreign chunks ----
  if (num_hosts > 1) {
    const double inbound_bytes =
        (static_cast<double>(rows) - rows_per_host) * params.tuple_bytes;
    const double transfer_ns =
        inbound_bytes / params.link_bandwidth_bytes_per_sec * 1e9;
    out.required_link_rate = compute_ns > 0 ? inbound_bytes / (compute_ns * 1e-9) : 0;
    if (transfer_ns > compute_ns) {
      out.sync = ns(transfer_ns - compute_ns);
    }
  }
  out.network_hidden = out.sync == 0;
  return out;
}

int sort_merge_crossover_hosts(std::uint64_t rows_per_host, int max_hosts,
                               const CycloCostParams& params) {
  for (int n = 2; n <= max_hosts; ++n) {
    const std::uint64_t rows = rows_per_host * static_cast<std::uint64_t>(n);
    const CycloCostEstimate hash = estimate(JoinKind::kHash, rows, n, params);
    const CycloCostEstimate merge = estimate(JoinKind::kSortMerge, rows, n, params);
    if (merge.total() < hash.total()) return n;
  }
  return 0;
}

}  // namespace cj::model
